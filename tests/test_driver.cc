/** @file Tests for the simulation driver and config plumbing. */

#include <gtest/gtest.h>

#include <algorithm>

#include "cpu/config_preset.hh"
#include "driver/runner.hh"
#include "sim/logging.hh"
#include "workloads/workloads.hh"

using namespace slf;

TEST(ApplyOverrides, PipelineDimensions)
{
    CoreConfig cfg = CoreConfig::baseline();
    Config ov;
    ov.setUInt("width", 2);
    ov.setUInt("rob", 64);
    ov.setUInt("sched", 32);
    ov.setUInt("fus", 3);
    applyOverrides(cfg, ov);
    EXPECT_EQ(cfg.width, 2u);
    EXPECT_EQ(cfg.rob_entries, 64u);
    EXPECT_EQ(cfg.sched_entries, 32u);
    EXPECT_EQ(cfg.num_fus, 3u);
}

TEST(ApplyOverrides, SubsystemSelection)
{
    CoreConfig cfg = CoreConfig::baseline();
    Config ov;
    ov.set("subsys", "lsq");
    applyOverrides(cfg, ov);
    EXPECT_EQ(cfg.subsys, MemSubsystem::LsqBaseline);
    ov.set("subsys", "mdtsfc");
    applyOverrides(cfg, ov);
    EXPECT_EQ(cfg.subsys, MemSubsystem::MdtSfc);
    ov.set("subsys", "bogus");
    EXPECT_THROW(applyOverrides(cfg, ov), FatalError);
}

TEST(ApplyOverrides, StructureGeometry)
{
    CoreConfig cfg = CoreConfig::baseline();
    Config ov;
    ov.setUInt("sfc.sets", 64);
    ov.setUInt("sfc.assoc", 4);
    ov.setUInt("mdt.sets", 2048);
    ov.setUInt("mdt.granularity", 16);
    ov.setBool("mdt.tagged", false);
    ov.setUInt("lsq.lq", 10);
    ov.setUInt("lsq.sq", 11);
    applyOverrides(cfg, ov);
    EXPECT_EQ(cfg.sfc.sets, 64u);
    EXPECT_EQ(cfg.sfc.assoc, 4u);
    EXPECT_EQ(cfg.mdt.sets, 2048u);
    EXPECT_EQ(cfg.mdt.granularity, 16u);
    EXPECT_FALSE(cfg.mdt.tagged);
    EXPECT_EQ(cfg.lsq.lq_entries, 10u);
    EXPECT_EQ(cfg.lsq.sq_entries, 11u);
}

TEST(ApplyOverrides, MemDepModes)
{
    CoreConfig cfg = CoreConfig::baseline();
    Config ov;
    for (const auto &[name, mode] :
         std::initializer_list<std::pair<const char *, MemDepMode>>{
             {"lsq", MemDepMode::LsqStoreSet},
             {"true", MemDepMode::EnforceTrueOnly},
             {"all", MemDepMode::EnforceAll},
             {"total", MemDepMode::EnforceAllTotalOrder}}) {
        ov.set("memdep.mode", name);
        applyOverrides(cfg, ov);
        EXPECT_EQ(cfg.memdep.mode, mode) << name;
    }
    ov.set("memdep.mode", "bogus");
    EXPECT_THROW(applyOverrides(cfg, ov), FatalError);
}

TEST(ApplyOverrides, PolicyFlags)
{
    CoreConfig cfg = CoreConfig::baseline();
    Config ov;
    ov.setBool("stall_bits", false);
    ov.setBool("partial_match_merges", false);
    ov.setBool("output_dep_marks_corrupt", true);
    ov.setBool("optimized_true_recovery", true);
    ov.setDouble("oracle_fix_prob", 0.5);
    applyOverrides(cfg, ov);
    EXPECT_FALSE(cfg.stall_bits);
    EXPECT_FALSE(cfg.partial_match_merges);
    EXPECT_TRUE(cfg.output_dep_marks_corrupt);
    EXPECT_TRUE(cfg.mdt.optimized_true_recovery);
    EXPECT_DOUBLE_EQ(cfg.oracle_fix_prob, 0.5);
}

TEST(ApplyOverrides, UnknownKeyIsFatalAndNamesTheValidOnes)
{
    CoreConfig cfg = CoreConfig::baseline();
    Config ov;
    ov.setUInt("widht", 2);  // the classic typo
    try {
        applyOverrides(cfg, ov);
        FAIL() << "unknown override key must be fatal";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("widht"), std::string::npos) << msg;
        // The diagnostic lists every valid key so the fix is one
        // copy-paste away.
        EXPECT_NE(msg.find("width"), std::string::npos) << msg;
        EXPECT_NE(msg.find("memdep.mode"), std::string::npos) << msg;
    }
}

TEST(ApplyOverrides, KnownKeyListIsSortedAndAccepted)
{
    const std::vector<std::string> &keys = knownOverrideKeys();
    EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
    EXPECT_GE(keys.size(), 30u);
    // Spot-check that membership in the list really means "accepted":
    // every key the other tests exercise is present.
    for (const char *k :
         {"width", "rob", "sched", "fus", "subsys", "sfc.sets",
          "sfc.assoc", "mdt.sets", "mdt.granularity", "mdt.tagged",
          "lsq.lq", "lsq.sq", "memdep.mode", "stall_bits",
          "partial_match_merges",
          "output_dep_marks_corrupt", "optimized_true_recovery",
          "oracle_fix_prob"})
        EXPECT_TRUE(std::binary_search(keys.begin(), keys.end(),
                                       std::string(k)))
            << k;
    // Head bypass is the forward-progress guarantee for an access stuck
    // on an SFC/MDT conflict at the ROB head, not a policy: no key.
    EXPECT_FALSE(std::binary_search(keys.begin(), keys.end(),
                                    std::string("head_bypass")));
}

TEST(ConfigPresets, RegistryCoversTheSweepVocabulary)
{
    // Every name the sweeps/benches/tests use must be registered.
    for (const char *name :
         {"lsq16x12", "lsq32x24", "lsq48x32", "lsq64x48", "lsq120x80",
          "lsq256x256", "enf", "notenf", "agg_lsq48x32", "agg_lsq120x80",
          "agg_lsq256x256", "agg_enf", "agg_notenf", "agg_total"})
        EXPECT_NE(findPreset(name), nullptr) << name;
    EXPECT_EQ(configPresets().size(), presetNames().size());
    for (const ConfigPreset &p : configPresets())
        EXPECT_FALSE(p.description.empty()) << p.name;
}

TEST(ConfigPresets, NamedGeometriesMatchThePaper)
{
    const CoreConfig lsq = presetByName("lsq48x32");
    EXPECT_EQ(lsq.subsys, MemSubsystem::LsqBaseline);
    EXPECT_EQ(lsq.lsq.lq_entries, 48u);
    EXPECT_EQ(lsq.lsq.sq_entries, 32u);
    EXPECT_EQ(lsq.width, 4u);

    const CoreConfig enf = presetByName("enf");
    EXPECT_EQ(enf.subsys, MemSubsystem::MdtSfc);
    EXPECT_EQ(enf.memdep.mode, MemDepMode::EnforceAll);

    const CoreConfig notenf = presetByName("notenf");
    EXPECT_EQ(notenf.memdep.mode, MemDepMode::EnforceTrueOnly);

    const CoreConfig agg = presetByName("agg_total");
    EXPECT_EQ(agg.width, 8u);
    EXPECT_EQ(agg.memdep.mode, MemDepMode::EnforceAllTotalOrder);

    const CoreConfig agg_lsq = presetByName("agg_lsq256x256");
    EXPECT_EQ(agg_lsq.subsys, MemSubsystem::LsqBaseline);
    EXPECT_EQ(agg_lsq.lsq.lq_entries, 256u);
    EXPECT_EQ(agg_lsq.lsq.sq_entries, 256u);
}

TEST(ConfigPresets, UnknownNameIsFatalAndListsTheRegistry)
{
    EXPECT_EQ(findPreset("lsq48x33"), nullptr);
    try {
        presetByName("lsq48x33");
        FAIL() << "unknown preset must be fatal";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("lsq48x33"), std::string::npos) << msg;
        EXPECT_NE(msg.find("lsq48x32"), std::string::npos) << msg;
    }
}

TEST(Presets, FigureFourValues)
{
    const CoreConfig base = CoreConfig::baseline();
    EXPECT_EQ(base.width, 4u);
    EXPECT_EQ(base.rob_entries, 128u);
    EXPECT_EQ(base.mdt.sets, 4096u);
    EXPECT_EQ(base.sfc.sets, 128u);
    EXPECT_EQ(base.memdep.table_entries, 16384u);
    EXPECT_EQ(base.memdep.lfpt_entries, 512u);
    EXPECT_EQ(base.mispredict_penalty, 8u);

    const CoreConfig agg = CoreConfig::aggressive();
    EXPECT_EQ(agg.width, 8u);
    EXPECT_EQ(agg.rob_entries, 1024u);
    EXPECT_EQ(agg.mdt.sets, 8192u);
    EXPECT_EQ(agg.sfc.sets, 512u);
    EXPECT_EQ(agg.max_branches_per_fetch, 8u);
    EXPECT_EQ(agg.memdep.mode, MemDepMode::EnforceAllTotalOrder);
}

TEST(Runner, ResultDerivedRatesConsistent)
{
    const Program prog = workloads::microForwardChain(1000);
    CoreConfig cfg = CoreConfig::baseline();
    cfg.subsys = MemSubsystem::MdtSfc;
    const SimResult r = runWorkload(cfg, prog);
    EXPECT_EQ(r.memOps(), r.loads_retired + r.stores_retired);
    EXPECT_GE(r.ipc, 0.0);
    EXPECT_NEAR(r.ipc, double(r.insts) / double(r.cycles), 1e-9);
    EXPECT_EQ(r.workload, "micro_forward_chain");
}

/**
 * Regression for the exportStats() virtual hook that replaced the
 * dynamic_cast unit-dispatch chain in the runner: on a store-heavy
 * micro workload, every counter a unit exports through the hook must
 * land nonzero in the SimResult. A silently-broken export would leave
 * zeros here (exactly the bug class the old cast chain invited when a
 * new unit type was added).
 */
TEST(Runner, ExportStatsNonzeroOnStoreHeavyWorkload)
{
    // microForwardChain: a tight store->load forwarding chain, so
    // forwarding, table-access and search counters must all fire.
    const Program chain = workloads::microForwardChain(2000);
    // microTrueViolations: engineered premature loads, so violation
    // and flush counters must fire too.
    const Program viol = workloads::microTrueViolations(2000);

    {
        CoreConfig cfg = CoreConfig::baseline();
        cfg.subsys = MemSubsystem::MdtSfc;
        const SimResult r = runWorkload(cfg, chain);
        EXPECT_GT(r.stores_retired, 0u);
        EXPECT_GT(r.loads_retired, 0u);
        EXPECT_GT(r.sfc_forwards, 0u);
        EXPECT_GT(r.mdt_accesses, 0u);
        EXPECT_GT(r.sfc_accesses, 0u);

        cfg.memdep.mode = MemDepMode::EnforceTrueOnly;
        const SimResult rv = runWorkload(cfg, viol);
        EXPECT_GT(rv.viol_true, 0u);
        EXPECT_GT(rv.flushes_true, 0u);
    }

    {
        CoreConfig cfg = CoreConfig::baseline();
        cfg.subsys = MemSubsystem::LsqBaseline;
        cfg.memdep.mode = MemDepMode::LsqStoreSet;
        const SimResult r = runWorkload(cfg, chain);
        EXPECT_GT(r.stores_retired, 0u);
        EXPECT_GT(r.lsq_forwards, 0u);
        EXPECT_GT(r.lsq_searches, 0u);
        EXPECT_GT(r.cam_entries_examined, 0u);
    }

    {
        CoreConfig cfg = CoreConfig::baseline();
        cfg.subsys = MemSubsystem::ValueReplay;
        cfg.memdep.mode = MemDepMode::LsqStoreSet;
        const SimResult r = runWorkload(cfg, chain);
        EXPECT_GT(r.stores_retired, 0u);
        EXPECT_GT(r.lsq_searches, 0u);
        EXPECT_GT(r.cam_entries_examined, 0u);
    }
}

TEST(Runner, HarvestsSubsystemSpecificStats)
{
    const Program prog = workloads::microForwardChain(500);
    CoreConfig sfc_cfg = CoreConfig::baseline();
    sfc_cfg.subsys = MemSubsystem::MdtSfc;
    const SimResult rs = runWorkload(sfc_cfg, prog);
    EXPECT_GT(rs.mdt_accesses, 0u);
    EXPECT_GT(rs.sfc_accesses, 0u);
    EXPECT_EQ(rs.cam_entries_examined, 0u);

    CoreConfig lsq_cfg = CoreConfig::baseline();
    lsq_cfg.subsys = MemSubsystem::LsqBaseline;
    lsq_cfg.memdep.mode = MemDepMode::LsqStoreSet;
    const SimResult rl = runWorkload(lsq_cfg, prog);
    EXPECT_GT(rl.lsq_searches, 0u);
    EXPECT_GT(rl.cam_entries_examined, 0u);
    EXPECT_EQ(rl.mdt_accesses, 0u);
}
