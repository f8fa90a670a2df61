/**
 * @file
 * Analysis-layer tests: the CPI stack's exact slot identity across
 * every sweep config, flush-blame attribution of the fig5 ENF-vs-ideal
 * IPC gap, Konata pipeline-view export, and lifetime-record
 * finalization through every squashFrom() edge case.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/sweeps.hh"
#include "cpu/ooo_core.hh"
#include "driver/runner.hh"
#include "obs/analysis/blame.hh"
#include "obs/analysis/cpi_stack.hh"
#include "obs/analysis/konata.hh"
#include "obs/analysis/lifetime.hh"
#include "workloads/workloads.hh"

using namespace slf;

namespace
{

std::uint64_t
componentSum(const obs::CpiStack &cpi)
{
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < obs::kCpiComponentCount; ++i)
        sum += cpi.value(static_cast<obs::CpiComponent>(i));
    return sum;
}

std::uint64_t
stallSlots(const obs::CpiStack &cpi)
{
    return componentSum(cpi) - cpi.value(obs::CpiComponent::Base);
}

/** Every-record sanity: milestones in order, each seq finalized once,
 *  no gaps between the smallest and largest finalized seq. */
void
checkLifetimesFinalized(const obs::LifetimeSink &sink)
{
    ASSERT_FALSE(sink.records().empty());
    EXPECT_EQ(sink.dropped(), 0u);

    std::set<SeqNum> seqs;
    SeqNum max_seq = 0;
    for (const obs::InstLifetime &lt : sink.records()) {
        EXPECT_NE(lt.seq, kInvalidSeqNum);
        EXPECT_TRUE(seqs.insert(lt.seq).second)
            << "seq " << lt.seq << " finalized twice";
        max_seq = std::max(max_seq, lt.seq);

        // A record always has a fetch cycle and an end cycle.
        ASSERT_NE(lt.fetch, kNoCycle);
        ASSERT_NE(lt.end, kNoCycle);
        EXPECT_LE(lt.fetch, lt.end);
        if (lt.dispatch != kNoCycle) {
            EXPECT_LE(lt.fetch, lt.dispatch);
        }
        if (lt.issue != kNoCycle) {
            ASSERT_NE(lt.ready, kNoCycle);
            EXPECT_LE(lt.ready, lt.issue);
            EXPECT_LE(lt.issue, lt.end);
        }
        if (lt.complete != kNoCycle) {
            EXPECT_LE(lt.complete, lt.end);
        }
        if (!lt.squashed) {
            // Retired instructions went through the whole pipeline.
            EXPECT_NE(lt.dispatch, kNoCycle);
            EXPECT_NE(lt.complete, kNoCycle);
        }
    }
    // Dense coverage: every fetched instruction was finalized exactly
    // once (none leaked from the fetch queue, ROB, or scheduler).
    EXPECT_EQ(seqs.size(), static_cast<std::size_t>(max_seq))
        << "finalized seqs are not dense in [1, " << max_seq << "]";
    EXPECT_EQ(*seqs.begin(), 1u);
}

} // namespace

// ---------------------------------------------------------------------
// CpiStack / BlameSet units
// ---------------------------------------------------------------------

TEST(CpiStack, AccumulatesMergesAndPrints)
{
    using C = obs::CpiComponent;
    obs::CpiStack a;
    a.add(C::Base, 3);
    a.add(C::MemLatency);
    EXPECT_EQ(a.value(C::Base), 3u);
    EXPECT_EQ(a.value(C::MemLatency), 1u);
    EXPECT_EQ(a.total(), 4u);

    obs::CpiStack b;
    b.add(C::Base, 2);
    b.add(C::FlushTrue, 5);
    a.mergeFrom(b);
    EXPECT_EQ(a.value(C::Base), 5u);
    EXPECT_EQ(a.value(C::FlushTrue), 5u);
    EXPECT_EQ(a.total(), 11u);

    const std::string s = a.toString();
    EXPECT_NE(s.find("base=5"), std::string::npos);
    EXPECT_NE(s.find("flush_true=5"), std::string::npos);
    // Zero components stay out of the rendering.
    EXPECT_EQ(s.find("watchdog_stall"), std::string::npos);
}

TEST(CpiStack, ComponentNamesAreUniqueAndNonEmpty)
{
    std::set<std::string> names;
    for (std::size_t i = 0; i < obs::kCpiComponentCount; ++i) {
        const std::string n =
            obs::cpiComponentName(static_cast<obs::CpiComponent>(i));
        EXPECT_FALSE(n.empty());
        EXPECT_TRUE(names.insert(n).second) << "duplicate name " << n;
    }
}

TEST(BlameSet, RecordsAndMerges)
{
    using F = obs::FlushCause;
    obs::BlameSet a;
    a.recordFlush(F::MemDepTrue, 12);
    a.recordFlush(F::MemDepTrue, 8);
    a.addRefetchCycle(F::MemDepTrue);
    a.recordFlush(F::Branch, 3);

    EXPECT_EQ(a.record(F::MemDepTrue).flushes, 2u);
    EXPECT_EQ(a.record(F::MemDepTrue).squashed_insts, 20u);
    EXPECT_EQ(a.record(F::MemDepTrue).refetch_cycles, 1u);
    EXPECT_EQ(a.totalFlushes(), 3u);
    EXPECT_EQ(a.totalSquashed(), 23u);
    EXPECT_EQ(a.totalRefetchCycles(), 1u);

    obs::BlameSet b;
    b.recordFlush(F::MemDepAnti, 1);
    a.mergeFrom(b);
    EXPECT_EQ(a.totalFlushes(), 4u);
    EXPECT_NE(a.toString().find("mem_dep_true"), std::string::npos);
}

// ---------------------------------------------------------------------
// The exact slot identity, on every sweep config
// ---------------------------------------------------------------------

TEST(CpiIdentity, HoldsExactlyForEverySweepConfig)
{
    for (const std::string &sweep : campaign::sweepNames()) {
        // paper runs exactly the points of the table sweeps below.
        if (sweep == "paper")
            continue;
        campaign::SweepOptions sopts;
        sopts.scale = 1;
        sopts.fault_iters = 500;
        // The micro sweep reads its corpus from the source tree.
        sopts.corpus_dir = SLF_TEST_MICRO_DIR;
        // One analog keeps the analog sweeps fast; the assoc, fault,
        // micro and screen sweeps run their own full workload lists.
        if (sweep != "assoc" && sweep != "fault" && sweep != "micro" &&
            sweep != "screen")
            sopts.bench_filter = "gzip";

        const campaign::Campaign c = campaign::makeSweep(sweep, sopts);
        ASSERT_GT(c.jobCount(), 0u) << sweep;

        campaign::CampaignOptions copts;
        copts.jobs = 2;
        copts.progress = false;
        const auto results = c.run(copts);

        std::set<std::string> configs_seen;
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (!results[i].ok())
                continue;   // fault sweep: a wedge is the job's result
            const SimResult &r = results[i].result;
            const unsigned width = c.jobs()[i].cfg.width;
            configs_seen.insert(results[i].config_name);

            EXPECT_EQ(componentSum(r.cpi), r.cpi.total())
                << sweep << " job " << i;
            EXPECT_EQ(r.cpi.total(), r.cycles * width)
                << sweep << " job " << i << " ("
                << results[i].config_name << "/" << results[i].workload
                << ")";
            EXPECT_EQ(r.cpi.value(obs::CpiComponent::Base), r.insts)
                << sweep << " job " << i;
        }
        EXPECT_FALSE(configs_seen.empty()) << sweep;
    }
}

// ---------------------------------------------------------------------
// Fig5 attribution: the ENF-vs-ideal gap is accounted for
// ---------------------------------------------------------------------

TEST(Fig5Attribution, StallAndBlameSectionsCoverTheIpcGap)
{
    campaign::SweepOptions sopts;
    sopts.scale = 1;
    sopts.bench_filter = "gzip";
    const campaign::Campaign c = campaign::makeSweep("fig5", sopts);

    campaign::CampaignOptions copts;
    copts.jobs = 3;
    copts.progress = false;
    const auto results = c.run(copts);

    std::map<std::string, const SimResult *> by_config;
    for (const auto &jr : results) {
        ASSERT_TRUE(jr.ok()) << jr.error;
        by_config[jr.config_name] = &jr.result;
    }
    ASSERT_TRUE(by_config.count("lsq48x32"));
    ASSERT_TRUE(by_config.count("enf"));
    ASSERT_TRUE(by_config.count("notenf"));
    const SimResult &ideal = *by_config["lsq48x32"];
    const SimResult &notenf = *by_config["notenf"];

    // Same program retired on both configs -> identical base.
    ASSERT_EQ(notenf.insts, ideal.insts);
    ASSERT_GT(notenf.cycles, ideal.cycles)
        << "NOT-ENF stopped losing to the ideal LSQ on gzip";

    // The acceptance bound: the attribution sections account for at
    // least 95% of the cycle difference between the two configs. With
    // base pinned to the retired count the stall-delta coverage is
    // exact, so 95% leaves room only for genuine regressions.
    const std::uint64_t gap_slots =
        notenf.cpi.total() - ideal.cpi.total();
    const std::uint64_t stall_delta =
        stallSlots(notenf.cpi) - stallSlots(ideal.cpi);
    ASSERT_GT(gap_slots, 0u);
    EXPECT_GE(double(stall_delta), 0.95 * double(gap_slots));
    EXPECT_LE(double(stall_delta), 1.05 * double(gap_slots));

    // The gap is the paper's story: NOT-ENF pays for memory-ordering
    // violation flushes the ENF predictor avoids.
    EXPECT_GT(notenf.cpi.value(obs::CpiComponent::FlushTrue), 0u);

    // Blame cross-checks: flush counts agree with the core counters,
    // and every refetch cycle classified into a flush component is
    // backed by a blame record.
    using F = obs::FlushCause;
    EXPECT_EQ(notenf.blame.record(F::MemDepTrue).flushes,
              notenf.flushes_true);
    EXPECT_EQ(notenf.blame.record(F::MemDepAnti).flushes,
              notenf.flushes_anti);
    EXPECT_EQ(notenf.blame.record(F::MemDepOutput).flushes,
              notenf.flushes_output);
    EXPECT_GT(notenf.blame.record(F::MemDepTrue).squashed_insts, 0u);
    EXPECT_GT(notenf.blame.record(F::MemDepTrue).refetch_cycles, 0u);
}

// ---------------------------------------------------------------------
// Lifetime finalization through the squash paths (no leaked records)
// ---------------------------------------------------------------------

TEST(LifetimeFinalization, CleanRunFinalizesEveryInstruction)
{
    obs::LifetimeSink sink;
    CoreConfig cfg = CoreConfig::baseline();
    cfg.obs.lifetime = &sink;
    const Program prog = workloads::microStreaming(300);
    OooCore core(cfg, prog);
    core.run();
    ASSERT_TRUE(core.finished());

    checkLifetimesFinalized(sink);
    // A handful of predictor-warmup mispredicts squash a few fetches;
    // everything that retired must have a record.
    EXPECT_EQ(sink.retired(), core.instsRetired());
    EXPECT_EQ(sink.retired() + sink.squashed(), sink.records().size());
}

TEST(LifetimeFinalization, SquashAtRobHeadViaValueReplayRetireFlush)
{
    // Value-replay subsystem: a failed retirement-time value check
    // flushes from the ROB head itself — the squash-at-head edge case.
    obs::LifetimeSink sink;
    CoreConfig cfg = CoreConfig::baseline();
    cfg.subsys = MemSubsystem::ValueReplay;
    cfg.obs.lifetime = &sink;
    const Program prog = workloads::microTrueViolations(400);
    OooCore core(cfg, prog);
    core.run();
    ASSERT_TRUE(core.finished());

    EXPECT_GT(core.squashCount(), 0u)
        << "workload failed to force a retirement-time flush";
    checkLifetimesFinalized(sink);
    EXPECT_GT(sink.squashed(), 0u);
    EXPECT_EQ(sink.retired(), core.instsRetired());

    std::string why;
    EXPECT_TRUE(core.checkInvariants(&why)) << why;
}

TEST(LifetimeFinalization, SquashOfAlreadyReplayingLoadIsFinalized)
{
    // MDT/SFC with enforcement: loads replay on conflicts and can be
    // squashed mid-replay by an ordering-violation flush. The record
    // must still be finalized (with its replay count), not leaked from
    // the scheduler map.
    obs::LifetimeSink sink;
    // The corruption example keeps SFC lines corrupt (loads bounce
    // into replay) while its mispredicting branches keep flushing, so
    // squashes reliably catch loads mid-replay.
    CoreConfig cfg = CoreConfig::baseline();
    cfg.obs.lifetime = &sink;
    const Program prog = workloads::microCorruptionExample(600);
    OooCore core(cfg, prog);
    core.run();
    ASSERT_TRUE(core.finished());

    EXPECT_GT(core.squashCount(), 0u);
    checkLifetimesFinalized(sink);

    bool saw_replaying_squash = false;
    for (const obs::InstLifetime &lt : sink.records())
        if (lt.squashed && lt.replays > 0)
            saw_replaying_squash = true;
    EXPECT_TRUE(saw_replaying_squash)
        << "no squashed instruction had a pending replay";
}

TEST(LifetimeFinalization, BackToBackSquashesBumpEpochAndFinalize)
{
    obs::LifetimeSink sink;
    CoreConfig cfg = CoreConfig::baseline();
    cfg.obs.lifetime = &sink;
    const Program prog = workloads::microOutputViolations(800);
    OooCore core(cfg, prog);
    core.run();
    ASSERT_TRUE(core.finished());

    // The workload forces repeated violation flushes: each nonempty
    // squash bumps the epoch exactly once.
    EXPECT_GE(core.squashCount(), 2u);
    checkLifetimesFinalized(sink);
    EXPECT_GT(sink.squashed(), 0u);
    EXPECT_EQ(sink.retired(), core.instsRetired());

    std::string why;
    EXPECT_TRUE(core.checkInvariants(&why)) << why;
}

TEST(LifetimeFinalization, SinkCapacityDropsInsteadOfGrowing)
{
    obs::LifetimeSink sink(/*capacity=*/8);
    CoreConfig cfg = CoreConfig::baseline();
    cfg.obs.lifetime = &sink;
    const Program prog = workloads::microStreaming(100);
    OooCore core(cfg, prog);
    core.run();

    EXPECT_EQ(sink.records().size(), 8u);
    EXPECT_GT(sink.dropped(), 0u);
}

// ---------------------------------------------------------------------
// Konata export
// ---------------------------------------------------------------------

TEST(Konata, ExportsValidStructureForARealRun)
{
    obs::LifetimeSink sink;
    CoreConfig cfg = CoreConfig::baseline();
    cfg.obs.lifetime = &sink;
    const Program prog = workloads::microForwardChain(50);
    OooCore core(cfg, prog);
    core.run();
    ASSERT_TRUE(core.finished());

    const std::string kon = obs::toKonata(sink);
    EXPECT_EQ(kon.rfind("Kanata\t0004\n", 0), 0u)
        << "missing format header";
    EXPECT_NE(kon.find("\nC=\t"), std::string::npos)
        << "missing initial cycle line";
    // One I (new instruction) and one R (retire/flush) line per record.
    std::size_t i_lines = 0, r_lines = 0, pos = 0;
    while ((pos = kon.find('\n', pos)) != std::string::npos) {
        ++pos;
        if (kon.compare(pos, 2, "I\t") == 0)
            ++i_lines;
        if (kon.compare(pos, 2, "R\t") == 0)
            ++r_lines;
    }
    EXPECT_EQ(i_lines, sink.records().size());
    EXPECT_EQ(r_lines, sink.records().size());
    // Stage starts for fetch and retire-visible milestones.
    EXPECT_NE(kon.find("\tF\n"), std::string::npos);
    EXPECT_NE(kon.find("\tCm\n"), std::string::npos);
}

TEST(Konata, ExportIsDeterministic)
{
    auto capture = [] {
        obs::LifetimeSink sink;
        CoreConfig cfg = CoreConfig::baseline();
        cfg.obs.lifetime = &sink;
        const Program prog = workloads::microCorruptionExample(200);
        OooCore core(cfg, prog);
        core.run();
        return obs::toKonata(sink);
    };
    EXPECT_EQ(capture(), capture());
}

TEST(Konata, SquashedInstructionsFlushInsteadOfRetire)
{
    obs::LifetimeSink sink;
    CoreConfig cfg = CoreConfig::baseline();
    cfg.obs.lifetime = &sink;
    const Program prog = workloads::microTrueViolations(300);
    OooCore core(cfg, prog);
    core.run();
    ASSERT_GT(sink.squashed(), 0u);

    // R-line type 1 == flush in the Kanata format.
    const std::string kon = obs::toKonata(sink);
    std::size_t flush_r = 0;
    std::istringstream is(kon);
    std::string line;
    while (std::getline(is, line))
        if (line.rfind("R\t", 0) == 0 &&
            line.compare(line.size() - 2, 2, "\t1") == 0)
            ++flush_r;
    EXPECT_EQ(flush_r, sink.squashed());
}
