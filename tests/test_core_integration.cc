/**
 * @file
 * Integration tests: whole-core runs over micro-workloads on both
 * memory subsystems. Every run implicitly validates all retiring
 * instructions against the lockstep golden model (a mismatch panics),
 * so "the run finishes" is itself a strong correctness statement.
 */

#include <gtest/gtest.h>

#include "cpu/ooo_core.hh"
#include "driver/runner.hh"
#include "prog/builder.hh"
#include "workloads/workloads.hh"

using namespace slf;

namespace
{

CoreConfig
baseCfg(MemSubsystem subsys)
{
    CoreConfig cfg = CoreConfig::baseline();
    cfg.subsys = subsys;
    if (subsys == MemSubsystem::LsqBaseline)
        cfg.memdep.mode = MemDepMode::LsqStoreSet;
    return cfg;
}

} // namespace

class SubsystemTest : public ::testing::TestWithParam<MemSubsystem>
{};

TEST_P(SubsystemTest, AluLoopRunsAtFullValidation)
{
    const Program prog = workloads::microAluLoop(2000);
    const SimResult r = runWorkload(baseCfg(GetParam()), prog);
    EXPECT_GT(r.ipc, 1.0);
    EXPECT_EQ(r.loads_retired, 0u);
}

TEST_P(SubsystemTest, ForwardChainValidates)
{
    const Program prog = workloads::microForwardChain(2000);
    const SimResult r = runWorkload(baseCfg(GetParam()), prog);
    EXPECT_GT(r.ipc, 0.5);
    EXPECT_EQ(r.loads_retired, 4000u);
    EXPECT_EQ(r.stores_retired, 4000u);
}

TEST_P(SubsystemTest, StreamingValidates)
{
    const Program prog = workloads::microStreaming(2000);
    const SimResult r = runWorkload(baseCfg(GetParam()), prog);
    EXPECT_GT(r.insts, 10000u);
}

TEST_P(SubsystemTest, CorruptionScenarioValidates)
{
    const Program prog = workloads::microCorruptionExample(2000);
    const SimResult r = runWorkload(baseCfg(GetParam()), prog);
    EXPECT_GT(r.mispredicts, 50u);   // genuinely unpredictable branch
}

TEST_P(SubsystemTest, OutputViolationWorkloadValidates)
{
    const Program prog = workloads::microOutputViolations(2000);
    runWorkload(baseCfg(GetParam()), prog);   // must not panic
}

TEST_P(SubsystemTest, TrueViolationWorkloadValidates)
{
    const Program prog = workloads::microTrueViolations(2000);
    runWorkload(baseCfg(GetParam()), prog);
}

TEST_P(SubsystemTest, DeterministicAcrossRuns)
{
    const Program prog = workloads::microCorruptionExample(1000);
    const SimResult a = runWorkload(baseCfg(GetParam()), prog);
    const SimResult b = runWorkload(baseCfg(GetParam()), prog);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.insts, b.insts);
    EXPECT_EQ(a.mispredicts, b.mispredicts);
    EXPECT_EQ(a.replays, b.replays);
}

TEST_P(SubsystemTest, MaxInstsStopsTheRun)
{
    const Program prog = workloads::microAluLoop(100000);
    CoreConfig cfg = baseCfg(GetParam());
    cfg.max_insts = 5000;
    const SimResult r = runWorkload(cfg, prog);
    EXPECT_EQ(r.insts, 5000u);
}

TEST_P(SubsystemTest, LargestMaxInstsRunsToHalt)
{
    // No retirement limit at all: the functional stream must not end
    // before the program does.
    const Program prog = workloads::microAluLoop(1000);
    CoreConfig cfg = baseCfg(GetParam());
    cfg.max_insts = ~std::uint64_t{0};
    CoreConfig capped = cfg;
    capped.max_insts = 1'000'000;
    const SimResult r = runWorkload(cfg, prog);
    EXPECT_TRUE(r.checker_clean);
    EXPECT_EQ(r.insts, runWorkload(capped, prog).insts);
    EXPECT_GT(r.insts, 1000u);
}

TEST_P(SubsystemTest, MaxCyclesStopsTheRun)
{
    const Program prog = workloads::microAluLoop(1000000);
    CoreConfig cfg = baseCfg(GetParam());
    cfg.max_cycles = 2000;
    const SimResult r = runWorkload(cfg, prog);
    EXPECT_EQ(r.cycles, 2000u);
}

TEST_P(SubsystemTest, AggressiveConfigValidates)
{
    const Program prog = workloads::microForwardChain(2000);
    CoreConfig cfg = CoreConfig::aggressive();
    cfg.subsys = GetParam();
    if (cfg.subsys == MemSubsystem::LsqBaseline)
        cfg.memdep.mode = MemDepMode::LsqStoreSet;
    const SimResult r = runWorkload(cfg, prog);
    EXPECT_GT(r.ipc, 0.5);
}

INSTANTIATE_TEST_SUITE_P(BothSubsystems, SubsystemTest,
                         ::testing::Values(MemSubsystem::LsqBaseline,
                                           MemSubsystem::MdtSfc),
                         [](const auto &info) {
                             return info.param == MemSubsystem::LsqBaseline
                                        ? "Lsq"
                                        : "MdtSfc";
                         });

TEST(CoreIntegration, SfcForwardsOnForwardChain)
{
    const Program prog = workloads::microForwardChain(2000);
    const SimResult r = runWorkload(baseCfg(MemSubsystem::MdtSfc), prog);
    // Almost every load should hit the in-flight store's SFC entry.
    EXPECT_GT(r.sfc_forwards, r.loads_retired / 2);
}

TEST(CoreIntegration, LsqForwardsOnForwardChain)
{
    const Program prog = workloads::microForwardChain(2000);
    const SimResult r = runWorkload(baseCfg(MemSubsystem::LsqBaseline),
                                    prog);
    EXPECT_GT(r.lsq_forwards, r.loads_retired / 2);
}

TEST(CoreIntegration, OutputViolationsDetectedThenLearned)
{
    const Program prog = workloads::microOutputViolations(3000);
    const SimResult r = runWorkload(baseCfg(MemSubsystem::MdtSfc), prog);
    // The first iterations violate; the producer-set predictor must
    // then order the stores so violations stop.
    EXPECT_GE(r.viol_true + r.viol_output, 1u);
    EXPECT_LT(r.viol_true + r.viol_output, 50u);
}

TEST(CoreIntegration, TrueViolationsDetectedThenLearned)
{
    const Program prog = workloads::microTrueViolations(3000);
    const SimResult r = runWorkload(baseCfg(MemSubsystem::MdtSfc), prog);
    EXPECT_GE(r.viol_true, 1u);
    EXPECT_LT(r.viol_true, 50u);
}

TEST(CoreIntegration, NotEnfKeepsViolating)
{
    // With enforcement limited to true dependences, the output-violation
    // workload flushes continuously (the paper's NOT-ENF behaviour).
    const Program prog = workloads::microOutputViolations(2000);
    CoreConfig enf = baseCfg(MemSubsystem::MdtSfc);
    enf.memdep.mode = MemDepMode::EnforceAll;
    CoreConfig notenf = baseCfg(MemSubsystem::MdtSfc);
    notenf.memdep.mode = MemDepMode::EnforceTrueOnly;
    const SimResult re = runWorkload(enf, prog);
    const SimResult rn = runWorkload(notenf, prog);
    EXPECT_GT(rn.viol_output + rn.viol_true, 10 * (re.viol_output + 1));
    EXPECT_GT(re.ipc, rn.ipc);
}

TEST(CoreIntegration, LsqImmuneToAntiAndOutputViolations)
{
    const Program prog = workloads::microOutputViolations(2000);
    const SimResult r = runWorkload(baseCfg(MemSubsystem::LsqBaseline),
                                    prog);
    EXPECT_EQ(r.viol_anti, 0u);
    EXPECT_EQ(r.viol_output, 0u);
}

TEST(CoreIntegration, OracleReducesMispredictions)
{
    const Program prog = workloads::microCorruptionExample(2000);
    CoreConfig with = baseCfg(MemSubsystem::MdtSfc);
    with.oracle_fix_prob = 0.8;
    CoreConfig without = baseCfg(MemSubsystem::MdtSfc);
    without.oracle_fix_prob = 0.0;
    const SimResult rw = runWorkload(with, prog);
    const SimResult ro = runWorkload(without, prog);
    EXPECT_LT(rw.mispredicts * 2, ro.mispredicts);
    EXPECT_GT(rw.oracle_fixes, 100u);
    EXPECT_EQ(ro.oracle_fixes, 0u);
}

TEST(CoreIntegration, CorruptionReplaysAppearUnderMispredicts)
{
    const Program prog = workloads::microCorruptionExample(3000);
    CoreConfig cfg = baseCfg(MemSubsystem::MdtSfc);
    cfg.oracle_fix_prob = 0.0;   // maximize wrong-path stores
    const SimResult r = runWorkload(cfg, prog);
    EXPECT_GT(r.load_replays_sfc_corrupt, 0u);
}

TEST(CoreIntegration, SmallSfcCausesStoreReplays)
{
    const Program prog = workloads::microStreaming(3000);
    CoreConfig cfg = baseCfg(MemSubsystem::MdtSfc);
    cfg.sfc.sets = 1;
    cfg.sfc.assoc = 1;
    const SimResult r = runWorkload(cfg, prog);
    EXPECT_GT(r.store_replays_sfc_conflict, 0u);
    // Forward progress despite the single-entry SFC (head bypass).
    EXPECT_EQ(r.insts, prog.size() > 0 ? r.insts : 0);
    EXPECT_GT(r.head_bypasses, 0u);
}

TEST(CoreIntegration, SmallMdtCausesLoadReplays)
{
    const Program prog = workloads::microStreaming(3000);
    CoreConfig cfg = baseCfg(MemSubsystem::MdtSfc);
    cfg.mdt.sets = 1;
    cfg.mdt.assoc = 1;
    const SimResult r = runWorkload(cfg, prog);
    EXPECT_GT(r.load_replays_mdt_conflict + r.store_replays_mdt_conflict,
              0u);
}

TEST(CoreIntegration, UntaggedMdtStillValidates)
{
    const Program prog = workloads::microForwardChain(1500);
    CoreConfig cfg = baseCfg(MemSubsystem::MdtSfc);
    cfg.mdt.tagged = false;
    const SimResult r = runWorkload(cfg, prog);
    EXPECT_GT(r.ipc, 0.1);
}

TEST(CoreIntegration, CoarseGranularityMdtValidates)
{
    const Program prog = workloads::microStreaming(1500);
    CoreConfig cfg = baseCfg(MemSubsystem::MdtSfc);
    cfg.mdt.granularity = 64;
    runWorkload(cfg, prog);   // spurious violations allowed, errors not
}

TEST(CoreIntegration, PartialMatchReplayPolicyValidates)
{
    // Sub-word stores + full-word loads exercise partial matches.
    const Program prog = [&] {
        ProgramBuilder b("partial", WorkloadClass::Int);
        b.movi(1, 0x100000);
        b.movi(2, 0x1234);
        b.movi(10, 1500);
        Label top = b.newLabel();
        b.bind(top);
        b.st2(2, 1, 0);
        b.ld8(3, 1, 0);
        b.addi(2, 2, 1);
        b.addi(10, 10, -1);
        b.bne(10, 0, top);
        return b.build();
    }();
    CoreConfig merge = baseCfg(MemSubsystem::MdtSfc);
    merge.partial_match_merges = true;
    CoreConfig replay = baseCfg(MemSubsystem::MdtSfc);
    replay.partial_match_merges = false;
    const SimResult rm = runWorkload(merge, prog);
    const SimResult rr = runWorkload(replay, prog);
    EXPECT_EQ(rm.load_replays_sfc_partial, 0u);
    EXPECT_GT(rr.load_replays_sfc_partial, 0u);
    EXPECT_GE(rm.ipc, rr.ipc);
}

TEST(CoreIntegration, OptimizedTrueRecoveryValidates)
{
    const Program prog = workloads::microTrueViolations(2000);
    CoreConfig cfg = baseCfg(MemSubsystem::MdtSfc);
    cfg.mdt.optimized_true_recovery = true;
    runWorkload(cfg, prog);
}

TEST(CoreIntegration, OutputMarksCorruptPolicyValidates)
{
    const Program prog = workloads::microOutputViolations(2000);
    CoreConfig cfg = baseCfg(MemSubsystem::MdtSfc);
    cfg.output_dep_marks_corrupt = true;
    const SimResult r = runWorkload(cfg, prog);
    EXPECT_EQ(r.flushes_output, 0u);   // policy avoids output flushes
}

TEST(CoreIntegration, StallBitsReduceReplayStorms)
{
    const Program prog = workloads::microStreaming(2000);
    CoreConfig with = baseCfg(MemSubsystem::MdtSfc);
    with.sfc.sets = 1;
    with.sfc.assoc = 1;
    with.stall_bits = true;
    CoreConfig without = with;
    without.stall_bits = false;
    const SimResult rw = runWorkload(with, prog);
    const SimResult ro = runWorkload(without, prog);
    EXPECT_LE(rw.replays, ro.replays);
}

TEST(CoreIntegration, TickInterfaceMatchesRun)
{
    const Program prog = workloads::microAluLoop(500);
    CoreConfig cfg = baseCfg(MemSubsystem::MdtSfc);
    OooCore stepped(cfg, prog);
    while (stepped.tick()) {
    }
    OooCore ran(cfg, prog);
    ran.run();
    EXPECT_EQ(stepped.cycles(), ran.cycles());
    EXPECT_EQ(stepped.instsRetired(), ran.instsRetired());
}

TEST(CoreIntegration, CommittedMemoryMatchesGoldenModel)
{
    const Program prog = workloads::microForwardChain(500);
    CoreConfig cfg = baseCfg(MemSubsystem::MdtSfc);
    OooCore core(cfg, prog);
    core.run();
    FuncSim golden(prog);
    golden.run(1u << 20);
    // Compare the hot region the workload writes.
    for (Addr a = 0x200000; a < 0x200010; ++a) {
        EXPECT_EQ(core.committedMemory().read8(a), golden.memory().read8(a))
            << "addr " << std::hex << a;
    }
}

TEST(CoreIntegration, WidthOneCoreStillCorrect)
{
    const Program prog = workloads::microForwardChain(300);
    CoreConfig cfg = baseCfg(MemSubsystem::MdtSfc);
    cfg.width = 1;
    cfg.num_fus = 1;
    const SimResult r = runWorkload(cfg, prog);
    EXPECT_LE(r.ipc, 1.0);
    EXPECT_GT(r.ipc, 0.1);
}

TEST(CoreIntegration, TinyRobStillCorrect)
{
    const Program prog = workloads::microCorruptionExample(500);
    CoreConfig cfg = baseCfg(MemSubsystem::MdtSfc);
    cfg.rob_entries = 8;
    cfg.sched_entries = 8;
    cfg.fetch_queue_entries = 4;
    runWorkload(cfg, prog);
}
