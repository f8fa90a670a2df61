/**
 * @file
 * Recovery-path invariant tests: squashFrom()/recoverViolation() must
 * leave the window bookkeeping (ROB ordering, scheduler map, stall-bit
 * census) consistent, bump the squash epoch exactly once per flush, and
 * never squash the same work twice — all under workloads engineered to
 * force violations.
 */

#include <gtest/gtest.h>

#include <string>

#include "cpu/ooo_core.hh"
#include "driver/runner.hh"
#include "workloads/workloads.hh"

using namespace slf;

namespace
{

/** Tick the core to completion, self-checking invariants as we go. */
void
runWithInvariantChecks(OooCore &core, unsigned check_every = 16)
{
    std::string why;
    std::uint64_t ticks = 0;
    while (core.tick()) {
        if (++ticks % check_every == 0) {
            ASSERT_TRUE(core.checkInvariants(&why)) << why << " at cycle "
                                                    << core.cycles();
        }
    }
    ASSERT_TRUE(core.checkInvariants(&why)) << why;
}

} // namespace

TEST(RecoveryInvariants, CleanRunKeepsWindowConsistent)
{
    const Program prog = workloads::microStreaming(500);
    OooCore core(CoreConfig::baseline(), prog);
    runWithInvariantChecks(core);
    EXPECT_TRUE(core.finished());
}

TEST(RecoveryInvariants, TrueViolationFlushesKeepWindowConsistent)
{
    const Program prog = workloads::microTrueViolations(800);
    OooCore core(CoreConfig::baseline(), prog);
    runWithInvariantChecks(core, 4);
    EXPECT_TRUE(core.finished());

    const std::uint64_t flushes =
        core.coreStats().counterValue("violation_flushes_true");
    EXPECT_GT(flushes, 0u) << "workload failed to force true violations";
    // Every violation flush squashed something, so the epoch advanced.
    EXPECT_GE(core.squashCount(), flushes);
}

TEST(RecoveryInvariants, OutputViolationFlushesKeepWindowConsistent)
{
    const Program prog = workloads::microOutputViolations(800);
    OooCore core(CoreConfig::baseline(), prog);
    runWithInvariantChecks(core, 4);
    EXPECT_TRUE(core.finished());
    EXPECT_GT(core.squashCount(), 0u);
}

TEST(RecoveryInvariants, MispredictRecoveryKeepsWindowConsistent)
{
    const Program prog = workloads::microCorruptionExample(800);
    OooCore core(CoreConfig::baseline(), prog);
    runWithInvariantChecks(core, 4);
    EXPECT_TRUE(core.finished());
    EXPECT_GT(core.coreStats().counterValue("branch_mispredicts"), 0u);
    EXPECT_GT(core.squashCount(), 0u);
}

TEST(RecoveryInvariants, SchedulerDrainsByTheEndOfTheRun)
{
    const Program prog = workloads::microTrueViolations(400);
    OooCore core(CoreConfig::baseline(), prog);
    core.run();
    // A drained run retires everything: no scheduler residents and no
    // stale stall bits may survive (a leak here means a double-squash or
    // a lost map erase somewhere in recovery).
    EXPECT_EQ(core.schedulerSize(), 0u);
    EXPECT_EQ(core.robOccupancy(), 0u);
    std::string why;
    EXPECT_TRUE(core.checkInvariants(&why)) << why;
}

TEST(RecoveryInvariants, SquashHistoryReachesTheChecker)
{
    CoreConfig cfg = CoreConfig::baseline();
    const Program prog = workloads::microTrueViolations(400);
    OooCore core(cfg, prog);
    core.run();
    ASSERT_NE(core.checker(), nullptr);
    // Violation flushes were recorded into the checker's squash ring so
    // any divergence report can cite the recent recovery history.
    EXPECT_GT(core.checker()->stats().counterValue("squashes_seen"), 0u);
}

TEST(RecoveryInvariants, RecoveryIsDeterministic)
{
    const Program prog = workloads::microTrueViolations(600);
    const CoreConfig cfg = CoreConfig::baseline();
    OooCore a(cfg, prog);
    a.run();
    OooCore b(cfg, prog);
    b.run();
    EXPECT_EQ(a.cycles(), b.cycles());
    EXPECT_EQ(a.squashCount(), b.squashCount());
    EXPECT_EQ(a.coreStats().counterValue("violation_flushes_true"),
              b.coreStats().counterValue("violation_flushes_true"));
}

TEST(RecoveryInvariants, ValidationPassesOnBothSubsystemsUnderViolations)
{
    for (MemSubsystem subsys :
         {MemSubsystem::MdtSfc, MemSubsystem::LsqBaseline}) {
        CoreConfig cfg = CoreConfig::baseline();
        cfg.subsys = subsys;
        if (subsys == MemSubsystem::LsqBaseline)
            cfg.memdep.mode = MemDepMode::LsqStoreSet;
        const Program prog = workloads::microTrueViolations(500);
        OooCore core(cfg, prog);
        runWithInvariantChecks(core, 8);
        ASSERT_NE(core.checker(), nullptr);
        EXPECT_TRUE(core.checker()->clean());
    }
}
