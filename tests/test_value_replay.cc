/** @file Tests for the value-based-replay memory ordering unit. */

#include <gtest/gtest.h>

#include "cpu/value_replay_unit.hh"
#include "driver/runner.hh"
#include "workloads/workloads.hh"

using namespace slf;

namespace
{

struct VbrFixture : ::testing::Test
{
    VbrFixture()
        : cfg(makeCfg()),
          caches(cfg.l1i, cfg.l1d, cfg.l2),
          unit(cfg, mem, caches)
    {}

    static CoreConfig
    makeCfg()
    {
        CoreConfig c = CoreConfig::baseline();
        c.subsys = MemSubsystem::ValueReplay;
        c.lsq.lq_entries = 4;
        c.lsq.sq_entries = 4;
        return c;
    }

    DynInst
    makeLoad(SeqNum seq, Addr addr)
    {
        DynInst d;
        d.seq = seq;
        d.pc = seq * 10;
        d.si.op = Op::LD8;
        d.addr = addr;
        d.size = 8;
        return d;
    }

    DynInst
    makeStore(SeqNum seq, Addr addr, std::uint64_t value)
    {
        DynInst d;
        d.seq = seq;
        d.pc = seq * 10;
        d.si.op = Op::ST8;
        d.addr = addr;
        d.size = 8;
        d.store_value = value;
        return d;
    }

    CoreConfig cfg;
    MainMemory mem;
    CacheHierarchy caches;
    ValueReplayUnit unit;
};

} // namespace

TEST_F(VbrFixture, ForwardsFromExecutedOlderStore)
{
    DynInst st = makeStore(5, 0x100, 0x99);
    unit.dispatchStore(st);
    unit.issueStore(st, false);
    DynInst ld = makeLoad(6, 0x100);
    unit.dispatchLoad(ld);
    const MemIssueOutcome lo = unit.issueLoad(ld, false);
    EXPECT_EQ(lo.kind, MemIssueOutcome::Kind::Complete);
    EXPECT_EQ(lo.load_value, 0x99u);
    EXPECT_FALSE(ld.replay_vulnerable);
}

TEST_F(VbrFixture, UnresolvedOlderStoreFlagsVulnerable)
{
    DynInst st = makeStore(5, 0x100, 0x99);
    unit.dispatchStore(st);   // dispatched, never executed
    DynInst ld = makeLoad(6, 0x100);
    unit.dispatchLoad(ld);
    const MemIssueOutcome lo = unit.issueLoad(ld, false);
    EXPECT_EQ(lo.kind, MemIssueOutcome::Kind::Complete);
    EXPECT_EQ(lo.load_value, 0u);   // stale memory
    EXPECT_TRUE(ld.replay_vulnerable);
}

TEST_F(VbrFixture, RetireCheckCatchesWrongValue)
{
    DynInst st = makeStore(5, 0x100, 0x99);
    unit.dispatchStore(st);
    DynInst ld = makeLoad(6, 0x100);
    unit.dispatchLoad(ld);
    const MemIssueOutcome lo = unit.issueLoad(ld, false);
    ld.result = lo.load_value;   // 0: wrong

    // The store executes and retires (commits) before the load retires.
    unit.issueStore(st, false);
    unit.retireStore(st);
    EXPECT_FALSE(unit.retireLoad(ld));
    EXPECT_EQ(unit.statValue(obs::ValueReplayUnitStat::RetireViolations), 1u);
}

TEST_F(VbrFixture, RetireCheckPassesOnSilentStore)
{
    // The elder store writes the value the load already obtained.
    DynInst st = makeStore(5, 0x100, 0);
    unit.dispatchStore(st);
    DynInst ld = makeLoad(6, 0x100);
    unit.dispatchLoad(ld);
    const MemIssueOutcome lo = unit.issueLoad(ld, false);
    ld.result = lo.load_value;
    unit.issueStore(st, false);
    unit.retireStore(st);
    EXPECT_TRUE(unit.retireLoad(ld));
}

TEST_F(VbrFixture, FilteredModeSkipsInvulnerableLoads)
{
    DynInst ld = makeLoad(6, 0x100);
    unit.dispatchLoad(ld);
    const MemIssueOutcome lo = unit.issueLoad(ld, false);
    ld.result = lo.load_value;
    EXPECT_TRUE(unit.retireLoad(ld));
    EXPECT_EQ(unit.statValue(obs::ValueReplayUnitStat::RetireReplays), 0u);
}

TEST_F(VbrFixture, DepHintMakesLaterLoadsWait)
{
    // First encounter: violation trains the hint for this load PC.
    DynInst st = makeStore(5, 0x100, 0x99);
    unit.dispatchStore(st);
    DynInst ld = makeLoad(6, 0x100);
    unit.dispatchLoad(ld);
    ld.result = unit.issueLoad(ld, false).load_value;
    unit.issueStore(st, false);
    unit.retireStore(st);
    ASSERT_FALSE(unit.retireLoad(ld));
    unit.squashFrom(6);

    // Second encounter (same PC): an unresolved older store now makes
    // the load wait instead of speculating.
    DynInst st2 = makeStore(7, 0x100, 0x77);
    unit.dispatchStore(st2);
    DynInst ld2 = makeLoad(8, 0x100);
    ld2.pc = ld.pc;   // same static load
    unit.dispatchLoad(ld2);
    const MemIssueOutcome lo = unit.issueLoad(ld2, false);
    ASSERT_EQ(lo.kind, MemIssueOutcome::Kind::Replay);
    EXPECT_EQ(lo.replay_reason, ReplayReason::DepWait);

    // Once the store executes, the load proceeds and forwards.
    unit.issueStore(st2, false);
    const MemIssueOutcome retry = unit.issueLoad(ld2, false);
    EXPECT_EQ(retry.kind, MemIssueOutcome::Kind::Complete);
    EXPECT_EQ(retry.load_value, 0x77u);
}

TEST_F(VbrFixture, ForwardsFromStoreStraddlingAWordBoundary)
{
    mem.writeBytes(0x108, 0xaaaaaaaaaaaaaaaa, 8);
    DynInst st = makeStore(5, 0x104, 0x8877665544332211);
    unit.dispatchStore(st);
    unit.issueStore(st, false);

    // Bytes 0x108..0x10b come from the store's upper half, the rest
    // from memory.
    DynInst ld = makeLoad(6, 0x108);
    unit.dispatchLoad(ld);
    EXPECT_EQ(unit.issueLoad(ld, false).load_value, 0xaaaaaaaa88776655u);

    // A 4-byte load across the same boundary is fully forwarded.
    DynInst sub = makeLoad(7, 0x106);
    sub.size = 4;
    unit.dispatchLoad(sub);
    EXPECT_EQ(unit.issueLoad(sub, false).load_value, 0x66554433u);
    EXPECT_EQ(unit.statValue(obs::ValueReplayUnitStat::FullForwards), 1u);
}

TEST_F(VbrFixture, YoungestOlderStoreWinsEachByte)
{
    DynInst st1 = makeStore(5, 0x100, 0x1111111111111111);
    DynInst st2 = makeStore(6, 0x102, 0x22222222);
    st2.size = 4;
    DynInst ld = makeLoad(7, 0x100);
    DynInst st3 = makeStore(8, 0x100, 0x3333333333333333);
    unit.dispatchStore(st1);
    unit.dispatchStore(st2);
    unit.dispatchLoad(ld);
    unit.dispatchStore(st3);
    // Execution order is not age order; the younger store st3 never
    // forwards to the older load.
    unit.issueStore(st3, false);
    unit.issueStore(st2, false);
    unit.issueStore(st1, false);

    const MemIssueOutcome lo = unit.issueLoad(ld, false);
    EXPECT_EQ(lo.load_value, 0x1111222222221111u);
    EXPECT_EQ(lo.extra_latency, 0u);
    EXPECT_FALSE(ld.replay_vulnerable);
    EXPECT_EQ(unit.statValue(obs::ValueReplayUnitStat::FullForwards), 1u);
}

TEST_F(VbrFixture, QueueCapacityChecks)
{
    for (SeqNum s = 1; s <= 4; ++s) {
        DynInst ld = makeLoad(s, 0x100);
        unit.dispatchLoad(ld);
    }
    EXPECT_FALSE(unit.canDispatchLoad());
    for (SeqNum s = 5; s <= 8; ++s) {
        DynInst st = makeStore(s, 0x200, 0);
        unit.dispatchStore(st);
    }
    EXPECT_FALSE(unit.canDispatchStore());
    // The core checks capacity first, so an overflow is a simulator bug.
    DynInst ld = makeLoad(9, 0x100);
    EXPECT_DEATH(unit.dispatchLoad(ld), "load queue full");
    DynInst st = makeStore(10, 0x200, 0);
    EXPECT_DEATH(unit.dispatchStore(st), "store queue full");
}

TEST_F(VbrFixture, SquashDropsBothQueues)
{
    DynInst ld = makeLoad(5, 0x100);
    DynInst st = makeStore(6, 0x200, 1);
    unit.dispatchLoad(ld);
    unit.dispatchStore(st);
    unit.squashFrom(5);
    EXPECT_TRUE(unit.canDispatchLoad());
    EXPECT_TRUE(unit.canDispatchStore());
}

// ---------------------------------------------------------------------
// Whole-core runs: the retirement-time check must keep the golden-model
// validation green on the violation-heavy micro workloads.
// ---------------------------------------------------------------------

TEST(ValueReplayCore, TrueViolationWorkloadValidates)
{
    const Program prog = workloads::microTrueViolations(2000);
    CoreConfig cfg = CoreConfig::baseline();
    cfg.subsys = MemSubsystem::ValueReplay;
    const SimResult r = runWorkload(cfg, prog);
    EXPECT_GE(r.viol_true, 1u);   // retirement violations occurred
    EXPECT_GT(r.ipc, 0.1);
}

TEST(ValueReplayCore, OutputViolationWorkloadValidates)
{
    const Program prog = workloads::microOutputViolations(2000);
    CoreConfig cfg = CoreConfig::baseline();
    cfg.subsys = MemSubsystem::ValueReplay;
    runWorkload(cfg, prog);
}

TEST(ValueReplayCore, CorruptionWorkloadValidates)
{
    const Program prog = workloads::microCorruptionExample(2000);
    CoreConfig cfg = CoreConfig::baseline();
    cfg.subsys = MemSubsystem::ValueReplay;
    runWorkload(cfg, prog);
}

TEST(ValueReplayCore, UnfilteredModeValidates)
{
    const Program prog = workloads::microForwardChain(1000);
    CoreConfig cfg = CoreConfig::baseline();
    cfg.subsys = MemSubsystem::ValueReplay;
    cfg.value_replay_filtered = false;
    const SimResult r = runWorkload(cfg, prog);
    EXPECT_GT(r.ipc, 0.1);
}

TEST(ValueReplayCore, AggressiveConfigValidates)
{
    const Program prog = workloads::microTrueViolations(1500);
    CoreConfig cfg = CoreConfig::aggressive();
    cfg.subsys = MemSubsystem::ValueReplay;
    runWorkload(cfg, prog);
}

TEST(ValueReplayCore, DeterministicAcrossRuns)
{
    const Program prog = workloads::microCorruptionExample(800);
    CoreConfig cfg = CoreConfig::baseline();
    cfg.subsys = MemSubsystem::ValueReplay;
    const SimResult a = runWorkload(cfg, prog);
    const SimResult b = runWorkload(cfg, prog);
    EXPECT_EQ(a.cycles, b.cycles);
}
