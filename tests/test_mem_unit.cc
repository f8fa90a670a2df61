/**
 * @file
 * Unit tests for the pluggable memory-ordering units, pinning down the
 * soundness-critical behaviours documented in DESIGN.md Section 6:
 * MDT-before-SFC store ordering, attempt-first head bypass, and the
 * atomic commit of bypassing stores.
 */

#include <gtest/gtest.h>

#include "cpu/mem_unit.hh"

using namespace slf;

namespace
{

struct MdtSfcFixture : ::testing::Test
{
    MdtSfcFixture()
        : cfg(makeCfg()),
          caches(cfg.l1i, cfg.l1d, cfg.l2),
          memdep(cfg.memdep),
          unit(cfg, mem, caches, memdep)
    {
        unit.setOldestInflight(1);
    }

    static CoreConfig
    makeCfg()
    {
        CoreConfig c = CoreConfig::baseline();
        c.sfc.sets = 1;
        c.sfc.assoc = 1;
        c.mdt.sets = 2;
        c.mdt.assoc = 1;
        return c;
    }

    DynInst
    makeLoad(SeqNum seq, Addr addr, unsigned size = 8)
    {
        DynInst d;
        d.seq = seq;
        d.pc = seq * 10;
        d.si.op = Op::LD8;
        d.addr = addr;
        d.size = size;
        return d;
    }

    DynInst
    makeStore(SeqNum seq, Addr addr, std::uint64_t value,
              unsigned size = 8)
    {
        DynInst d;
        d.seq = seq;
        d.pc = seq * 10;
        d.si.op = Op::ST8;
        d.addr = addr;
        d.size = size;
        d.store_value = value;
        return d;
    }

    CoreConfig cfg;
    MainMemory mem;
    CacheHierarchy caches;
    MemDepPredictor memdep;
    MdtSfcUnit unit;
};

} // namespace

TEST_F(MdtSfcFixture, StoreThenLoadForwards)
{
    DynInst st = makeStore(5, 0x100, 0xabcd);
    unit.dispatchStore(st);
    const MemIssueOutcome so = unit.issueStore(st, false);
    EXPECT_EQ(so.kind, MemIssueOutcome::Kind::Complete);
    EXPECT_EQ(so.extra_latency, 1u);   // SFC tag-check cycle

    DynInst ld = makeLoad(6, 0x100);
    unit.dispatchLoad(ld);
    const MemIssueOutcome lo = unit.issueLoad(ld, false);
    EXPECT_EQ(lo.kind, MemIssueOutcome::Kind::Complete);
    EXPECT_EQ(lo.load_value, 0xabcdu);
}

TEST_F(MdtSfcFixture, LoadBeforeElderStoreTripsTrueViolation)
{
    DynInst ld = makeLoad(6, 0x100);
    unit.dispatchLoad(ld);
    EXPECT_EQ(unit.issueLoad(ld, false).kind,
              MemIssueOutcome::Kind::Complete);

    DynInst st = makeStore(5, 0x100, 0x1);
    unit.dispatchStore(st);
    const MemIssueOutcome so = unit.issueStore(st, false);
    ASSERT_EQ(so.kind, MemIssueOutcome::Kind::Violation);
    EXPECT_EQ(so.dep_kind, DepKind::True);
    EXPECT_EQ(so.squash_from, 6u);
}

TEST_F(MdtSfcFixture, ElderLoadAfterYoungerStoreTripsAntiViolation)
{
    DynInst st = makeStore(7, 0x100, 0x1);
    unit.dispatchStore(st);
    EXPECT_EQ(unit.issueStore(st, false).kind,
              MemIssueOutcome::Kind::Complete);

    DynInst ld = makeLoad(5, 0x100);
    unit.dispatchLoad(ld);
    const MemIssueOutcome lo = unit.issueLoad(ld, false);
    ASSERT_EQ(lo.kind, MemIssueOutcome::Kind::Violation);
    EXPECT_EQ(lo.dep_kind, DepKind::Anti);
    EXPECT_EQ(lo.squash_from, 5u);   // the load itself
}

TEST_F(MdtSfcFixture, SfcConflictReplaysStoreButKeepsMdtRegistration)
{
    // All words share the single SFC entry; blocks 0 and 1 map to
    // different MDT sets, so only the SFC conflicts.
    DynInst st1 = makeStore(5, 0x000, 0x1);
    unit.dispatchStore(st1);
    EXPECT_EQ(unit.issueStore(st1, false).kind,
              MemIssueOutcome::Kind::Complete);

    DynInst st2 = makeStore(6, 0x008, 0x2);   // SFC set 0, MDT set 1
    unit.dispatchStore(st2);
    const MemIssueOutcome so = unit.issueStore(st2, false);
    ASSERT_EQ(so.kind, MemIssueOutcome::Kind::Replay);
    EXPECT_EQ(so.replay_reason, ReplayReason::SfcConflict);

    // A younger load to st2's address misses the SFC and reads stale
    // memory — the MDT registration from the conflicted store must
    // still catch this when the store retries.
    DynInst ld = makeLoad(7, 0x008);
    unit.dispatchLoad(ld);
    EXPECT_EQ(unit.issueLoad(ld, false).kind,
              MemIssueOutcome::Kind::Complete);

    // While the SFC still conflicts the store keeps replaying (the
    // violation is re-detected on every retry and reported once the
    // write can land).
    EXPECT_EQ(unit.issueStore(st2, false).kind,
              MemIssueOutcome::Kind::Replay);

    // Drain the blocking entry (st1 retires), then retry: the MDT
    // registration from the first attempt fires the true-dep check.
    unit.retireStore(st1);
    const MemIssueOutcome retry = unit.issueStore(st2, false);
    ASSERT_EQ(retry.kind, MemIssueOutcome::Kind::Violation);
    EXPECT_EQ(retry.dep_kind, DepKind::True);
}

TEST_F(MdtSfcFixture, HeadBypassStoreCommitsImmediately)
{
    // Fill the SFC set so the store conflicts, then issue it at the
    // ROB head: it must become architecturally visible at once.
    DynInst filler = makeStore(4, 0x000, 0x9);
    unit.dispatchStore(filler);
    unit.issueStore(filler, false);

    DynInst st = makeStore(5, 0x020, 0x7777);
    unit.dispatchStore(st);
    const MemIssueOutcome so = unit.issueStore(st, true);
    EXPECT_EQ(so.kind, MemIssueOutcome::Kind::Complete);
    EXPECT_TRUE(st.head_bypassed);
    EXPECT_EQ(mem.readBytes(0x020, 8), 0x7777u);
}

TEST_F(MdtSfcFixture, HeadBypassLoadReadsCommittedMemory)
{
    mem.writeBytes(0x300, 0x42, 8);
    DynInst ld = makeLoad(5, 0x300);
    unit.dispatchLoad(ld);
    const MemIssueOutcome lo = unit.issueLoad(ld, true);
    EXPECT_EQ(lo.kind, MemIssueOutcome::Kind::Complete);
    EXPECT_EQ(lo.load_value, 0x42u);
    EXPECT_TRUE(ld.head_bypassed);
}

TEST_F(MdtSfcFixture, HeadStoreAttemptStillDetectsViolations)
{
    // A younger load completed with a stale value; the elder store then
    // reaches the ROB head. Even at the head, the MDT attempt must run
    // and fire the true-dependence check.
    DynInst ld = makeLoad(6, 0x100);
    unit.dispatchLoad(ld);
    unit.issueLoad(ld, false);

    DynInst st = makeStore(5, 0x100, 0x1);
    unit.dispatchStore(st);
    const MemIssueOutcome so = unit.issueStore(st, true);
    ASSERT_EQ(so.kind, MemIssueOutcome::Kind::Violation);
    EXPECT_EQ(so.dep_kind, DepKind::True);
}

TEST_F(MdtSfcFixture, RetireStoreCommitsFifoHead)
{
    DynInst st = makeStore(5, 0x140, 0xbeef);
    unit.dispatchStore(st);
    unit.issueStore(st, false);
    EXPECT_EQ(mem.readBytes(0x140, 8), 0u);   // not yet architectural
    unit.retireStore(st);
    EXPECT_EQ(mem.readBytes(0x140, 8), 0xbeefu);
}

TEST_F(MdtSfcFixture, PartialFlushPoisonsForwardableData)
{
    DynInst st = makeStore(5, 0x100, 0x1234);
    unit.dispatchStore(st);
    unit.issueStore(st, false);
    unit.onPartialFlush(6, 100);

    DynInst ld = makeLoad(6, 0x100);
    unit.dispatchLoad(ld);
    const MemIssueOutcome lo = unit.issueLoad(ld, false);
    ASSERT_EQ(lo.kind, MemIssueOutcome::Kind::Replay);
    EXPECT_EQ(lo.replay_reason, ReplayReason::SfcCorrupt);
}

TEST_F(MdtSfcFixture, SquashDrainsStoreFifo)
{
    DynInst st1 = makeStore(5, 0x100, 1);
    DynInst st2 = makeStore(6, 0x108, 2);
    unit.dispatchStore(st1);
    unit.dispatchStore(st2);
    unit.squashFrom(6);
    EXPECT_EQ(unit.storeFifo().size(), 1u);
}

TEST_F(MdtSfcFixture, PartialMatchMergesFromMemory)
{
    mem.writeBytes(0x100, 0xffffffffffffffffull, 8);
    DynInst st = makeStore(5, 0x100, 0xaa, 1);
    st.si.op = Op::ST1;
    unit.dispatchStore(st);
    unit.issueStore(st, false);

    DynInst ld = makeLoad(6, 0x100);
    unit.dispatchLoad(ld);
    const MemIssueOutcome lo = unit.issueLoad(ld, false);
    ASSERT_EQ(lo.kind, MemIssueOutcome::Kind::Complete);
    EXPECT_EQ(lo.load_value, 0xffffffffffffffaaull);
}

TEST_F(MdtSfcFixture, ViolationTrainsThePredictor)
{
    DynInst ld = makeLoad(6, 0x100);
    unit.dispatchLoad(ld);
    unit.issueLoad(ld, false);
    DynInst st = makeStore(5, 0x100, 0x1);
    unit.dispatchStore(st);
    unit.issueStore(st, false);
    EXPECT_EQ(memdep.stats().counterValue("violations_true"), 1u);
    EXPECT_EQ(memdep.stats().counterValue("deps_inserted"), 1u);
}

TEST(LsqUnitTest, ForwardAndViolationFlow)
{
    CoreConfig cfg = CoreConfig::baseline();
    cfg.subsys = MemSubsystem::LsqBaseline;
    cfg.memdep.mode = MemDepMode::LsqStoreSet;
    MainMemory mem;
    CacheHierarchy caches(cfg.l1i, cfg.l1d, cfg.l2);
    MemDepPredictor memdep(cfg.memdep);
    LsqUnit unit(cfg, mem, caches, memdep);

    DynInst st;
    st.seq = 5;
    st.pc = 50;
    st.si.op = Op::ST8;
    st.addr = 0x100;
    st.size = 8;
    st.store_value = 0x77;
    DynInst ld;
    ld.seq = 6;
    ld.pc = 60;
    ld.si.op = Op::LD8;
    ld.addr = 0x100;
    ld.size = 8;

    ASSERT_TRUE(unit.canDispatchStore());
    unit.dispatchStore(st);
    unit.dispatchLoad(ld);

    // Load first (stale), then the elder store: violation.
    EXPECT_EQ(unit.issueLoad(ld, false).kind,
              MemIssueOutcome::Kind::Complete);
    const MemIssueOutcome so = unit.issueStore(st, false);
    ASSERT_EQ(so.kind, MemIssueOutcome::Kind::Violation);
    EXPECT_EQ(so.squash_from, 6u);

    // After the squash, the reloaded load forwards correctly.
    unit.squashFrom(6);
    DynInst ld2 = ld;
    ld2.seq = 7;
    unit.dispatchLoad(ld2);
    const MemIssueOutcome lo = unit.issueLoad(ld2, false);
    EXPECT_EQ(lo.kind, MemIssueOutcome::Kind::Complete);
    EXPECT_EQ(lo.load_value, 0x77u);

    unit.retireStore(st);
    EXPECT_EQ(mem.readBytes(0x100, 8), 0x77u);
    unit.retireLoad(ld2);
}

TEST(LsqUnitTest, CapacityChecksMatchQueueSizes)
{
    CoreConfig cfg = CoreConfig::baseline();
    cfg.subsys = MemSubsystem::LsqBaseline;
    cfg.lsq.lq_entries = 2;
    cfg.lsq.sq_entries = 1;
    MainMemory mem;
    CacheHierarchy caches(cfg.l1i, cfg.l1d, cfg.l2);
    MemDepPredictor memdep(cfg.memdep);
    LsqUnit unit(cfg, mem, caches, memdep);

    DynInst a;
    a.seq = 1;
    a.si.op = Op::LD8;
    DynInst b = a;
    b.seq = 2;
    EXPECT_TRUE(unit.canDispatchLoad());
    unit.dispatchLoad(a);
    unit.dispatchLoad(b);
    EXPECT_FALSE(unit.canDispatchLoad());

    DynInst s;
    s.seq = 4;
    s.si.op = Op::ST8;
    EXPECT_TRUE(unit.canDispatchStore());
    unit.dispatchStore(s);
    EXPECT_FALSE(unit.canDispatchStore());
}
