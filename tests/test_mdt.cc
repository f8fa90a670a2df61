/** @file Unit tests for the Memory Disambiguation Table. */

#include <gtest/gtest.h>

#include "core/mdt.hh"
#include "sim/logging.hh"

using namespace slf;

namespace
{

MdtParams
smallParams()
{
    MdtParams p;
    p.sets = 16;
    p.assoc = 2;
    p.granularity = 8;
    p.tagged = true;
    return p;
}

} // namespace

TEST(Mdt, InOrderAccessesCauseNoViolations)
{
    Mdt mdt(smallParams());
    mdt.setOldestInflight(1);
    EXPECT_EQ(mdt.accessStore(0x100, 8, 1, 10).status,
              MdtAccess::Status::Ok);
    EXPECT_EQ(mdt.accessLoad(0x100, 8, 2, 11).status,
              MdtAccess::Status::Ok);
    EXPECT_EQ(mdt.accessStore(0x100, 8, 3, 12).status,
              MdtAccess::Status::Ok);
}

TEST(Mdt, TrueViolationWhenStoreCompletesAfterYoungerLoad)
{
    Mdt mdt(smallParams());
    mdt.setOldestInflight(1);
    mdt.accessLoad(0x100, 8, /*seq*/ 5, /*pc*/ 50);
    const MdtAccess r = mdt.accessStore(0x100, 8, /*seq*/ 3, /*pc*/ 30);
    ASSERT_EQ(r.status, MdtAccess::Status::Violation);
    EXPECT_EQ(r.kind, DepKind::True);
    EXPECT_EQ(r.producer_pc, 30u);
    EXPECT_EQ(r.consumer_pc, 50u);
    EXPECT_EQ(r.squash_from, 4u);   // conservative: after the store
}

TEST(Mdt, AntiViolationWhenLoadCompletesAfterYoungerStore)
{
    Mdt mdt(smallParams());
    mdt.setOldestInflight(1);
    mdt.accessStore(0x100, 8, /*seq*/ 7, /*pc*/ 70);
    const MdtAccess r = mdt.accessLoad(0x100, 8, /*seq*/ 4, /*pc*/ 40);
    ASSERT_EQ(r.status, MdtAccess::Status::Violation);
    EXPECT_EQ(r.kind, DepKind::Anti);
    EXPECT_EQ(r.producer_pc, 40u);   // the earlier load
    EXPECT_EQ(r.consumer_pc, 70u);   // the later store
    EXPECT_EQ(r.squash_from, 4u);    // the load itself is flushed
}

TEST(Mdt, OutputViolationWhenStoresCompleteOutOfOrder)
{
    Mdt mdt(smallParams());
    mdt.setOldestInflight(1);
    mdt.accessStore(0x100, 8, /*seq*/ 9, /*pc*/ 90);
    const MdtAccess r = mdt.accessStore(0x100, 8, /*seq*/ 6, /*pc*/ 60);
    ASSERT_EQ(r.status, MdtAccess::Status::Violation);
    EXPECT_EQ(r.kind, DepKind::Output);
    EXPECT_EQ(r.producer_pc, 60u);
    EXPECT_EQ(r.consumer_pc, 90u);
    EXPECT_EQ(r.squash_from, 7u);
}

TEST(Mdt, SimultaneousTrueAndOutputReportsBoth)
{
    Mdt mdt(smallParams());
    mdt.setOldestInflight(1);
    // Load first, then a younger store (in order relative to each
    // other), so both entry fields are populated without tripping the
    // anti check; then a much older store completes against both.
    mdt.accessLoad(0x100, 8, 8, 80);
    mdt.accessStore(0x100, 8, 9, 90);
    const MdtAccess r = mdt.accessStore(0x100, 8, 2, 20);
    ASSERT_EQ(r.status, MdtAccess::Status::Violation);
    EXPECT_EQ(r.kind, DepKind::True);
    ASSERT_TRUE(r.has_secondary);
    EXPECT_EQ(r.kind2, DepKind::Output);
    EXPECT_EQ(r.consumer2_pc, 90u);
    EXPECT_EQ(r.squash_from, 3u);
}

TEST(Mdt, ReAccessWithSameSeqIsIdempotent)
{
    // A store that replayed in the SFC re-runs its MDT access with the
    // same sequence number; that must not self-detect a violation.
    Mdt mdt(smallParams());
    mdt.setOldestInflight(1);
    EXPECT_EQ(mdt.accessStore(0x100, 8, 5, 50).status,
              MdtAccess::Status::Ok);
    EXPECT_EQ(mdt.accessStore(0x100, 8, 5, 50).status,
              MdtAccess::Status::Ok);
    EXPECT_EQ(mdt.accessLoad(0x100, 8, 6, 60).status,
              MdtAccess::Status::Ok);
    EXPECT_EQ(mdt.accessLoad(0x100, 8, 6, 60).status,
              MdtAccess::Status::Ok);
}

TEST(Mdt, LoadSeqTracksLatestOnly)
{
    Mdt mdt(smallParams());
    mdt.setOldestInflight(1);
    mdt.accessLoad(0x100, 8, 5, 50);
    mdt.accessLoad(0x100, 8, 3, 30);   // older load: entry unchanged
    // A store younger than 3 but older than 5 still violates against 5.
    const MdtAccess r = mdt.accessStore(0x100, 8, 4, 40);
    ASSERT_EQ(r.status, MdtAccess::Status::Violation);
    EXPECT_EQ(r.consumer_pc, 50u);
}

TEST(Mdt, RetireLoadFreesEntryOnExactMatch)
{
    Mdt mdt(smallParams());
    mdt.setOldestInflight(1);
    mdt.accessLoad(0x100, 8, 5, 50);
    EXPECT_EQ(mdt.validEntries(), 1u);
    mdt.retireLoad(0x100, 8, 5);
    EXPECT_EQ(mdt.validEntries(), 0u);
}

TEST(Mdt, RetireLoadKeepsEntryWhileStorePending)
{
    Mdt mdt(smallParams());
    mdt.setOldestInflight(1);
    mdt.accessLoad(0x100, 8, 5, 50);
    mdt.accessStore(0x100, 8, 6, 60);
    mdt.retireLoad(0x100, 8, 5);
    EXPECT_EQ(mdt.validEntries(), 1u);   // store side still valid
    EXPECT_TRUE(mdt.retireStore(0x100, 8, 6));
    EXPECT_EQ(mdt.validEntries(), 0u);
}

TEST(Mdt, RetireMismatchedSeqDoesNotInvalidate)
{
    Mdt mdt(smallParams());
    mdt.setOldestInflight(1);
    mdt.accessLoad(0x100, 8, 5, 50);
    mdt.retireLoad(0x100, 8, 3);   // an older load retires
    EXPECT_EQ(mdt.validEntries(), 1u);
}

TEST(Mdt, RetireStoreReportsWhetherLatest)
{
    Mdt mdt(smallParams());
    mdt.setOldestInflight(1);
    mdt.accessStore(0x100, 8, 5, 50);
    mdt.accessStore(0x100, 8, 7, 70);
    EXPECT_FALSE(mdt.retireStore(0x100, 8, 5));   // 7 is newer
    EXPECT_TRUE(mdt.retireStore(0x100, 8, 7));
}

TEST(Mdt, SetConflictReturnsConflict)
{
    MdtParams p = smallParams();
    p.sets = 2;
    p.assoc = 2;
    Mdt mdt(p);
    mdt.setOldestInflight(1);
    // Three live blocks mapping to set 0 (block stride = 2 sets).
    EXPECT_EQ(mdt.accessLoad(0 * 16, 8, 3, 1).status,
              MdtAccess::Status::Ok);
    EXPECT_EQ(mdt.accessLoad(1 * 16, 8, 4, 2).status,
              MdtAccess::Status::Ok);
    EXPECT_EQ(mdt.accessLoad(2 * 16, 8, 5, 3).status,
              MdtAccess::Status::Conflict);
    EXPECT_EQ(mdt.statValue(obs::MdtStat::SetConflicts), 1u);
}

TEST(Mdt, ConflictScavengesDeadWays)
{
    MdtParams p = smallParams();
    p.sets = 2;
    p.assoc = 2;
    Mdt mdt(p);
    mdt.setOldestInflight(1);
    mdt.accessLoad(0 * 16, 8, 3, 1);
    mdt.accessLoad(1 * 16, 8, 4, 2);
    // Both recorded loads are now squashed (oldest in-flight advances
    // past them without retirement): the set must self-clean.
    mdt.setOldestInflight(10);
    EXPECT_EQ(mdt.accessLoad(2 * 16, 8, 11, 3).status,
              MdtAccess::Status::Ok);
    EXPECT_GE(mdt.statValue(obs::MdtStat::ScavengedEntries), 1u);
}

TEST(Mdt, ScavengeSparesLiveWays)
{
    MdtParams p = smallParams();
    p.sets = 2;
    p.assoc = 2;
    Mdt mdt(p);
    mdt.setOldestInflight(1);
    mdt.accessLoad(0 * 16, 8, 3, 1);    // dead after advance
    mdt.accessLoad(1 * 16, 8, 20, 2);   // still live
    mdt.setOldestInflight(10);
    EXPECT_EQ(mdt.accessLoad(2 * 16, 8, 21, 3).status,
              MdtAccess::Status::Ok);    // replaced the dead way
    // Live way must have survived: a store older than it violates.
    const MdtAccess r = mdt.accessStore(1 * 16, 8, 12, 9);
    EXPECT_EQ(r.status, MdtAccess::Status::Violation);
}

TEST(Mdt, GranularityAliasingDetectsSpuriousViolations)
{
    MdtParams p = smallParams();
    p.granularity = 64;
    Mdt mdt(p);
    mdt.setOldestInflight(1);
    // Two disjoint 8-byte accesses within one 64-byte block now alias.
    mdt.accessLoad(0x100, 8, 5, 50);
    const MdtAccess r = mdt.accessStore(0x120, 8, 3, 30);
    EXPECT_EQ(r.status, MdtAccess::Status::Violation);
    EXPECT_EQ(r.kind, DepKind::True);
}

TEST(Mdt, FineGranularityKeepsNeighborsSeparate)
{
    Mdt mdt(smallParams());   // 8-byte granularity
    mdt.setOldestInflight(1);
    mdt.accessLoad(0x100, 8, 5, 50);
    EXPECT_EQ(mdt.accessStore(0x108, 8, 3, 30).status,
              MdtAccess::Status::Ok);
}

TEST(Mdt, MultiBlockAccessChecksEveryBlock)
{
    MdtParams p = smallParams();
    p.granularity = 4;
    Mdt mdt(p);
    mdt.setOldestInflight(1);
    mdt.accessLoad(0x104, 4, 5, 50);
    // An 8-byte store covering 0x100..0x107 touches the load's block.
    const MdtAccess r = mdt.accessStore(0x100, 8, 3, 30);
    EXPECT_EQ(r.status, MdtAccess::Status::Violation);
}

TEST(Mdt, UntaggedMdtAliasesFreely)
{
    MdtParams p = smallParams();
    p.tagged = false;
    p.sets = 4;
    Mdt mdt(p);
    mdt.setOldestInflight(1);
    mdt.accessLoad(0x100, 8, 5, 50);
    // 0x100 + 4 sets * 8 bytes = 0x120 shares the untagged entry.
    const MdtAccess r = mdt.accessStore(0x120, 8, 3, 30);
    EXPECT_EQ(r.status, MdtAccess::Status::Violation);
    // ...and untagged entries never conflict.
    EXPECT_EQ(mdt.accessLoad(0x140, 8, 7, 70).status,
              MdtAccess::Status::Ok);
}

TEST(Mdt, OptimizedTrueRecoveryFlushesFromSingleLoad)
{
    MdtParams p = smallParams();
    p.optimized_true_recovery = true;
    Mdt mdt(p);
    mdt.setOldestInflight(1);
    mdt.accessLoad(0x100, 8, 9, 90);
    const MdtAccess r = mdt.accessStore(0x100, 8, 4, 40);
    ASSERT_EQ(r.status, MdtAccess::Status::Violation);
    EXPECT_EQ(r.squash_from, 9u);   // from the load, not the store
    EXPECT_EQ(mdt.statValue(obs::MdtStat::OptimizedTrueRecoveries), 1u);
}

TEST(Mdt, OptimizedRecoveryConservativeWithTwoLoads)
{
    MdtParams p = smallParams();
    p.optimized_true_recovery = true;
    Mdt mdt(p);
    mdt.setOldestInflight(1);
    mdt.accessLoad(0x100, 8, 8, 80);
    mdt.accessLoad(0x100, 8, 9, 90);
    const MdtAccess r = mdt.accessStore(0x100, 8, 4, 40);
    ASSERT_EQ(r.status, MdtAccess::Status::Violation);
    EXPECT_EQ(r.squash_from, 5u);   // conservative: after the store
}

TEST(Mdt, OptimizedRecoveryCoFireSquashesFromTheStore)
{
    // One completed load and one recorded store, both younger than the
    // completing store: true and output violations co-fire. The single
    // load would let the optimization squash from the load (seq 9), but
    // that spares the younger store (seq 8); the older squash point,
    // right after the completing store, must win.
    MdtParams p = smallParams();
    p.optimized_true_recovery = true;
    Mdt mdt(p);
    mdt.setOldestInflight(1);
    ASSERT_EQ(mdt.accessStore(0x100, 8, 8, 80).status,
              MdtAccess::Status::Ok);
    ASSERT_EQ(mdt.accessLoad(0x100, 8, 9, 90).status,
              MdtAccess::Status::Ok);
    const MdtAccess r = mdt.accessStore(0x100, 8, 4, 40);
    ASSERT_EQ(r.status, MdtAccess::Status::Violation);
    EXPECT_EQ(r.kind, DepKind::True);
    EXPECT_EQ(r.squash_from, 5u);   // seq + 1, not the load's 9
    EXPECT_TRUE(r.has_secondary);
    EXPECT_EQ(r.kind2, DepKind::Output);
    EXPECT_EQ(r.consumer2_pc, 80u);
}

TEST(Mdt, CompletedLoadCountDropsAtRetire)
{
    MdtParams p = smallParams();
    p.optimized_true_recovery = true;
    Mdt mdt(p);
    mdt.setOldestInflight(1);
    mdt.accessLoad(0x100, 8, 8, 80);
    mdt.accessLoad(0x100, 8, 9, 90);
    mdt.retireLoad(0x100, 8, 8);
    // One completed, unretired load remains: optimization applies.
    const MdtAccess r = mdt.accessStore(0x100, 8, 4, 40);
    EXPECT_EQ(r.squash_from, 9u);
}

TEST(Mdt, ResetClearsEverything)
{
    Mdt mdt(smallParams());
    mdt.setOldestInflight(1);
    mdt.accessLoad(0x100, 8, 5, 50);
    mdt.reset();
    EXPECT_EQ(mdt.validEntries(), 0u);
    EXPECT_EQ(mdt.accessStore(0x100, 8, 3, 30).status,
              MdtAccess::Status::Ok);
}

TEST(Mdt, RejectsBadGeometry)
{
    MdtParams p = smallParams();
    p.sets = 3;
    EXPECT_THROW(Mdt m(p), FatalError);
    p = smallParams();
    p.granularity = 6;
    EXPECT_THROW(Mdt m(p), FatalError);
    p = smallParams();
    p.assoc = 0;
    EXPECT_THROW(Mdt m(p), FatalError);
}

// ---------------------------------------------------------------------
// Sequence numbers far up the 64-bit range, and the kInvalidSeqNum
// sentinel. SeqNums are monotonic and never recycled, so long campaigns
// push the timestamps arbitrarily high; the ordering compares and the
// exact-match retirement rule must stay correct there, and an
// invalidated field (sentinel) must never win an ordering compare.
// ---------------------------------------------------------------------

TEST(Mdt, HugeSeqTimestampOrderingStillDetectsViolations)
{
    constexpr SeqNum kBig = ~SeqNum{0} - 64;
    Mdt mdt(smallParams());
    mdt.setOldestInflight(kBig - 8);
    mdt.accessLoad(0x100, 8, kBig + 5, 50);
    const MdtAccess r = mdt.accessStore(0x100, 8, kBig + 3, 30);
    ASSERT_EQ(r.status, MdtAccess::Status::Violation);
    EXPECT_EQ(r.kind, DepKind::True);
    EXPECT_EQ(r.squash_from, kBig + 4);   // store seq + 1, no overflow
}

TEST(Mdt, HugeSeqInOrderAccessesStayClean)
{
    constexpr SeqNum kBig = ~SeqNum{0} - 64;
    Mdt mdt(smallParams());
    mdt.setOldestInflight(kBig - 8);
    EXPECT_EQ(mdt.accessStore(0x100, 8, kBig, 10).status,
              MdtAccess::Status::Ok);
    EXPECT_EQ(mdt.accessLoad(0x100, 8, kBig + 1, 11).status,
              MdtAccess::Status::Ok);
    EXPECT_EQ(mdt.accessStore(0x100, 8, kBig + 2, 12).status,
              MdtAccess::Status::Ok);
}

TEST(Mdt, HugeSeqRetireStillFreesOnExactMatch)
{
    constexpr SeqNum kBig = ~SeqNum{0} - 64;
    Mdt mdt(smallParams());
    mdt.setOldestInflight(kBig - 8);
    mdt.accessLoad(0x100, 8, kBig + 7, 70);
    mdt.retireLoad(0x100, 8, kBig + 6);   // near miss: entry survives
    EXPECT_EQ(mdt.validEntries(), 1u);
    mdt.retireLoad(0x100, 8, kBig + 7);
    EXPECT_EQ(mdt.validEntries(), 0u);
}

TEST(Mdt, InvalidatedLoadFieldDoesNotOrderAgainstStores)
{
    // After the recorded load retires, only the store side of the entry
    // is live. The dead load field (now sentinel-valued) must not take
    // part in ordering: a store older than the *retired* load but newer
    // than nothing live is clean on the true-dependence axis.
    Mdt mdt(smallParams());
    mdt.setOldestInflight(1);
    mdt.accessLoad(0x100, 8, 5, 50);
    mdt.accessStore(0x100, 8, 6, 60);
    mdt.retireLoad(0x100, 8, 5);
    EXPECT_EQ(mdt.validEntries(), 1u);   // store side still pending
    const MdtAccess r = mdt.accessStore(0x100, 8, 4, 40);
    // Output violation against live store 6 — but NOT a true violation
    // against the retired load 5.
    ASSERT_EQ(r.status, MdtAccess::Status::Violation);
    EXPECT_EQ(r.kind, DepKind::Output);
    EXPECT_FALSE(r.has_secondary);
}

TEST(Mdt, InvalidatedStoreFieldDoesNotOrderAgainstLoads)
{
    Mdt mdt(smallParams());
    mdt.setOldestInflight(1);
    mdt.accessLoad(0x100, 8, 7, 70);
    mdt.accessStore(0x100, 8, 8, 80);
    EXPECT_FALSE(mdt.retireStore(0x100, 8, 7));   // mismatch: no-op
    EXPECT_TRUE(mdt.retireStore(0x100, 8, 8));
    EXPECT_EQ(mdt.validEntries(), 1u);   // load side still pending
    // An older load completing now must not anti-violate against the
    // retired (sentinel-valued) store field.
    EXPECT_EQ(mdt.accessLoad(0x100, 8, 3, 30).status,
              MdtAccess::Status::Ok);
}

class MdtGranularitySweep : public ::testing::TestWithParam<unsigned>
{};

TEST_P(MdtGranularitySweep, AccessesWithinOneBlockAlwaysOrdered)
{
    MdtParams p = smallParams();
    p.granularity = GetParam();
    Mdt mdt(p);
    mdt.setOldestInflight(1);
    // Same-byte accesses must be ordered at every granularity.
    mdt.accessLoad(0x200, 1, 9, 90);
    const MdtAccess r = mdt.accessStore(0x200, 1, 4, 40);
    EXPECT_EQ(r.status, MdtAccess::Status::Violation)
        << "granularity " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Granularities, MdtGranularitySweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u, 64u));
