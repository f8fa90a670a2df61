/** @file Unit tests for the producer-set memory dependence predictor. */

#include <gtest/gtest.h>

#include "pred/memdep.hh"
#include "sim/logging.hh"

using namespace slf;

namespace
{

MemDepParams
smallParams(MemDepMode mode)
{
    MemDepParams p;
    p.table_entries = 256;
    p.num_set_ids = 64;
    p.lfpt_entries = 32;
    p.num_tags = 16;
    p.mode = mode;
    return p;
}

} // namespace

TEST(MemDep, UntrainedInstructionsGetNoTags)
{
    MemDepPredictor pred(smallParams(MemDepMode::EnforceAll));
    const auto lk = pred.dispatch(0x10, true, false);
    ASSERT_TRUE(lk.has_value());
    EXPECT_FALSE(lk->consumed.has_value());
    EXPECT_FALSE(lk->produced.has_value());
}

TEST(MemDep, TrueViolationLinksProducerToConsumer)
{
    MemDepPredictor pred(smallParams(MemDepMode::EnforceAll));
    pred.reportViolation(/*producer*/ 0x10, /*consumer*/ 0x20,
                         DepKind::True);
    // Producer (store at 0x10) now allocates a tag and advertises it.
    const auto prod = pred.dispatch(0x10, false, true);
    ASSERT_TRUE(prod.has_value());
    ASSERT_TRUE(prod->produced.has_value());
    EXPECT_FALSE(prod->consumed.has_value());
    // Consumer (load at 0x20) picks up that tag.
    const auto cons = pred.dispatch(0x20, true, false);
    ASSERT_TRUE(cons.has_value());
    ASSERT_TRUE(cons->consumed.has_value());
    EXPECT_EQ(*cons->consumed, *prod->produced);
}

TEST(MemDep, ConsumerSeesMostRecentlyFetchedProducer)
{
    MemDepPredictor pred(smallParams(MemDepMode::EnforceAll));
    pred.reportViolation(0x10, 0x20, DepKind::True);
    const auto p1 = pred.dispatch(0x10, false, true);
    const auto p2 = pred.dispatch(0x10, false, true);
    const auto cons = pred.dispatch(0x20, true, false);
    ASSERT_TRUE(cons->consumed.has_value());
    EXPECT_EQ(*cons->consumed, *p2->produced);
    EXPECT_NE(*p1->produced, *p2->produced);
}

TEST(MemDep, AntiAndOutputIgnoredInTrueOnlyMode)
{
    MemDepPredictor pred(smallParams(MemDepMode::EnforceTrueOnly));
    pred.reportViolation(0x10, 0x20, DepKind::Anti);
    pred.reportViolation(0x30, 0x40, DepKind::Output);
    EXPECT_FALSE(pred.dispatch(0x10, true, false)->produced.has_value());
    EXPECT_FALSE(pred.dispatch(0x20, false, true)->consumed.has_value());
    EXPECT_FALSE(pred.dispatch(0x30, false, true)->produced.has_value());
}

TEST(MemDep, AntiAndOutputTrainInEnforceAllMode)
{
    MemDepPredictor pred(smallParams(MemDepMode::EnforceAll));
    pred.reportViolation(0x10, 0x20, DepKind::Anti);     // load -> store
    const auto prod = pred.dispatch(0x10, true, false);  // load produces
    ASSERT_TRUE(prod->produced.has_value());
    const auto cons = pred.dispatch(0x20, false, true);  // store consumes
    ASSERT_TRUE(cons->consumed.has_value());
}

TEST(MemDep, LsqModeOnlyStoresProduceOnlyLoadsConsume)
{
    MemDepPredictor pred(smallParams(MemDepMode::LsqStoreSet));
    pred.reportViolation(0x10, 0x20, DepKind::True);
    // A load at the producer PC must not allocate a tag in LSQ mode.
    EXPECT_FALSE(pred.dispatch(0x10, true, false)->produced.has_value());
    // A store at the producer PC does.
    const auto p = pred.dispatch(0x10, false, true);
    ASSERT_TRUE(p->produced.has_value());
    // A store at the consumer PC must not consume.
    EXPECT_FALSE(pred.dispatch(0x20, false, true)->consumed.has_value());
    // A load at the consumer PC does.
    EXPECT_TRUE(pred.dispatch(0x20, true, false)->consumed.has_value());
}

TEST(MemDep, TotalOrderMakesMembersBothRoles)
{
    MemDepPredictor pred(smallParams(MemDepMode::EnforceAllTotalOrder));
    pred.reportViolation(0x10, 0x20, DepKind::Output);
    // The *producer* also consumes in total-order mode.
    const auto first = pred.dispatch(0x20, false, true);   // consumer PC
    ASSERT_TRUE(first->produced.has_value());              // also produces
    const auto second = pred.dispatch(0x10, false, true);
    ASSERT_TRUE(second->consumed.has_value());
    EXPECT_EQ(*second->consumed, *first->produced);
}

TEST(MemDep, SetMergeKeepsSmallerId)
{
    MemDepPredictor pred(smallParams(MemDepMode::EnforceAll));
    pred.reportViolation(0x10, 0x20, DepKind::True);   // set 0
    pred.reportViolation(0x30, 0x40, DepKind::True);   // set 1
    // Merge the two sets via a cross violation.
    pred.reportViolation(0x10, 0x40, DepKind::True);
    // Now a producer at 0x30 (old set 1)... keeps its id, but producers
    // at 0x10 and consumers at 0x40 share the merged (smaller) set: a
    // consumer at 0x40 must chain onto a producer at 0x10.
    const auto prod = pred.dispatch(0x10, false, true);
    const auto cons = pred.dispatch(0x40, true, false);
    ASSERT_TRUE(cons->consumed.has_value());
    EXPECT_EQ(*cons->consumed, *prod->produced);
}

TEST(MemDep, ReleaseTagInvalidatesLfptEntry)
{
    MemDepPredictor pred(smallParams(MemDepMode::EnforceAll));
    pred.reportViolation(0x10, 0x20, DepKind::True);
    const auto prod = pred.dispatch(0x10, false, true);
    pred.releaseTag(*prod->produced);
    // The LFPT entry must be gone: consumers no longer chain onto it.
    const auto cons = pred.dispatch(0x20, true, false);
    EXPECT_FALSE(cons->consumed.has_value());
}

TEST(MemDep, ReleaseDoesNotClobberNewerLfptEntry)
{
    MemDepPredictor pred(smallParams(MemDepMode::EnforceAll));
    pred.reportViolation(0x10, 0x20, DepKind::True);
    const auto p1 = pred.dispatch(0x10, false, true);
    const auto p2 = pred.dispatch(0x10, false, true);   // overwrites LFPT
    pred.releaseTag(*p1->produced);
    const auto cons = pred.dispatch(0x20, true, false);
    ASSERT_TRUE(cons->consumed.has_value());
    EXPECT_EQ(*cons->consumed, *p2->produced);
}

TEST(MemDep, TagExhaustionStallsDispatch)
{
    MemDepParams params = smallParams(MemDepMode::EnforceAll);
    params.num_tags = 2;
    MemDepPredictor pred(params);
    pred.reportViolation(0x10, 0x20, DepKind::True);
    const auto p1 = pred.dispatch(0x10, false, true);
    const auto p2 = pred.dispatch(0x10, false, true);
    ASSERT_TRUE(p1.has_value());
    ASSERT_TRUE(p2.has_value());
    EXPECT_FALSE(pred.dispatch(0x10, false, true).has_value());
    // Releasing one tag unblocks dispatch.
    pred.releaseTag(*p1->produced);
    EXPECT_TRUE(pred.dispatch(0x10, false, true).has_value());
}

TEST(MemDep, FreeTagCountTracksAllocation)
{
    MemDepPredictor pred(smallParams(MemDepMode::EnforceAll));
    EXPECT_EQ(pred.freeTags(), 16u);
    pred.reportViolation(0x10, 0x20, DepKind::True);
    const auto p = pred.dispatch(0x10, false, true);
    EXPECT_EQ(pred.freeTags(), 15u);
    pred.releaseTag(*p->produced);
    EXPECT_EQ(pred.freeTags(), 16u);
}

TEST(MemDep, NonMemoryRolesNeverTagged)
{
    MemDepPredictor pred(smallParams(MemDepMode::EnforceAll));
    pred.reportViolation(0x10, 0x20, DepKind::True);
    const auto lk = pred.dispatch(0x10, false, false);
    EXPECT_FALSE(lk->produced.has_value());
    EXPECT_FALSE(lk->consumed.has_value());
}

TEST(MemDep, ResetClearsTraining)
{
    MemDepPredictor pred(smallParams(MemDepMode::EnforceAll));
    pred.reportViolation(0x10, 0x20, DepKind::True);
    pred.dispatch(0x10, false, true);
    pred.reset();
    EXPECT_EQ(pred.freeTags(), 16u);
    EXPECT_FALSE(pred.dispatch(0x10, false, true)->produced.has_value());
    EXPECT_FALSE(pred.dispatch(0x20, true, false)->consumed.has_value());
}

TEST(MemDep, StatsCountViolationsByKind)
{
    MemDepPredictor pred(smallParams(MemDepMode::EnforceAll));
    pred.reportViolation(1, 2, DepKind::True);
    pred.reportViolation(3, 4, DepKind::Anti);
    pred.reportViolation(5, 6, DepKind::Output);
    pred.reportViolation(7, 8, DepKind::Output);
    EXPECT_EQ(pred.statValue(obs::MemDepStat::ViolationsTrue), 1u);
    EXPECT_EQ(pred.statValue(obs::MemDepStat::ViolationsAnti), 1u);
    EXPECT_EQ(pred.statValue(obs::MemDepStat::ViolationsOutput), 2u);
}

TEST(MemDep, PcAliasingSharesTableEntries)
{
    MemDepParams params = smallParams(MemDepMode::EnforceAll);
    params.table_entries = 16;
    MemDepPredictor pred(params);
    pred.reportViolation(0x3, 0x5, DepKind::True);
    // PC 0x13 aliases PC 0x3 in a 16-entry table.
    EXPECT_TRUE(pred.dispatch(0x13, false, true)->produced.has_value());
}
