/**
 * @file
 * InstRing: one window ring whose head segment is the ROB and whose
 * tail segment is the fetch queue. An instruction is built in its slot
 * at fetch and keeps it through dispatch until it retires or is
 * squashed.
 */

#include <gtest/gtest.h>

#include <vector>

#include "cpu/inst_ring.hh"

using namespace slf;

namespace
{

DynInst &
fetch(InstRing &ring, SeqNum seq)
{
    DynInst &d = ring.push_back();
    d.seq = seq;
    return d;
}

} // namespace

TEST(InstRing, CapacityRoundsUpToAPowerOfTwo)
{
    EXPECT_EQ(InstRing(144).capacity(), 256u);
    EXPECT_EQ(InstRing(1040).capacity(), 2048u);
    EXPECT_EQ(InstRing(4).capacity(), 4u);
}

TEST(InstRing, FetchDispatchRetireKeepOneSlot)
{
    InstRing ring(4);
    DynInst *a = &fetch(ring, 1);
    DynInst *b = &fetch(ring, 2);
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.robSize(), 0u);
    EXPECT_EQ(ring.fetchSize(), 2u);
    EXPECT_EQ(&ring.fetchFront(), a);
    const std::size_t slot_a = ring.slotIndex(0);
    const std::size_t slot_b = ring.slotIndex(1);

    ring.dispatch();
    EXPECT_EQ(ring.robSize(), 1u);
    EXPECT_EQ(ring.fetchSize(), 1u);
    EXPECT_EQ(&ring.front(), a);
    EXPECT_EQ(&ring.fetchFront(), b);
    ring.dispatch();
    EXPECT_EQ(ring.robSize(), 2u);
    EXPECT_EQ(ring.fetchSize(), 0u);

    // Dispatch moved no instruction: same addresses, same slots.
    EXPECT_EQ(&ring.atSlot(slot_a), a);
    EXPECT_EQ(&ring.atSlot(slot_b), b);
    EXPECT_EQ(ring.slotIndex(1), slot_b);

    ring.pop_front();
    EXPECT_EQ(a->seq, kInvalidSeqNum) << "retired slot not poisoned";
    EXPECT_EQ(ring.robSize(), 1u);
    EXPECT_EQ(&ring.front(), b);
    EXPECT_EQ(ring.slotIndex(0), slot_b);
}

TEST(InstRing, FetchStartsFromAFreshSlot)
{
    InstRing ring(2);
    DynInst &d = fetch(ring, 1);
    d.in_scheduler = true;
    d.completed = true;
    d.result = 42;
    ring.dispatch();
    ring.pop_front();
    fetch(ring, 2);
    DynInst &reused = fetch(ring, 3);   // wraps onto the first slot
    EXPECT_EQ(&reused, &d);
    EXPECT_FALSE(reused.in_scheduler);
    EXPECT_FALSE(reused.completed);
    EXPECT_EQ(reused.result, 0u);
    EXPECT_EQ(reused.dispatch_cycle, kNoCycle);
}

TEST(InstRing, SquashPopsTheFetchSegmentThenTheRob)
{
    InstRing ring(8);
    for (SeqNum s = 1; s <= 5; ++s)
        fetch(ring, s);
    ring.dispatch();
    ring.dispatch();
    ring.dispatch();   // ROB: 1 2 3, fetch: 4 5
    ASSERT_EQ(ring.robSize(), 3u);
    EXPECT_EQ(ring.lowerBound(3), 2u);
    EXPECT_EQ(ring.lowerBound(5), 4u);
    EXPECT_EQ(ring.lowerBound(6), 5u);

    // Squash from seq 3: two fetch residents, then one ROB resident.
    DynInst *three = &ring[2];
    while (!ring.empty() && ring.back().seq >= 3)
        ring.pop_back();
    EXPECT_EQ(ring.size(), 2u);
    EXPECT_EQ(ring.robSize(), 2u);
    EXPECT_EQ(ring.fetchSize(), 0u);
    EXPECT_EQ(three->seq, kInvalidSeqNum) << "squashed slot not poisoned";
    EXPECT_EQ(ring.back().seq, 2u);

    // Fetch resumes right behind the surviving ROB segment.
    fetch(ring, 6);
    EXPECT_EQ(ring.fetchSize(), 1u);
    EXPECT_EQ(ring.fetchFront().seq, 6u);
    EXPECT_EQ(&ring.fetchFront(), three);
}

TEST(InstRing, SlotIsFixedFromFetchToRetireAcrossWrapAround)
{
    // Steady state of a 4-slot window (ROB <= 2, fetch <= 2) for many
    // laps: each instruction's address and slot index at retire are the
    // ones it was fetched into.
    InstRing ring(4);
    std::vector<DynInst *> at_fetch;
    std::vector<std::size_t> slot_at_fetch;
    SeqNum next = 1, retire = 1;
    for (int cycle = 0; cycle < 64; ++cycle) {
        if (ring.robSize() > 0) {
            ASSERT_EQ(ring.front().seq, retire);
            ASSERT_EQ(&ring.front(), at_fetch[retire]);
            ASSERT_EQ(ring.slotIndex(0), slot_at_fetch[retire]);
            ring.pop_front();
            ++retire;
        }
        if (ring.fetchSize() > 0 && ring.robSize() < 2)
            ring.dispatch();
        while (ring.fetchSize() < 2 && ring.size() < ring.capacity()) {
            if (at_fetch.empty()) {
                at_fetch.push_back(nullptr);   // seqs start at 1
                slot_at_fetch.push_back(0);
            }
            at_fetch.push_back(&fetch(ring, next++));
            slot_at_fetch.push_back(ring.slotIndex(ring.size() - 1));
        }
    }
    EXPECT_GT(retire, 2 * ring.capacity()) << "the ring never wrapped";
}
