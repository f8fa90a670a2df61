/** @file Unit tests for the store FIFO. */

#include <gtest/gtest.h>

#include "core/store_fifo.hh"
#include "sim/logging.hh"
#include "verify/fault_inject.hh"

using namespace slf;

TEST(StoreFifo, AllocateFillRetire)
{
    StoreFifo fifo(4);
    EXPECT_TRUE(fifo.allocate(5));
    fifo.fill(5, 0x100, 8, 0xabcd);
    const StoreFifo::Slot slot = fifo.retireHead(5);
    EXPECT_EQ(slot.addr, 0x100u);
    EXPECT_EQ(slot.size, 8u);
    EXPECT_EQ(slot.value, 0xabcdu);
    EXPECT_TRUE(fifo.empty());
}

TEST(StoreFifo, FullWhenCapacityReached)
{
    StoreFifo fifo(2);
    EXPECT_TRUE(fifo.allocate(1));
    EXPECT_TRUE(fifo.allocate(2));
    EXPECT_TRUE(fifo.full());
    EXPECT_FALSE(fifo.allocate(3));
    fifo.fill(1, 0x10, 8, 0);
    fifo.retireHead(1);
    EXPECT_TRUE(fifo.allocate(3));
}

TEST(StoreFifo, OutOfOrderFillInOrderRetire)
{
    StoreFifo fifo(4);
    fifo.allocate(1);
    fifo.allocate(2);
    fifo.allocate(3);
    fifo.fill(3, 0x30, 4, 3);   // youngest executes first
    fifo.fill(1, 0x10, 4, 1);
    fifo.fill(2, 0x20, 4, 2);
    EXPECT_EQ(fifo.retireHead(1).addr, 0x10u);
    EXPECT_EQ(fifo.retireHead(2).addr, 0x20u);
    EXPECT_EQ(fifo.retireHead(3).addr, 0x30u);
}

TEST(StoreFifo, SquashRemovesYoungerSlots)
{
    StoreFifo fifo(8);
    for (SeqNum s : {2, 4, 6, 8})
        fifo.allocate(s);
    fifo.squashFrom(5);
    EXPECT_EQ(fifo.size(), 2u);
    fifo.fill(2, 0x20, 8, 0);
    EXPECT_EQ(fifo.retireHead(2).seq, 2u);
    EXPECT_EQ(fifo.head().seq, 4u);
}

TEST(StoreFifo, SquashAllLeavesEmpty)
{
    StoreFifo fifo(4);
    fifo.allocate(1);
    fifo.allocate(2);
    fifo.squashFrom(1);
    EXPECT_TRUE(fifo.empty());
}

TEST(StoreFifo, ClearCountsSquashed)
{
    StoreFifo fifo(4);
    fifo.allocate(1);
    fifo.allocate(2);
    fifo.clear();
    EXPECT_TRUE(fifo.empty());
    EXPECT_EQ(fifo.statValue(obs::StoreFifoStat::Squashed), 2u);
}

// The retireHead/allocate bookkeeping breaks are checked invariants
// (fatal() -> catchable FatalError), not aborts: a fault campaign must
// be able to record a wedged configuration and keep going, and silently
// committing from a wrong slot would corrupt architectural memory.

TEST(StoreFifoInvariant, RetireBeforeFillIsFatal)
{
    StoreFifo fifo(4);
    fifo.allocate(3);
    EXPECT_THROW(fifo.retireHead(3), FatalError);
}

TEST(StoreFifoInvariant, OutOfOrderRetireIsFatal)
{
    StoreFifo fifo(4);
    fifo.allocate(1);
    fifo.allocate(2);
    fifo.fill(2, 0x20, 8, 0);
    EXPECT_THROW(fifo.retireHead(2), FatalError);
}

TEST(StoreFifoInvariant, RetireFromEmptyIsFatal)
{
    StoreFifo fifo(4);
    EXPECT_THROW(fifo.retireHead(1), FatalError);
}

TEST(StoreFifoInvariant, NonMonotonicAllocateIsFatal)
{
    StoreFifo fifo(4);
    fifo.allocate(5);
    EXPECT_THROW(fifo.allocate(4), FatalError);
}

TEST(StoreFifoInvariant, SquashBetweenAllocateAndFillLeavesNoStaleSlot)
{
    // A store allocates, executes (fills), and is then squashed before
    // retiring. The next allocation necessarily carries a fresh, larger
    // seq (sequence numbers are never reused), so a later retireHead
    // can never be handed the squashed store's filled payload: either
    // the slot was popped (correct) or, if a squash were ever missed,
    // the seq mismatch trips the fatal() check instead of committing.
    StoreFifo fifo(4);
    fifo.allocate(5);
    fifo.fill(5, 0x50, 8, 0x5555);
    fifo.squashFrom(5);
    EXPECT_TRUE(fifo.empty());

    // Refetched path dispatches a younger store into the drained FIFO.
    fifo.allocate(6);
    EXPECT_EQ(fifo.head().seq, 6u);
    EXPECT_FALSE(fifo.head().data_valid);   // no stale payload survived
    // Retiring it unfilled must trip the invariant, not commit 0x5555.
    EXPECT_THROW(fifo.retireHead(6), FatalError);

    fifo.fill(6, 0x60, 8, 0x6666);
    const StoreFifo::Slot slot = fifo.retireHead(6);
    EXPECT_EQ(slot.value, 0x6666u);
    EXPECT_EQ(slot.addr, 0x60u);
}

TEST(StoreFifoInvariant, PartialSquashKeepsOlderFilledSlots)
{
    StoreFifo fifo(8);
    fifo.allocate(10);
    fifo.allocate(12);
    fifo.fill(12, 0x120, 8, 12);   // younger store executes first
    fifo.squashFrom(11);           // squash lands between 10's
    fifo.fill(10, 0x100, 8, 10);   // allocate and fill
    EXPECT_EQ(fifo.size(), 1u);
    EXPECT_EQ(fifo.retireHead(10).value, 10u);
    EXPECT_TRUE(fifo.empty());
    // Seq 12's filled payload is gone with its slot; retiring it is a
    // checked error, not a stale commit.
    EXPECT_THROW(fifo.retireHead(12), FatalError);
}

TEST(StoreFifoInvariant, InjectedPayloadFaultChangesDrainedValue)
{
    // Drive the retirement-time fault hook the way MdtSfcUnit does:
    // the injector hands back an XOR mask, corruptHeadPayload applies
    // it to the draining slot. rate=1.0 fires on every retirement and
    // the mask always has bit 0 set, so the drained value must differ.
    FaultInjectParams params;
    params.fifo_payload_rate = 1.0;
    FaultInjector injector(params);

    StoreFifo fifo(4);
    fifo.allocate(7);
    fifo.fill(7, 0x70, 8, 0xdead);
    const std::uint64_t mask = injector.onStoreRetire(8);
    ASSERT_NE(mask, 0u);
    ASSERT_TRUE(fifo.corruptHeadPayload(mask));
    const StoreFifo::Slot slot = fifo.retireHead(7);
    EXPECT_EQ(slot.value, 0xdead ^ mask);
    EXPECT_NE(slot.value, 0xdeadu);
    EXPECT_EQ(fifo.statValue(obs::StoreFifoStat::PayloadFaults), 1u);
    EXPECT_EQ(injector.fifoPayloadFaults(), 1u);
}
