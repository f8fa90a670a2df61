/**
 * @file
 * Store FIFO (paper Sections 1-2): a plain, non-associative queue that
 * buffers stores for in-order, non-speculative retirement into the
 * cache. With the SFC handling forwarding, this is all that remains of
 * the conventional store queue.
 *
 * A store allocates a slot at dispatch, fills in its address/value when
 * it executes, and drains the slot at retirement. Partial flushes pop
 * squashed (younger) entries off the tail.
 */

#ifndef SLFWD_CORE_STORE_FIFO_HH_
#define SLFWD_CORE_STORE_FIFO_HH_

#include <cstdint>
#include <deque>

#include "obs/stat_table.hh"
#include "sim/types.hh"

namespace slf
{

class StoreFifo
{
  public:
    struct Slot
    {
        SeqNum seq = kInvalidSeqNum;
        bool data_valid = false;
        Addr addr = 0;
        unsigned size = 0;
        std::uint64_t value = 0;
    };

    explicit StoreFifo(std::size_t capacity);

    /**
     * Allocate a slot for the store with sequence number @p seq at
     * dispatch. Sequence numbers must arrive in increasing order.
     * @return false if the FIFO is full (dispatch must stall).
     */
    bool allocate(SeqNum seq);

    /** The store executed: record its address and data. */
    void fill(SeqNum seq, Addr addr, unsigned size, std::uint64_t value);

    /**
     * The store at the head retires.
     *
     * The head slot must exist, carry exactly @p seq, and be filled;
     * any breach throws a catchable FatalError (fatal()) — committing
     * from a mismatched or unfilled slot would silently write another
     * store's bytes (sequence numbers are never reused, so a seq match
     * proves the slot belongs to the retiring store).
     * @return the drained slot.
     */
    Slot retireHead(SeqNum seq);

    /** Squash every slot with sequence number >= @p seq. */
    void squashFrom(SeqNum seq);

    /** Drop everything. */
    void clear();

    bool full() const { return slots_.size() >= capacity_; }
    bool empty() const { return slots_.empty(); }
    std::size_t size() const { return slots_.size(); }
    std::size_t capacity() const { return capacity_; }

    /** Access the head slot without draining (for tests). */
    const Slot &head() const;

    /**
     * Fault-injection hook: XOR the head slot's payload just before it
     * drains. The corrupted value becomes architectural at retirement,
     * so an external checker must catch it.
     * @return false if there was no filled head slot to corrupt.
     */
    bool corruptHeadPayload(std::uint64_t xor_bits);

    /** Typed counter read (the name is compile-checked). */
    std::uint64_t statValue(obs::StoreFifoStat s) const
    {
        return stats_.value(s);
    }

  private:
    std::size_t capacity_;
    std::deque<Slot> slots_;
    using S = obs::StoreFifoStat;
    obs::StatTable<S> stats_;
};

} // namespace slf

#endif // SLFWD_CORE_STORE_FIFO_HH_
