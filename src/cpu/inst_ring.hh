/**
 * @file
 * Fixed-capacity circular window of in-flight instructions.
 *
 * One ring holds every instruction from fetch to retire: its head
 * segment is the ROB (dispatched residents), its tail segment the fetch
 * queue (fetched, not yet dispatched). Fetch builds each DynInst in its
 * final slot at the tail, dispatch moves the ROB/fetch boundary by one,
 * retire pops the head and a squash pops the tail, so nothing is ever
 * copied between windows. The backing store is one flat power-of-two
 * array of DynInst slots allocated once at construction — the per-core
 * instruction arena; no per-instruction heap traffic occurs afterwards.
 *
 * Slot addresses and slot indices are stable for an instruction's
 * whole residency (the backing vector never reallocates and nothing
 * moves), so raw `DynInst *` handles and slot-keyed side tables stay
 * valid from fetch until it retires or is squashed. A slot IS reused
 * afterwards, but sequence numbers are never reused (monotonic 64-bit
 * allocation), so `ptr->seq == expected_seq` is a complete staleness
 * check for deferred handles (completion events).
 */

#ifndef SLFWD_CPU_INST_RING_HH_
#define SLFWD_CPU_INST_RING_HH_

#include <cstddef>
#include <vector>

#include "cpu/dyn_inst.hh"
#include "sim/types.hh"

namespace slf
{

class InstRing
{
  public:
    /** @param capacity maximum residents (both segments together);
     *  storage rounds up to a power of two so indexing is a mask, not a
     *  divide. */
    explicit InstRing(std::size_t capacity)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        mask_ = cap - 1;
        slots_.resize(cap);
    }

    /** Residents of both segments. */
    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return mask_ + 1; }
    /** Dispatched residents: positions [0, robSize()). */
    std::size_t robSize() const { return rob_size_; }
    /** Fetched, undispatched residents: positions [robSize(), size()). */
    std::size_t fetchSize() const { return size_ - rob_size_; }

    /** @pre !empty() */
    DynInst &front() { return slots_[head_]; }
    const DynInst &front() const { return slots_[head_]; }
    DynInst &back() { return slots_[(head_ + size_ - 1) & mask_]; }
    const DynInst &back() const
    {
        return slots_[(head_ + size_ - 1) & mask_];
    }
    /** Oldest fetch-segment resident. @pre fetchSize() > 0 */
    DynInst &fetchFront() { return (*this)[rob_size_]; }

    /** @p i counts from the oldest resident (0 = front). */
    DynInst &operator[](std::size_t i)
    {
        return slots_[(head_ + i) & mask_];
    }
    const DynInst &operator[](std::size_t i) const
    {
        return slots_[(head_ + i) & mask_];
    }

    /** Backing-array slot of the resident at position @p i. A slot
     *  index stays fixed from fetch to retire, so it can key
     *  per-instruction side tables. */
    std::size_t slotIndex(std::size_t i) const { return (head_ + i) & mask_; }
    /** The instruction in backing-array slot @p s (any slot, resident
     *  or not; 0 <= s < capacity()). */
    DynInst &atSlot(std::size_t s) { return slots_[s]; }
    const DynInst &atSlot(std::size_t s) const { return slots_[s]; }

    /** Fetch: append the youngest instruction to the fetch segment as a
     *  default-initialized slot to build in place.
     *  @pre size() < capacity(). */
    DynInst &
    push_back()
    {
        DynInst &slot = slots_[(head_ + size_) & mask_];
        slot = DynInst{};
        ++size_;
        return slot;
    }

    /** Dispatch: the oldest fetch-segment resident joins the ROB
     *  segment where it stands. @pre fetchSize() > 0 */
    void dispatch() { ++rob_size_; }

    /**
     * Retire the oldest resident. The vacated slot's seq is poisoned so
     * a deferred `DynInst *` handle can detect staleness by comparing
     * its recorded seq even before the slot is reused.
     * @pre robSize() > 0
     */
    void
    pop_front()
    {
        slots_[head_].seq = kInvalidSeqNum;
        head_ = (head_ + 1) & mask_;
        --size_;
        --rob_size_;
    }

    /** Squash the youngest resident, from the fetch segment while it
     *  has one, then from the ROB (seq poisoned as in pop_front). */
    void
    pop_back()
    {
        if (rob_size_ == size_)
            --rob_size_;
        --size_;
        slots_[(head_ + size_) & mask_].seq = kInvalidSeqNum;
    }

    /**
     * Position of the oldest resident with seq >= @p seq (== size() when
     * every resident is older): the ring analogue of lower_bound.
     */
    std::size_t
    lowerBound(SeqNum seq) const
    {
        std::size_t lo = 0, hi = size_;
        while (lo < hi) {
            const std::size_t mid = lo + (hi - lo) / 2;
            if (slots_[(head_ + mid) & mask_].seq < seq)
                lo = mid + 1;
            else
                hi = mid;
        }
        return lo;
    }

  private:
    std::vector<DynInst> slots_;
    std::size_t mask_ = 0;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
    std::size_t rob_size_ = 0;
};

} // namespace slf

#endif // SLFWD_CPU_INST_RING_HH_
