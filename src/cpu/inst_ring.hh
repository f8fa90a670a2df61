/**
 * @file
 * Fixed-capacity circular window of in-flight instructions.
 *
 * The ROB and the fetch queue are bounded FIFOs whose residents carry
 * strictly increasing sequence numbers; `std::deque<DynInst>` paid block
 * allocation and pointer-chasing for a structure whose size never
 * exceeds a configuration constant. InstRing replaces it with one flat
 * power-of-two array of DynInst slots allocated once at construction —
 * the per-core instruction arena. Slots are recycled in place on
 * pop_front (retire) and pop_back (squash); no per-instruction heap
 * traffic ever occurs after construction.
 *
 * Slot addresses are stable for an instruction's whole residency (the
 * backing vector never reallocates), so raw `DynInst *` handles taken
 * while an instruction is in flight stay valid until it retires or is
 * squashed. A slot IS reused afterwards, but sequence numbers are never
 * reused (monotonic 64-bit allocation), so `ptr->seq == expected_seq`
 * is a complete staleness check for deferred handles (completion
 * events).
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
    /** @param capacity maximum residents; storage rounds up to a
     *  power of two so indexing is a mask, not a divide. */
    explicit InstRing(std::size_t capacity)
    {
        std::size_t cap = 1;
        while (cap < capacity)
            cap <<= 1;
        mask_ = cap - 1;
        slots_.resize(cap);
    }

    bool empty() const { return size_ == 0; }
    std::size_t size() const { return size_; }
    std::size_t capacity() const { return mask_ + 1; }

    /** @pre !empty() */
    DynInst &front() { return slots_[head_]; }
    const DynInst &front() const { return slots_[head_]; }
    DynInst &back() { return slots_[(head_ + size_ - 1) & mask_]; }
    const DynInst &back() const
    {
        return slots_[(head_ + size_ - 1) & mask_];
    }

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
     *  index stays fixed for an instruction's whole residency, so it
     *  can key per-instruction side tables. */
    std::size_t slotIndex(std::size_t i) const { return (head_ + i) & mask_; }
    /** The instruction in backing-array slot @p s (any slot, resident
     *  or not; 0 <= s < capacity()). */
    DynInst &atSlot(std::size_t s) { return slots_[s]; }
    const DynInst &atSlot(std::size_t s) const { return slots_[s]; }

    /** Append the youngest instruction. @pre size() < capacity(). */
    DynInst &
    push_back(const DynInst &d)
    {
        DynInst &slot = slots_[(head_ + size_) & mask_];
        slot = d;
        ++size_;
        return slot;
    }

    /**
     * Retire the oldest resident. The vacated slot's seq is poisoned so
     * a deferred `DynInst *` handle can detect staleness by comparing
     * its recorded seq even before the slot is reused.
     */
    void
    pop_front()
    {
        slots_[head_].seq = kInvalidSeqNum;
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    /** Squash the youngest resident (seq poisoned as in pop_front). */
    void
    pop_back()
    {
        --size_;
        slots_[(head_ + size_) & mask_].seq = kInvalidSeqNum;
    }

    /**
     * Index of the oldest resident with seq >= @p seq (== size() when
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
};

} // namespace slf

#endif // SLFWD_CPU_INST_RING_HH_
