#include "store_fifo.hh"

#include "sim/logging.hh"

namespace slf
{

StoreFifo::StoreFifo(std::size_t capacity)
    : capacity_(capacity)
{
    if (capacity == 0)
        fatal("StoreFifo: capacity must be nonzero");
}

bool
StoreFifo::allocate(SeqNum seq)
{
    if (slots_.size() >= capacity_)
        return false;
    if (!slots_.empty() && slots_.back().seq >= seq) {
        // Catchable like the retireHead checks: an allocation at or
        // below the current tail seq means a squash failed to pop the
        // tail — exactly the stale-slot state retireHead must never see.
        fatal("StoreFifo::allocate: sequence numbers must increase "
              "(tail seq " + std::to_string(slots_.back().seq) +
              ", allocating seq " + std::to_string(seq) + ")");
    }
    Slot slot;
    slot.seq = seq;
    slots_.push_back(slot);
    return true;
}

void
StoreFifo::fill(SeqNum seq, Addr addr, unsigned size, std::uint64_t value)
{
    // Stores execute out of order, so search from the tail (recently
    // dispatched stores execute most often); this is simulator-side
    // bookkeeping, not a modelled CAM.
    for (auto it = slots_.rbegin(); it != slots_.rend(); ++it) {
        if (it->seq == seq) {
            it->data_valid = true;
            it->addr = addr;
            it->size = size;
            it->value = value;
            return;
        }
    }
    panic("StoreFifo::fill: no slot for sequence number");
}

StoreFifo::Slot
StoreFifo::retireHead(SeqNum seq)
{
    // Checked invariants, not assertions: a bookkeeping break here
    // would silently commit another store's (or a squashed store's)
    // bytes to memory. fatal() throws a catchable FatalError, so fault
    // campaigns record a wedged configuration instead of aborting.
    //
    // The seq match is what makes a squash-then-refill race impossible
    // to commit: sequence numbers are never reused, so a slot surviving
    // a squash it should not have (stale filled data) can never carry
    // the seq of the store actually retiring.
    if (slots_.empty())
        fatal("StoreFifo::retireHead: empty (retiring store never "
              "allocated, or its slot was squashed)");
    const Slot &head = slots_.front();
    if (head.seq != seq) {
        fatal("StoreFifo::retireHead: out-of-order retirement (head seq " +
              std::to_string(head.seq) + ", retiring seq " +
              std::to_string(seq) + ")");
    }
    if (!head.data_valid) {
        fatal("StoreFifo::retireHead: store seq " + std::to_string(seq) +
              " retired before executing (slot never filled)");
    }
    Slot slot = head;
    slots_.pop_front();
    return slot;
}

void
StoreFifo::squashFrom(SeqNum seq)
{
    while (!slots_.empty() && slots_.back().seq >= seq) {
        slots_.pop_back();
        ++stats_[S::Squashed];
    }
}

void
StoreFifo::clear()
{
    stats_[S::Squashed] += slots_.size();
    slots_.clear();
}

bool
StoreFifo::corruptHeadPayload(std::uint64_t xor_bits)
{
    if (slots_.empty() || !slots_.front().data_valid)
        return false;
    slots_.front().value ^= xor_bits;
    ++stats_[S::PayloadFaults];
    return true;
}

const StoreFifo::Slot &
StoreFifo::head() const
{
    if (slots_.empty())
        panic("StoreFifo::head: empty");
    return slots_.front();
}

} // namespace slf
