#include "lsq.hh"

namespace slf
{

Lsq::Lsq(const LsqParams &params, MemReader read_committed)
    : params_(params),
      index_(params.lq_entries, params.sq_entries,
             std::move(read_committed))
{}

std::optional<LsqViolation>
Lsq::executeStore(SeqNum seq, Addr addr, unsigned size, std::uint64_t value)
{
    // The modelled search examines every occupied LQ entry.
    // Value-based checking means a silent store (value already
    // matches) never triggers a flush.
    const OrderIndex::StoreCheck c =
        index_.executeStore(seq, addr, size, value);
    ++stats_[S::LqSearches];
    stats_[S::CamEntriesExamined] += index_.loadCount();
    if (c.load_seq != kInvalidSeqNum) {
        ++stats_[S::ViolationsTrue];
        // Squash from the earliest conflicting load.
        return LsqViolation{c.load_seq, c.store_pc, c.load_pc};
    }
    if (c.overlapped)
        ++stats_[S::SilentStoreFiltered];
    return std::nullopt;
}

} // namespace slf
