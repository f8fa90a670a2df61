#include "lsq.hh"

namespace slf
{

Lsq::Lsq(const LsqParams &params, MemReader read_committed)
    : params_(params),
      index_(params.lq_entries, params.sq_entries,
             std::move(read_committed)),
      stats_("lsq"),
      table_(stats_),
      lq_searches_(table_[obs::LsqStat::LqSearches]),
      sq_searches_(table_[obs::LsqStat::SqSearches]),
      cam_entries_examined_(table_[obs::LsqStat::CamEntriesExamined]),
      forwards_(table_[obs::LsqStat::Forwards]),
      violations_(table_[obs::LsqStat::ViolationsTrue]),
      silent_stores_(table_[obs::LsqStat::SilentStoreFiltered])
{}

std::optional<LsqViolation>
Lsq::executeStore(SeqNum seq, Addr addr, unsigned size, std::uint64_t value)
{
    // The modelled search examines every occupied LQ entry.
    // Value-based checking means a silent store (value already
    // matches) never triggers a flush.
    const OrderIndex::StoreCheck c =
        index_.executeStore(seq, addr, size, value);
    ++lq_searches_;
    cam_entries_examined_ += index_.loadCount();
    if (c.load_seq != kInvalidSeqNum) {
        ++violations_;
        // Squash from the earliest conflicting load.
        return LsqViolation{c.load_seq, c.store_pc, c.load_pc};
    }
    if (c.overlapped)
        ++silent_stores_;
    return std::nullopt;
}

} // namespace slf
