/**
 * @file
 * Idealized load/store queue baseline (paper Section 3).
 *
 * This models the LSQ the paper compares against: infinite ports and
 * search bandwidth, single-cycle bypass, age-prioritized fully
 * associative searches, and *value-based* violation checking so silent
 * stores are never falsely flagged. Because the store queue renames
 * in-flight stores to the same address (age-ordered, byte-accurate
 * forwarding), anti and output dependence violations cannot occur; only
 * true dependence violations are detected, when a store executes after a
 * younger load to an overlapping address has already obtained a value
 * that the store's arrival proves wrong.
 *
 * The simulator tallies CAM activity (entries examined per associative
 * search) as the dynamic-power proxy the paper's argument rests on.
 * Those counters model the hardware: every search examines the whole
 * occupied queue. The host does far less work: Lsq is a thin wrapper
 * over an OrderIndex, which finds the same answers from per-word lists.
 * The value-replay unit forwards from an OrderIndex of its own.
 */

#ifndef SLFWD_LSQ_LSQ_HH_
#define SLFWD_LSQ_LSQ_HH_

#include <cstdint>
#include <optional>

#include "lsq/order_index.hh"
#include "obs/stat_table.hh"
#include "sim/types.hh"

namespace slf
{

/** LSQ configuration: Figure 5 uses 48x32, Figure 6 uses 120x80 etc. */
struct LsqParams
{
    std::size_t lq_entries = 48;
    std::size_t sq_entries = 32;

    bool operator==(const LsqParams &) const = default;
};

/** Outcome of a load execution. */
struct LsqLoadResult
{
    /** Bit i set = byte i of the request was forwarded from the SQ. */
    std::uint8_t forward_mask = 0;
    /** Forwarded bytes (others zero). */
    std::uint64_t forward_value = 0;
};

/** A detected true-dependence violation. */
struct LsqViolation
{
    /** Squash every in-flight instruction with seq >= this (the earliest
     *  conflicting load). */
    SeqNum squash_from = kInvalidSeqNum;
    std::uint64_t store_pc = 0;   ///< producer
    std::uint64_t load_pc = 0;    ///< consumer
};

class Lsq
{
  public:
    /** Reads one byte of *committed* memory (for value-based checks). */
    using MemReader = OrderIndex::MemReader;
    /** A retiring store's data, for commitment to memory. */
    using StoreData = OrderIndex::StoreData;

    Lsq(const LsqParams &params, MemReader read_committed);

    /** @return false when the LQ is full (dispatch stalls). */
    bool
    dispatchLoad(SeqNum seq, std::uint64_t pc)
    {
        return index_.dispatchLoad(seq, pc);
    }

    /** @return false when the SQ is full (dispatch stalls). */
    bool
    dispatchStore(SeqNum seq, std::uint64_t pc)
    {
        return index_.dispatchStore(seq, pc);
    }

    /**
     * A load executes: age-prioritized associative SQ search forwards
     * the youngest older store's bytes. The caller merges non-forwarded
     * bytes from the cache hierarchy and then reports the final value
     * via loadCompleted().
     */
    LsqLoadResult
    executeLoad(SeqNum seq, Addr addr, unsigned size)
    {
        const OrderIndex::Forward f = index_.executeLoad(seq, addr, size);
        // The modelled search examines every occupied SQ entry.
        ++stats_[S::SqSearches];
        stats_[S::CamEntriesExamined] += index_.storeCount();
        if (f.mask)
            ++stats_[S::Forwards];
        return LsqLoadResult{f.mask, f.value};
    }

    /** Record the value the load actually obtained (for checking). */
    void
    loadCompleted(SeqNum seq, std::uint64_t value)
    {
        index_.completeLoad(seq, value);
    }

    /**
     * A store executes: records its data and searches the LQ for
     * younger completed loads whose obtained value is now provably
     * wrong (silent stores therefore never trigger).
     */
    std::optional<LsqViolation> executeStore(SeqNum seq, Addr addr,
                                             unsigned size,
                                             std::uint64_t value);

    /** Retire the LQ head. */
    void retireLoad(SeqNum seq) { index_.retireLoad(seq); }

    /** Retire the SQ head. @return the store's data for commitment. */
    StoreData retireStore(SeqNum seq) { return index_.retireStore(seq); }

    /** Squash every entry with seq >= @p seq. */
    void squashFrom(SeqNum seq) { index_.squashFrom(seq); }

    std::size_t loadQueueSize() const { return index_.loadCount(); }
    std::size_t storeQueueSize() const { return index_.storeCount(); }
    const LsqParams &params() const { return params_; }

    /** Typed counter read (the name is compile-checked). */
    std::uint64_t statValue(obs::LsqStat s) const { return stats_.value(s); }

  private:
    LsqParams params_;
    OrderIndex index_;

    using S = obs::LsqStat;
    obs::StatTable<S> stats_;
};

} // namespace slf

#endif // SLFWD_LSQ_LSQ_HH_
