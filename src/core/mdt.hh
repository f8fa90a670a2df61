/**
 * @file
 * Memory Disambiguation Table (paper Section 2.2).
 *
 * An address-indexed, cache-like structure that replaces the load queue
 * and its associative search logic. Each entry tracks, for one
 * granularity-sized block of memory, the highest sequence numbers yet
 * seen of in-flight loads and stores to that block (basic timestamp
 * ordering). Disambiguation costs at most two sequence-number compares
 * per issued load or store; there is no CAM and no priority encoder.
 *
 * Violation rules (executing instruction = "inst"):
 *  - load:  inst.seq < entry.store_seq           -> ANTI violation
 *  - store: inst.seq < entry.store_seq           -> OUTPUT violation
 *  - store: inst.seq < entry.load_seq            -> TRUE violation
 *
 * The MDT deliberately ignores partial pipeline flushes; stale sequence
 * numbers only make it conservative. Because entries whose recorded
 * instructions were squashed can otherwise never be invalidated by the
 * retirement rule (which requires an exact sequence-number match), the
 * implementation scavenges dead ways — ways whose recorded sequence
 * numbers are all older than the oldest in-flight instruction — when a
 * set conflict occurs. This is an implementation necessity the paper
 * leaves implicit; it cannot change detection behaviour because a stale
 * sequence number can never match or exceed a live instruction's.
 */

#ifndef SLFWD_CORE_MDT_HH_
#define SLFWD_CORE_MDT_HH_

#include <cstdint>
#include <vector>

#include "obs/stat_table.hh"
#include "pred/memdep.hh"
#include "sim/rng.hh"
#include "sim/types.hh"

namespace slf
{

/** MDT configuration. */
struct MdtParams
{
    std::uint64_t sets = 4 * 1024;
    unsigned assoc = 2;
    unsigned granularity = 8;   ///< bytes disambiguated per entry
    bool tagged = true;         ///< untagged MDTs alias freely

    /**
     * Optimized recovery from true dependence violations (Section
     * 2.4.1): when the per-entry completed-load count is exactly one,
     * flush from the (single) conflicting load instead of from the
     * completing store.
     */
    bool optimized_true_recovery = false;

    bool operator==(const MdtParams &) const = default;
};

/** Outcome of one MDT access. */
struct MdtAccess
{
    enum class Status : std::uint8_t
    {
        Ok,         ///< no violation known to have occurred
        Conflict,   ///< tagged set full: replay the instruction
        Violation,  ///< memory ordering violation detected
    };

    Status status = Status::Ok;

    // Violation details (valid when status == Violation).
    DepKind kind = DepKind::True;
    /** Squash every in-flight instruction with seq >= this. */
    SeqNum squash_from = kInvalidSeqNum;
    std::uint64_t producer_pc = 0;
    std::uint64_t consumer_pc = 0;

    /**
     * A completing store compares its sequence number against both the
     * load and the store fields of the entry, so it can trip a true and
     * an output violation simultaneously. Recovery happens once (at the
     * older squash point), but the predictor must learn both arcs or the
     * masked pair would re-violate forever.
     */
    bool has_secondary = false;
    DepKind kind2 = DepKind::Output;
    std::uint64_t producer2_pc = 0;
    std::uint64_t consumer2_pc = 0;
};

class Mdt
{
  public:
    explicit Mdt(const MdtParams &params);

    /**
     * A load with sequence number @p seq and PC @p pc completes its
     * access to @p addr (of @p size bytes).
     */
    MdtAccess accessLoad(Addr addr, unsigned size, SeqNum seq,
                         std::uint64_t pc);

    /** A store completes; analogous to accessLoad. */
    MdtAccess accessStore(Addr addr, unsigned size, SeqNum seq,
                          std::uint64_t pc);

    /**
     * A load retires. Invalidates the entry's load sequence number on an
     * exact match and frees the entry when both fields are invalid.
     */
    void retireLoad(Addr addr, unsigned size, SeqNum seq);

    /**
     * A store retires.
     * @return true if this store was the latest in-flight store to every
     *         block it touched (the SFC's entry-free condition).
     */
    bool retireStore(Addr addr, unsigned size, SeqNum seq);

    /**
     * Inform the MDT of the oldest in-flight sequence number so the
     * conflict path can scavenge dead ways.
     */
    void setOldestInflight(SeqNum seq) { oldest_inflight_ = seq; }

    /** Clear all entries (full pipeline flush / new program). */
    void reset();

    /**
     * Fault-injection hook: evict one random valid entry, live or dead.
     * Evicting a live entry erases in-flight ordering records, which the
     * design does not defend against — escaped violations must then be
     * caught by the retirement-lockstep checker.
     * @return false if the table was empty.
     */
    bool injectEviction(Rng &rng);

    /** Number of currently valid entries. Tracked incrementally: the
     *  per-cycle occupancy sampler reads this, so it must not scan the
     *  table. */
    std::uint64_t validEntries() const { return valid_count_; }

    /** Count of entry evictions/frees since construction. The scheduler's
     *  stall-bit heuristic clears stall bits when this advances. */
    std::uint64_t evictionCount() const { return evictions_; }

    const MdtParams &params() const { return params_; }
    /** Typed counter read (the name is compile-checked). */
    std::uint64_t statValue(obs::MdtStat s) const { return stats_.value(s); }

  private:
    /**
     * One MDT way, hot-field-first: the tag every set walk compares,
     * then the timestamp pair the violation checks read, then the
     * cold reporting PCs. 48 bytes (down from 72: the LRU stamp was
     * dead weight — the MDT never evicts by recency, only by
     * scavenging provably dead ways).
     */
    struct Entry
    {
        std::uint64_t block = 0;        ///< addr / granularity (tag)
        SeqNum load_seq = kInvalidSeqNum;
        SeqNum store_seq = kInvalidSeqNum;
        std::uint64_t load_pc = 0;
        std::uint64_t store_pc = 0;
        /** Loads completed but not yet retired (Section 2.4.1). */
        std::uint32_t completed_loads = 0;
        bool valid = false;
        bool load_valid = false;
        bool store_valid = false;
    };

    std::uint64_t setIndex(std::uint64_t block) const;

    /**
     * Find or allocate the way for @p block.
     * @return nullptr on an unresolvable set conflict.
     */
    Entry *findOrAlloc(std::uint64_t block);

    /** Find without allocating. */
    Entry *find(std::uint64_t block);

    /** Free ways whose recorded state is provably dead. */
    void scavengeSet(std::uint64_t set);

    void freeEntry(Entry &e);

    /** First and last block index touched by [addr, addr+size). */
    std::uint64_t firstBlock(Addr addr) const;
    std::uint64_t lastBlock(Addr addr, unsigned size) const;

    MdtAccess loadOneBlock(std::uint64_t block, SeqNum seq,
                           std::uint64_t pc);
    MdtAccess storeOneBlock(std::uint64_t block, SeqNum seq,
                            std::uint64_t pc);

    MdtParams params_;
    std::vector<Entry> entries_;
    SeqNum oldest_inflight_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t valid_count_ = 0;

    using S = obs::MdtStat;
    obs::StatTable<S> stats_;
};

} // namespace slf

#endif // SLFWD_CORE_MDT_HH_
