/**
 * @file
 * Store Forwarding Cache (paper Section 2.3).
 *
 * A small, tagged, set-associative cache holding a single cumulative
 * in-flight value per aligned 8-byte memory word. Stores write it as
 * they complete; loads read it in parallel with the L1D. There is no
 * renaming of multiple in-flight stores to the same address — the MDT
 * detects the resulting true/anti/output ordering violations.
 *
 * Each entry carries:
 *  - 8 data bytes (one aligned word),
 *  - an 8-bit valid mask (which bytes hold in-flight store data),
 *  - an 8-bit corruption mask (bytes that may have been clobbered by
 *    canceled stores: on every partial pipeline flush the SFC ORs each
 *    entry's valid mask into its corruption mask),
 *  - the sequence number of the youngest store that wrote the entry.
 *
 * The entry is freed when that youngest writer retires (stores retire in
 * order, so all older writers have committed), or — for entries whose
 * youngest writer was squashed and can therefore never retire — when the
 * oldest in-flight instruction becomes younger than the recorded writer
 * (at that point every store that ever wrote the entry has either
 * committed to the cache or vanished, so reading the cache is safe).
 */

#ifndef SLFWD_CORE_SFC_HH_
#define SLFWD_CORE_SFC_HH_

#include <array>
#include <cstdint>
#include <vector>

#include "obs/stat_table.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"
#include "sim/types.hh"

namespace slf
{

/** SFC configuration. */
struct SfcParams
{
    std::uint64_t sets = 128;
    unsigned assoc = 2;

    /**
     * Use the paper's alternative canceled-store mechanism (end of
     * Section 3.2): instead of corruption masks, record the sequence-
     * number endpoints of each partial flush; a load refuses to forward
     * from an entry whose writers could fall inside a recorded flush.
     * Soundness note: the check spans the entry's [oldest, youngest]
     * writer range, because a canceled mid-range writer's bytes can
     * survive a younger live rewrite of other bytes.
     */
    bool use_flush_endpoints = false;
    /** Flush ranges tracked; overflow merges ranges (conservative). */
    unsigned max_flush_ranges = 8;

    bool operator==(const SfcParams &) const = default;
};

/** Bytes of data per SFC entry (fixed by the paper). */
inline constexpr unsigned kSfcWordBytes = 8;

/** Result of a load lookup. */
struct SfcLoadResult
{
    enum class Status : std::uint8_t
    {
        Miss,     ///< no in-flight bytes: read the cache hierarchy
        Full,     ///< every requested byte valid: forward `value`
        Partial,  ///< some requested bytes valid: see `valid_mask`
        Corrupt,  ///< a requested byte may be corrupt: replay the load
    };

    Status status = Status::Miss;
    /** Bytes assembled from the SFC (invalid bytes read as zero). */
    std::uint64_t value = 0;
    /** Bit i set = byte i of the *request* was valid in the SFC. */
    std::uint8_t valid_mask = 0;
};

/** Result of a store write. */
enum class SfcStoreResult : std::uint8_t
{
    Ok,
    Conflict,   ///< set conflict: replay the store
};

class Sfc
{
  public:
    explicit Sfc(const SfcParams &params);

    /**
     * A completing store writes @p size low bytes of @p value at
     * @p addr. @p seq is its sequence number.
     */
    SfcStoreResult storeWrite(Addr addr, unsigned size, std::uint64_t value,
                              SeqNum seq);

    /** An executing load looks up @p size bytes at @p addr. */
    SfcLoadResult loadRead(Addr addr, unsigned size);

    /**
     * The youngest store to its words retires; free entries whose
     * recorded writer matches @p seq.
     */
    void retireStore(Addr addr, unsigned size, SeqNum seq);

    /**
     * Poison the bytes of [addr, addr+size): used by the alternative
     * output-dependence recovery policy (Section 2.4.2), which marks the
     * overwritten entry corrupt instead of flushing the pipeline.
     */
    void markCorrupt(Addr addr, unsigned size);

    /**
     * Partial pipeline flush squashing sequence numbers [from, to].
     * With corruption masks (default), marks every valid byte corrupt;
     * with flush endpoints, records the range instead.
     */
    void partialFlush(SeqNum from = 0, SeqNum to = ~SeqNum{0});

    /** Full pipeline flush: discard everything. */
    void fullFlush();

    /** Oldest in-flight sequence number, for dead-entry scavenging. */
    void setOldestInflight(SeqNum seq) { oldest_inflight_ = seq; }

    /**
     * Fault-injection hook: OR a random live entry's valid mask into its
     * corrupt mask, modelling poisoning by a canceled same-address store.
     * The corruption machinery must absorb this (loads replay).
     * @return false if no entry held in-flight bytes.
     */
    bool injectCorruptMask(Rng &rng);

    /**
     * Fault-injection hook: XOR one in-flight data byte of a random live
     * entry with @p xor_byte and set that byte's corrupt bit — the state
     * a canceled store's write leaves behind after the flush marks it.
     * @return false if no entry held in-flight bytes.
     */
    bool injectDataClobber(Rng &rng, std::uint8_t xor_byte);

    /** Number of currently valid entries. Tracked incrementally: the
     *  per-cycle occupancy sampler reads this, so it must not scan the
     *  table. */
    std::uint64_t validEntries() const { return valid_count_; }
    std::uint64_t evictionCount() const { return evictions_; }

    const SfcParams &params() const { return params_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }
    /** Typed counter read (the name is compile-checked). */
    std::uint64_t statValue(obs::SfcStat s) const { return table_.value(s); }

  private:
    /**
     * One SFC way. Laid out hot-field-first for the probe loops: the
     * tag word (every lookup), then the forwarding state a hit reads,
     * then the writer seqs. 40 bytes — the set walk touches a fraction
     * of the cache lines the old 56-byte layout (with a dead LRU stamp;
     * the SFC never evicts by recency, only by scavenging) did.
     */
    struct Entry
    {
        std::uint64_t word = 0;           ///< addr / 8 (tag)
        SeqNum last_store_seq = kInvalidSeqNum;
        /** Oldest writer since allocation (flush-endpoint checking). */
        SeqNum first_store_seq = kInvalidSeqNum;
        std::array<std::uint8_t, kSfcWordBytes> data{};
        std::uint8_t valid_mask = 0;
        std::uint8_t corrupt_mask = 0;
        bool valid = false;               ///< tag valid
    };

    /** A recorded partial-flush range (flush-endpoint mode). */
    struct FlushRange
    {
        SeqNum from = 0;
        SeqNum to = 0;
    };

    /** @return true if [a,b] intersects any recorded flush range. */
    bool writersMaybeCanceled(SeqNum a, SeqNum b) const;

    /** Drop ranges that no live writer can fall into. */
    void expireFlushRanges();

    std::uint64_t setIndex(std::uint64_t word) const;
    Entry *find(std::uint64_t word);
    Entry *findOrAlloc(std::uint64_t word);
    void scavengeSet(std::uint64_t set);
    void freeEntry(Entry &e);

    SfcParams params_;
    std::vector<Entry> entries_;
    std::vector<FlushRange> flush_ranges_;
    SeqNum oldest_inflight_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t valid_count_ = 0;

    StatGroup stats_;
    obs::StatTable<obs::SfcStat> table_;
    Counter &store_writes_;
    Counter &load_reads_;
    Counter &full_matches_;
    Counter &partial_matches_;
    Counter &corrupt_hits_;
    Counter &conflicts_;
    Counter &partial_flushes_;
    Counter &scavenged_;
};

} // namespace slf

#endif // SLFWD_CORE_SFC_HH_
