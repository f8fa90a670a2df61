/**
 * @file
 * Producer-set memory dependence predictor (Section 2.1 of the paper),
 * a generalization of the Chrysos/Emer store-set predictor.
 *
 * Structures:
 *  - PT  (producer table):   PC-indexed, holds a producer-set id.
 *  - CT  (consumer table):   PC-indexed, holds a producer-set id.
 *  - LFPT (last-fetched producer table): set-id-indexed (aliased), holds
 *    the dependence tag of the set's most recently fetched producer.
 *
 * At dispatch, an instruction whose PC hits in the PT allocates a fresh
 * dependence tag from a free list and deposits it in the LFPT; one whose
 * PC hits in the CT reads the LFPT and becomes dependent on that tag.
 * The scheduler tracks tag readiness exactly like physical registers.
 *
 * Training happens when the MDT (or LSQ) reports a dependence violation
 * between a producer PC (the architecturally earlier instruction) and a
 * consumer PC. Which violation kinds train, and whether a set is totally
 * ordered (every member both produces and consumes), is governed by
 * MemDepMode — these are exactly the paper's ENF / NOT-ENF / LSQ
 * configurations.
 */

#ifndef SLFWD_PRED_MEMDEP_HH_
#define SLFWD_PRED_MEMDEP_HH_

#include <cstdint>
#include <optional>
#include <vector>

#include "obs/stat_table.hh"
#include "sim/types.hh"

namespace slf
{

/** Kinds of memory ordering violations (and predictions). */
enum class DepKind : std::uint8_t { True, Anti, Output };

/** Predictor operating modes (paper Section 3). */
enum class MemDepMode : std::uint8_t
{
    /**
     * Store-set-like behaviour for the LSQ baseline: train only on true
     * dependence violations; stores produce, loads consume; no output-
     * dependence enforcement among stores (Section 2.1).
     */
    LsqStoreSet,

    /** NOT-ENF: insert dependence arcs only for true violations. */
    EnforceTrueOnly,

    /** ENF (baseline core): enforce predicted true, anti and output. */
    EnforceAll,

    /**
     * ENF for the aggressive core: any instruction involved in a
     * violation is treated as both producer and consumer, imposing a
     * total order on each producer set (Section 3.2).
     */
    EnforceAllTotalOrder,
};

/** Dependence tag identifier. */
using DepTag = std::uint32_t;
inline constexpr DepTag kInvalidDepTag = 0xffffffff;

/** What dispatch-time lookup returned for one instruction. */
struct MemDepLookup
{
    std::optional<DepTag> consumed;  ///< tag this instruction waits on
    std::optional<DepTag> produced;  ///< tag this instruction will ready
};

/** Geometry of the predictor (Figure 4 defaults). */
struct MemDepParams
{
    std::uint64_t table_entries = 16 * 1024;  ///< PT and CT entries
    std::uint64_t num_set_ids = 4 * 1024;     ///< producer-set id space
    std::uint64_t lfpt_entries = 512;
    std::uint64_t num_tags = 2048;            ///< dependence tag pool
    MemDepMode mode = MemDepMode::EnforceAll;

    bool operator==(const MemDepParams &) const = default;
};

class MemDepPredictor
{
  public:
    explicit MemDepPredictor(const MemDepParams &params);

    /**
     * Dispatch-time lookup for the memory instruction at @p pc.
     *
     * Allocates a dependence tag if the instruction is a producer.
     * @return std::nullopt if the tag free list is exhausted — the
     *         caller must stall dispatch and retry next cycle.
     */
    std::optional<MemDepLookup> dispatch(std::uint64_t pc, bool is_load,
                                         bool is_store);

    /**
     * Train on a reported violation: @p producer_pc is the architecturally
     * earlier instruction, @p consumer_pc the later one. Ignored if the
     * mode does not enforce @p kind.
     */
    void reportViolation(std::uint64_t producer_pc,
                         std::uint64_t consumer_pc, DepKind kind);

    /**
     * Release a produced tag (instruction retired or squashed). Clears
     * the LFPT entry if it still advertises this tag so later consumers
     * cannot chain onto a recycled id.
     */
    void releaseTag(DepTag tag);

    /** Number of free tags remaining (for tests). */
    std::size_t freeTags() const { return free_tags_.size(); }

    std::uint64_t numTags() const { return params_.num_tags; }

    MemDepMode mode() const { return params_.mode; }

    /** Clear all predictor state (tables and LFPT), keeping the mode. */
    void reset();

    /** Typed counter read (the name is compile-checked). */
    std::uint64_t statValue(obs::MemDepStat s) const
    {
        return stats_.value(s);
    }

  private:
    std::uint64_t pcIndex(std::uint64_t pc) const;
    std::uint64_t lfptIndex(std::uint32_t set_id) const;
    bool trains(DepKind kind) const;

    /** Assign/merge producer-set ids for a violating pair. */
    void assignSets(std::uint64_t producer_pc, std::uint64_t consumer_pc,
                    bool producer_also_consumes, bool consumer_also_produces);

    std::uint32_t allocSetId();

    MemDepParams params_;

    /// PT / CT: set id per PC index, kInvalidSet when empty.
    static constexpr std::uint32_t kInvalidSet = 0xffffffff;
    std::vector<std::uint32_t> pt_;
    std::vector<std::uint32_t> ct_;

    struct LfptEntry
    {
        bool valid = false;
        DepTag tag = kInvalidDepTag;
    };
    std::vector<LfptEntry> lfpt_;

    std::vector<DepTag> free_tags_;
    /// For each live tag, which LFPT slot it was written to (or ~0).
    std::vector<std::uint64_t> tag_lfpt_slot_;

    std::uint32_t next_set_id_ = 0;

    using S = obs::MemDepStat;
    obs::StatTable<S> stats_;
};

} // namespace slf

#endif // SLFWD_PRED_MEMDEP_HH_
