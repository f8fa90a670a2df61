/**
 * @file
 * Execution-driven out-of-order superscalar core (paper Section 3).
 *
 * The core executes *all* instructions, including wrong-path ones, and
 * validates every retiring instruction against an architectural
 * simulator's record of it, matching the paper's methodology. The
 * program runs functionally once per core (ArchStream): fetch's oracle
 * reads ahead of that stream and the golden checker consumes it at
 * retire. It models:
 *
 *  - fetch along the predicted path (gshare + the Figure-4 oracle that
 *    converts 80% of correct-path mispredictions into correct
 *    predictions), with a per-cycle branch limit;
 *  - checkpointed, Alpha-style renaming with one recovery point per
 *    window slot (implemented as ROB-walk rename-map rollback, which is
 *    functionally identical to per-instruction RAT checkpoints);
 *  - a scheduler that enforces predicted memory dependences through
 *    dependence tags, does not speculatively wake consumers of loads
 *    before the load completes, and supports memory-unit replay with
 *    stall-bit throttling (Section 2.4.3);
 *  - a pluggable memory-ordering unit: idealized LSQ, or SFC + MDT +
 *    store FIFO;
 *  - partial-flush recovery for branch mispredictions and memory
 *    ordering violations (full flushes only occur between programs).
 *
 * The memory-unit access is evaluated at issue time; the access outcome
 * (complete / replay / violation) is therefore known when the paper's
 * idealized scheduler needs it, making the "oracle that avoids waking
 * consumers of replayed producers" exact rather than approximate.
 */

#ifndef SLFWD_CPU_OOO_CORE_HH_
#define SLFWD_CPU_OOO_CORE_HH_

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "arch/arch_stream.hh"
#include "cpu/core_config.hh"
#include "cpu/dyn_inst.hh"
#include "cpu/inst_ring.hh"
#include "cpu/mem_unit.hh"
#include "mem/cache.hh"
#include "mem/main_memory.hh"
#include "obs/analysis/blame.hh"
#include "obs/analysis/cpi_stack.hh"
#include "obs/analysis/lifetime.hh"
#include "obs/occupancy.hh"
#include "obs/profile.hh"
#include "obs/stat_table.hh"
#include "pred/gshare.hh"
#include "pred/memdep.hh"
#include "prog/program.hh"
#include "sim/rng.hh"
#include "verify/fault_inject.hh"
#include "verify/golden_checker.hh"

namespace slf
{

class OooCore
{
  public:
    /** @param prog must outlive the core (held by reference). */
    OooCore(const CoreConfig &cfg, const Program &prog);
    ~OooCore();

    /** Run until HALT retires, max_insts retire, or max_cycles pass. */
    void run();

    /** Single-step one cycle (returns false once finished). */
    bool tick();

    bool finished() const { return done_; }
    Cycle cycles() const { return cycle_; }
    std::uint64_t
    instsRetired() const
    {
        return stats_.value(S::InstsRetired);
    }
    double ipc() const
    {
        return cycle_ ? double(instsRetired()) / double(cycle_) : 0.0;
    }

    // Introspection for stats harvesting and tests.
    /** Typed counter read (the name is compile-checked). */
    std::uint64_t coreStat(obs::CoreStat s) const { return stats_.value(s); }
    /** Per-cycle occupancy distributions (empty unless sampling is on). */
    const obs::OccupancySet &occupancy() const { return occ_; }
    /** Slot attribution; components sum to width x cycles() exactly. */
    const obs::CpiStack &cpiStack() const { return cpi_; }
    /** Per-cause flush cost accounting. */
    const obs::BlameSet &blame() const { return blame_; }
    MemUnit &memUnit() { return *memu_; }
    MemDepPredictor &memDep() { return memdep_; }
    GsharePredictor &gshare() { return gshare_; }
    CacheHierarchy &caches() { return caches_; }
    const MainMemory &committedMemory() const { return mem_; }
    const CoreConfig &config() const { return cfg_; }
    std::size_t robOccupancy() const { return rob_.robSize(); }
    std::size_t schedulerSize() const { return sched_count_; }
    std::uint64_t squashCount() const { return squash_count_; }

    /** Lockstep checker (null when cfg.validate is off). */
    GoldenChecker *checker() { return checker_.get(); }
    const GoldenChecker *checker() const { return checker_.get(); }
    /** Fault injector (null when every fault rate is zero). */
    FaultInjector *faultInjector() { return injector_.get(); }

    /**
     * Structural self-check of the window bookkeeping: sequence
     * ordering across the ROB and fetch segments, each segment within
     * its limit, fetch residents outside the scheduler,
     * scheduler-census <-> in_scheduler consistency, the stall-bit
     * census, the scheduler index (every wait set and ready bit
     * recomputed by brute force from the preg and tag scoreboards,
     * every wakeup list walked) and the architectural stream (every
     * correct-path resident's record still resident and matching).
     * @return false (with @p why filled) on breakage.
     */
    bool checkInvariants(std::string *why = nullptr) const;

  private:
    // --- pipeline stages (called once per cycle, in this order) --------
    void retireStage();
    void completeStage();
    void issueStage();
    void dispatchStage();
    void fetchStage();

    // --- helpers ---------------------------------------------------------
    bool sourcesReady(const DynInst &inst) const;
    bool consumedTagReady(const DynInst &inst) const;
    void scheduleCompletion(DynInst &inst, Cycle latency);
    void completeInst(DynInst &inst);
    void writebackDst(DynInst &inst);
    void readyProducedTag(DynInst &inst);
    /** Mark dependence tag @p tag ready and wake its waiters. */
    void readyTag(DepTag tag);

    // --- scheduler index (see the scheduler-window comment below) --------
    /** Link @p inst's unsatisfied waits onto their wakeup lists and set
     *  its ready bit if it has none. @p slot is its ROB ring slot. */
    void enterScheduler(const DynInst &inst, std::size_t slot);
    /** Unlink @p inst's remaining waits and clear its ready bit. */
    void leaveScheduler(const DynInst &inst, std::size_t slot);
    /** Satisfy every wait on wakeup list @p list and empty it. */
    void wakeWaiters(std::size_t list);
    /** Bit set of @p inst's waits that the scoreboards leave unmet. */
    std::uint8_t pendingWaits(const DynInst &inst) const;
    /** Wakeup list (index into wait_heads_) of @p inst's wait @p kind. */
    std::size_t waitList(const DynInst &inst, unsigned kind) const;
    /** Extract @p inst from the scheduler and issue it; a replay puts it
     *  back in place. */
    void issueOne(DynInst &inst, std::size_t slot);
    /** Smallest ROB position >= @p from whose ready bit is set, or
     *  rob_.size() if there is none. */
    std::size_t nextReady(std::size_t from) const;
    void setReady(std::size_t slot)
    {
        ready_bits_[slot >> 6] |= std::uint64_t{1} << (slot & 63);
    }
    void clearReady(std::size_t slot)
    {
        ready_bits_[slot >> 6] &= ~(std::uint64_t{1} << (slot & 63));
    }
    bool isReady(std::size_t slot) const
    {
        return (ready_bits_[slot >> 6] >> (slot & 63)) & 1;
    }

    /** Issue-time evaluation of one instruction. @return false if it was
     *  replayed (stays in the scheduler). */
    bool executeAtIssue(DynInst &inst);

    void recoverBranchMispredict(DynInst &branch);
    void recoverViolation(const MemIssueOutcome &outcome,
                          bool value_replay = false);
    /** Squash every in-flight instruction with seq >= @p seq.
     *  @return number of instructions squashed. */
    std::uint64_t squashFrom(SeqNum seq);
    /** Attribute the just-simulated cycle to one CpiComponent. */
    void classifyCycle(std::uint64_t retired_this_cycle);
    /** Open a refetch-penalty attribution window for @p cause. */
    void noteFlush(obs::FlushCause cause, std::uint64_t squashed,
                   Cycle penalty_until);
    /** Finalize a lifetime record for an instruction leaving the
     *  machine (retired or squashed). */
    void finalizeLifetime(const DynInst &inst, bool squashed);
    void clearStallBits();
    /** Compose the watchdog fatal() message with an occupancy dump. */
    std::string watchdogDump(const std::string &reason) const;

    /**
     * One cycle's occupancy census (core structures + memory unit).
     * Both the per-cycle sampler and the watchdog dump read this.
     */
    obs::OccSnapshot occSnapshot() const;

    Cycle opLatency(Op op) const;
    SeqNum oldestInflightSeq() const;

    // --- configuration & substrate --------------------------------------
    CoreConfig cfg_;
    const Program &prog_;

    MainMemory mem_;            ///< committed architectural memory
    CacheHierarchy caches_;
    GsharePredictor gshare_;
    Rng oracle_rng_;
    MemDepPredictor memdep_;
    std::unique_ptr<MemUnit> memu_;

    /** Lockstep golden-model checker (null when validation is off). */
    std::unique_ptr<GoldenChecker> checker_;
    /** Fault injector shared with the memory unit (null when disabled). */
    std::unique_ptr<FaultInjector> injector_;

    /** The architectural stream: fetch's oracle reads ahead of it, the
     *  checker consumes it at retire. */
    ArchStream stream_;

    // --- rename state ---------------------------------------------------
    std::vector<std::uint64_t> preg_val_;
    std::vector<std::uint8_t> preg_ready_;
    std::vector<PhysRegIndex> preg_free_;
    std::array<PhysRegIndex, kNumArchRegs> rat_{};

    // --- dependence tag scoreboard ---------------------------------------
    std::vector<std::uint8_t> tag_ready_;
    std::vector<SeqNum> tag_owner_seq_;

    // --- windows ---------------------------------------------------------
    /**
     * The instruction window: one circular array of DynInst slots, the
     * per-core instruction arena, whose head segment is the ROB and
     * whose tail segment is the fetch queue. An instruction keeps one
     * slot from fetch to retire (dispatch moves the segment boundary),
     * so DynInst pointers and slot indices are stable for its whole
     * residency and `ptr->seq == seq` is a complete staleness check
     * afterwards (sequence numbers are never reused).
     */
    InstRing rob_;
    /**
     * Scheduler window: the `in_scheduler` flags of ROB residents plus
     * this census (read by dispatch, classifyCycle and occSnapshot).
     */
    std::uint64_t sched_count_ = 0;
    /**
     * Scheduler index, keyed by ROB ring slot. Each resident has up to
     * three waits (wait kinds: src1 preg, src2 preg, consumed dependence
     * tag); wait node `slot * 4 + kind` is an intrusive link on its
     * preg's or tag's doubly-linked wakeup list. `waits_[slot]` holds
     * the resident's unsatisfied wait kinds as bits; a satisfying event
     * drains the list, clears those bits, and sets the slot's bit in
     * `ready_bits_` once none is left (and the stall bit is clear). All
     * arrays are sized once in the constructor.
     */
    static constexpr std::uint32_t kNoWaiter = ~std::uint32_t{0};
    std::vector<std::uint32_t> wait_next_;
    std::vector<std::uint32_t> wait_prev_;
    std::vector<std::uint8_t> waits_;
    std::vector<std::uint64_t> ready_bits_;
    /** Wakeup-list heads: one per preg, then one per dependence tag. */
    std::vector<std::uint32_t> wait_heads_;
    /** Bumped by every squash (introspection/debugging aid). */
    std::uint64_t squash_count_ = 0;
    /** Number of scheduler residents with the stall bit set. */
    std::uint64_t stalled_count_ = 0;

    /** Pending completion event: the handle is revalidated against the
     *  recorded seq at delivery (slots are recycled, seqs are not). */
    struct Completion
    {
        Cycle due;
        DynInst *inst;
        SeqNum seq;
    };
    std::vector<Completion> completions_;
    /** Reused each cycle by completeStage (events due this cycle). */
    std::vector<std::pair<SeqNum, DynInst *>> due_;

    // --- fetch state -----------------------------------------------------
    std::uint64_t fetch_pc_ = 0;
    bool fetch_on_cp_ = true;
    std::uint64_t fetch_cp_index_ = 0;
    Cycle fetch_ready_cycle_ = 0;
    bool fetch_halted_ = false;

    // --- global state ---------------------------------------------------
    Cycle cycle_ = 0;
    SeqNum next_seq_ = 1;
    bool done_ = false;
    /** Host wall-clock deadline (cfg.deadline_ms past construction);
     *  polled every few thousand cycles in tick(). 0 = no deadline. */
    std::uint64_t deadline_at_ns_ = 0;
    /** HALT retired (vs a max_insts/max_cycles cut): the run drained, so
     *  the final-memory-image cross-check is meaningful. */
    bool halted_cleanly_ = false;
    bool final_mem_checked_ = false;
    Cycle last_retire_cycle_ = 0;
    std::uint64_t last_eviction_count_ = 0;

    // --- observability ---------------------------------------------------
    obs::TraceSink *trace_ = nullptr;       ///< borrowed from cfg.obs
    obs::HostProfiler *profiler_ = nullptr; ///< borrowed from cfg.obs
    obs::LifetimeSink *lifetime_ = nullptr; ///< borrowed from cfg.obs
    obs::OccupancySet occ_;
    unsigned issued_this_cycle_ = 0;

    // --- cycle attribution (always on; plain counter arithmetic) ---------
    obs::CpiStack cpi_;
    obs::BlameSet blame_;
    /** Cause of the most recent flush (valid while the refetch window
     *  below is open). */
    obs::FlushCause last_flush_cause_ = obs::FlushCause::kCount;
    /** Frontend-hold deadline of the most recent flush; empty-ROB
     *  cycles before it are blamed on last_flush_cause_. */
    Cycle flush_penalty_until_ = 0;

    // --- statistics -------------------------------------------------------
    using S = obs::CoreStat;
    obs::StatTable<S> stats_;
};

} // namespace slf

#endif // SLFWD_CPU_OOO_CORE_HH_
