/**
 * @file
 * Value-based memory ordering (Cain & Lipasti, ISCA-31), the
 * retirement-time alternative the paper discusses in Section 4:
 *
 *   "Cain and Lipasti eliminate this associative load buffer search by
 *    replaying loads at retirement. At execution, a load accesses the
 *    data cache and the associative store queue in parallel. If the
 *    load issued before an earlier store with an unresolved address,
 *    then at retirement the load accesses the data cache again. If the
 *    value obtained at retirement does not match the value obtained at
 *    completion, then a memory dependence violation has occurred."
 *
 * The store queue keeps its associative forwarding search; the load
 * queue is a plain FIFO (no CAM). Both live in an OrderIndex, the
 * age-ordered queue the LSQ baseline also uses. A load executes there
 * for its forwarded bytes but never completes, so executing stores
 * check no load. The unit counts the modelled searches and their CAM
 * activity (the occupied store queue per search) itself.
 *
 * The paper's critique — which the value_replay sweep reproduces — is
 * that deferring detection to retirement greatly increases the
 * violation penalty in checkpointed large-window processors, so
 * completion-time disambiguation (the MDT) is preferable there.
 *
 * `replay_filtered` implements the vulnerability filter: only loads
 * that issued while an older store's address was still unresolved
 * re-access the cache at retirement (akin to Roth's store vulnerability
 * window); with it off, every load replays.
 */

#ifndef SLFWD_CPU_VALUE_REPLAY_UNIT_HH_
#define SLFWD_CPU_VALUE_REPLAY_UNIT_HH_

#include "cpu/mem_unit.hh"
#include "lsq/order_index.hh"

namespace slf
{

class ValueReplayUnit : public MemUnit
{
  public:
    ValueReplayUnit(const CoreConfig &cfg, MainMemory &mem,
                    CacheHierarchy &caches);

    bool canDispatchLoad() const override;
    bool canDispatchStore() const override;
    void dispatchLoad(DynInst &inst) override;
    void dispatchStore(DynInst &inst) override;
    MemIssueOutcome issueLoad(DynInst &inst, bool at_rob_head) override;
    MemIssueOutcome issueStore(DynInst &inst, bool at_rob_head) override;
    bool retireLoad(DynInst &inst) override;
    void retireStore(DynInst &inst) override;
    void squashFrom(SeqNum seq) override;
    void onPartialFlush(SeqNum, SeqNum) override {}
    void setOldestInflight(SeqNum) override {}
    std::uint64_t evictionCount() const override
    {
        // Store executions are the events that can unblock dep-waiting
        // loads, so they drive the scheduler's stall-bit clearing.
        return store_exec_count_;
    }
    void exportStats(SimResult &r) const override;
    void snapshotOccupancy(obs::OccSnapshot &snap) const override;
    /** Typed counter read (the name is compile-checked). */
    std::uint64_t statValue(obs::ValueReplayUnitStat s) const
    {
        return stats_.value(s);
    }

  private:
    const CoreConfig &cfg_;
    OrderIndex index_;

    /**
     * Load-PC dependence hints (the predictor value-based schemes pair
     * with): a load whose PC tripped a retirement violation waits, on
     * later encounters, until every older store address has resolved.
     */
    std::vector<std::uint8_t> dep_hint_;
    /** Counts store executions: the event that can unblock waiters. */
    std::uint64_t store_exec_count_ = 0;

    using S = obs::ValueReplayUnitStat;
    obs::StatTable<S> stats_;
};

} // namespace slf

#endif // SLFWD_CPU_VALUE_REPLAY_UNIT_HH_
