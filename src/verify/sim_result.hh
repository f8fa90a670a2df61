/**
 * @file
 * Flat summary of one simulation run, plus shard merging.
 *
 * SimResult lives in verify/ (not driver/) because it is the lowest
 * layer that can see both CheckFailure and WorkloadClass: the memory
 * units export their counters into it through the virtual
 * MemUnit::exportStats() hook, and cpu/ already links against verify/.
 * The driver re-exports it from runner.hh, so existing includes keep
 * working.
 */

#ifndef SLFWD_VERIFY_SIM_RESULT_HH_
#define SLFWD_VERIFY_SIM_RESULT_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/analysis/blame.hh"
#include "obs/analysis/cpi_stack.hh"
#include "obs/occupancy.hh"
#include "prog/program.hh"
#include "sim/types.hh"
#include "verify/golden_checker.hh"

namespace slf
{

/**
 * The summed result counters: one X(name) per std::uint64_t field, in
 * result-JSON emission order. This list is the single spelling of each
 * counter: it declares the SimResult member, folds it in mergeFrom(),
 * journals and rehydrates it, renders it in the result JSON and names
 * it for `;; expect` stat assertions. Adding a counter is one line
 * here plus its harvest in the runner / MemUnit::exportStats().
 */
#define SLF_SIM_COUNTERS(X)                                             \
    X(loads_retired)                                                    \
    X(stores_retired)                                                   \
    X(branches_retired)                                                 \
    X(mispredicts)                                                      \
    X(oracle_fixes)                                                     \
    X(replays)                                                          \
    X(load_replays_sfc_corrupt)                                         \
    X(load_replays_sfc_partial)                                         \
    X(load_replays_mdt_conflict)                                        \
    X(store_replays_sfc_conflict)                                       \
    X(store_replays_mdt_conflict)                                       \
    X(viol_true)                                                        \
    X(viol_anti)                                                        \
    X(viol_output)                                                      \
    X(flushes_true)                                                     \
    X(flushes_anti)                                                     \
    X(flushes_output)                                                   \
    X(spurious_violations)                                              \
    X(sfc_forwards)                                                     \
    X(lsq_forwards)                                                     \
    X(head_bypasses)                                                    \
    /* Dynamic-power proxies. */                                        \
    X(cam_entries_examined) /* LSQ match lines fired */                 \
    X(lsq_searches)                                                     \
    X(mdt_accesses)                                                     \
    X(sfc_accesses)                                                     \
    /* Fault-injection census (zeros when all rates are zero). */       \
    X(faults_sfc_mask)                                                  \
    X(faults_sfc_data)                                                  \
    X(faults_mdt_evict)                                                 \
    X(faults_fifo_payload)

/** Flat summary of one simulation run. */
struct SimResult
{
    std::string workload;
    WorkloadClass cls = WorkloadClass::Int;

    Cycle cycles = 0;
    std::uint64_t insts = 0;
    double ipc = 0.0;

#define SLF_SIM_COUNTER_MEMBER(name) std::uint64_t name = 0;
    SLF_SIM_COUNTERS(SLF_SIM_COUNTER_MEMBER)
#undef SLF_SIM_COUNTER_MEMBER

    /** Golden-model checker summary (zeros when validate=false). */
    bool checker_enabled = false;
    bool checker_clean = true;
    std::uint64_t check_retirements = 0;
    std::uint64_t check_failures = 0;
    std::uint64_t check_store_commit_failures = 0;
    /** Structured divergence reports (capped; counters are not). */
    std::vector<CheckFailure> check_reports;

    /** Per-cycle occupancy distributions (disabled and empty unless the
     *  run sampled them; merges as a no-op then). */
    obs::OccupancySet occ;

    /** CPI stack: every simulated cycle attributed to one component;
     *  cpi.total() == cycles, exactly (empty on synthetic results). */
    obs::CpiStack cpi;
    /** Per-cause flush cost accounting (squashes + refetch cycles). */
    obs::BlameSet blame;

    std::uint64_t memOps() const { return loads_retired + stores_retired; }

    /** Violations per retired memory operation (paper Sec. 3.2 metric). */
    double
    violationRate() const
    {
        const std::uint64_t v = viol_true + viol_anti + viol_output;
        return memOps() ? double(v) / double(memOps()) : 0.0;
    }

    double
    loadReplayRate() const
    {
        const std::uint64_t r = load_replays_sfc_corrupt +
                                load_replays_sfc_partial +
                                load_replays_mdt_conflict;
        return loads_retired ? double(r) / double(loads_retired) : 0.0;
    }

    double
    storeReplayRate() const
    {
        const std::uint64_t r =
            store_replays_sfc_conflict + store_replays_mdt_conflict;
        return stores_retired ? double(r) / double(stores_retired) : 0.0;
    }

    /**
     * Fold another shard's counters into this result (the campaign
     * runner's shard aggregation). Counter-valued fields add; cycles
     * add (shards model serially-concatenated work); ipc is recomputed
     * from the merged totals; checker reports append up to the
     * GoldenChecker cap. The operation is associative and commutative
     * on every counter field, so K shards merge to the same totals in
     * any order.
     */
    void mergeFrom(const SimResult &other);
};

} // namespace slf

#endif // SLFWD_VERIFY_SIM_RESULT_HH_
