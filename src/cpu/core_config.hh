/**
 * @file
 * Aggregate configuration of the out-of-order core (paper Figure 4).
 */

#ifndef SLFWD_CPU_CORE_CONFIG_HH_
#define SLFWD_CPU_CORE_CONFIG_HH_

#include <cstdint>

#include "core/mdt.hh"
#include "core/sfc.hh"
#include "lsq/lsq.hh"
#include "mem/cache.hh"
#include "obs/hooks.hh"
#include "pred/memdep.hh"
#include "sim/types.hh"
#include "verify/fault_inject.hh"

namespace slf
{

/** Which memory ordering/forwarding subsystem the core uses. */
enum class MemSubsystem : std::uint8_t
{
    LsqBaseline,  ///< idealized load/store queue
    MdtSfc,       ///< the paper's SFC + MDT + store FIFO
    ValueReplay,  ///< Cain/Lipasti retirement-time value checking
};

struct CoreConfig
{
    // Pipeline shape.
    unsigned width = 4;                  ///< fetch/dispatch/issue/retire
    unsigned max_branches_per_fetch = 1;
    unsigned rob_entries = 128;
    unsigned sched_entries = 128;
    unsigned num_fus = 4;
    unsigned fetch_queue_entries = 16;

    // Latencies (cycles).
    Cycle alu_latency = 1;
    Cycle mul_latency = 3;
    Cycle fp_latency = 4;
    Cycle load_latency = 2;       ///< address calc + L1D/SFC access (hit)
    Cycle store_latency = 1;
    Cycle mispredict_penalty = 8;
    Cycle replay_delay = 2;       ///< re-ready delay after a replay

    // Branch prediction.
    unsigned gshare_bits = 8192;
    unsigned gshare_history_bits = 12;
    double oracle_fix_prob = 0.8;

    // Memory subsystem selection and parameters.
    MemSubsystem subsys = MemSubsystem::MdtSfc;
    LsqParams lsq;
    SfcParams sfc;
    MdtParams mdt;
    MemDepParams memdep;

    /** +1 cycle store latency modelling the SFC tag check (Section 3). */
    bool sfc_store_extra_cycle = true;
    /** +1 cycle violation penalty modelling the MDT tag check. */
    Cycle mdt_violation_extra_penalty = 1;
    /** Stall-bit replay throttling (Section 2.4.3). */
    bool stall_bits = true;
    /** SFC partial match: merge missing bytes from the cache (true) or
     *  replay the load (false) — Section 2.3 allows either. */
    bool partial_match_merges = true;
    /** Output-dependence violations mark the SFC entry corrupt instead
     *  of flushing (Section 2.4.2 alternative policy). */
    bool output_dep_marks_corrupt = false;
    /** ValueReplay: re-check only loads that issued past an unresolved
     *  older store (vulnerability filtering) instead of every load. */
    bool value_replay_filtered = true;

    // Cache hierarchy (Figure 4 defaults).
    CacheGeometry l1i{"l1i", 8 * 1024, 2, 128, 10};
    CacheGeometry l1d{"l1d", 8 * 1024, 4, 64, 10};
    CacheGeometry l2{"l2", 512 * 1024, 8, 128, 100};

    // Run control.
    std::uint64_t max_insts = 1'000'000;
    std::uint64_t max_cycles = 0;        ///< 0 = unlimited
    std::uint64_t rng_seed = 1;
    bool validate = true;                ///< lockstep golden-model checks
    /** Panic on the first checker divergence (a divergence is a simulator
     *  bug); off, divergences are recorded in the SimResult so fault
     *  campaigns can count detections. */
    bool check_abort = true;

    // Progress watchdog (both fatal() with an occupancy dump; 0 = off).
    /** Abort if no instruction retires for this many cycles. */
    Cycle watchdog_retire_cycles = 500'000;
    /** Abort once this many cycles pass (unlike max_cycles, which ends
     *  the run gracefully, this treats reaching the cap as a wedge). */
    Cycle watchdog_max_cycles = 0;

    /** Host wall-clock deadline in milliseconds (0 = none), polled
     *  cooperatively every few thousand simulated cycles; expiry throws
     *  JobTimeout (a FatalError) with an occupancy dump. Unlike the
     *  cycle watchdogs this bounds *host* time, so it also catches
     *  simulations that are healthy but merely far too slow for their
     *  budget (the campaign layer's per-job timeout). */
    std::uint64_t deadline_ms = 0;

    /** Fault injection (all rates default to 0 = disabled). */
    FaultInjectParams fault;

    /**
     * Observability hooks: optional event sink, host-time profiler and
     * per-cycle occupancy sampling. The pointers are borrowed (the
     * owner must outlive the core) and are deliberately NOT shared
     * across campaign jobs — runJob() nulls them in its config copy.
     */
    obs::ObsHooks obs;

    /** Baseline 4-wide configuration (Figure 4, left column). */
    static CoreConfig baseline();

    /** Aggressive 8-wide configuration (Figure 4, right column). */
    static CoreConfig aggressive();

    /** Field-wise equality: two equal configs simulate identically. */
    bool operator==(const CoreConfig &) const = default;
};

} // namespace slf

#endif // SLFWD_CPU_CORE_CONFIG_HH_
