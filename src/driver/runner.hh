/**
 * @file
 * Simulation driver: runs one workload on one core configuration and
 * harvests a flat SimResult that the benches, examples and tests share.
 */

#ifndef SLFWD_DRIVER_RUNNER_HH_
#define SLFWD_DRIVER_RUNNER_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "cpu/core_config.hh"
#include "prog/program.hh"
#include "sim/config.hh"
#include "sim/types.hh"
#include "verify/golden_checker.hh"
#include "verify/sim_result.hh"

namespace slf
{

/** Run @p prog on a core configured by @p cfg. */
SimResult runWorkload(const CoreConfig &cfg, const Program &prog);

/**
 * Apply string-keyed overrides to a CoreConfig (for examples/CLIs):
 * width, rob, sched, fus, subsys (lsq|mdtsfc), sfc.sets, sfc.assoc,
 * sfc.flush_endpoints, sfc.max_flush_ranges,
 * mdt.sets, mdt.assoc, mdt.granularity, lsq.lq, lsq.sq,
 * memdep.mode (lsq|true|all|total), max_insts, seed, validate,
 * oracle_fix_prob, stall_bits, partial_match_merges,
 * output_dep_marks_corrupt, optimized_true_recovery, check.abort,
 * watchdog.retire_cycles, watchdog.max_cycles, fault.sfc_mask,
 * fault.sfc_data, fault.mdt_evict, fault.fifo_payload, fault.seed.
 *
 * Every key in @p overrides must name a known override: an unknown
 * key is fatal() with a diagnostic listing the valid names (a typo'd
 * override silently running the default config poisoned more than one
 * sweep before this check existed).
 */
void applyOverrides(CoreConfig &cfg, const Config &overrides);

/** The override keys applyOverrides accepts, sorted (diagnostics). */
const std::vector<std::string> &knownOverrideKeys();

/**
 * Copy @p overrides minus the named harness keys (e.g. "preset",
 * "scale"), so a driver that parses its own keys from the same
 * command line can forward the remainder to the strict
 * applyOverrides() without tripping the unknown-key check.
 */
Config stripKeys(const Config &overrides,
                 const std::vector<std::string> &harness_keys);

} // namespace slf

#endif // SLFWD_DRIVER_RUNNER_HH_
