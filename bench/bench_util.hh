/**
 * @file
 * Shared helpers for the standalone bench programs: key=value argument
 * parsing into sweep and campaign options, and table printing. The
 * paper's tables are not benches: they run as `slf_campaign --sweep
 * <table>` (campaign/sweeps.hh).
 *
 * Every bench accepts "key=value" arguments; `scale=N` multiplies
 * workload iteration counts, `bench=<name>` restricts to one analog.
 */

#ifndef SLFWD_BENCH_BENCH_UTIL_HH_
#define SLFWD_BENCH_BENCH_UTIL_HH_

#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/sweeps.hh"
#include "sim/config.hh"

namespace slf::bench
{

/** Parse argv into a Config of key=value overrides. */
Config parseArgs(int argc, char **argv);

/**
 * Sweep shape (scale/wseed/bench/iters/fault_rate) from bench args;
 * every remaining key becomes a per-job core-config override.
 */
campaign::SweepOptions sweepOptions(const Config &opts);

/** Campaign execution knobs from bench args (jobs=N, retries=N). */
campaign::CampaignOptions campaignOptions(const Config &opts);

/** Print a table header in the paper tables' layout. */
void printHeader(const std::string &title,
                 const std::vector<std::string> &columns);

/** Print one row: name + numeric cells (flushed, for live tables). */
void printRow(const std::string &name, const std::vector<double> &cells);

} // namespace slf::bench

#endif // SLFWD_BENCH_BENCH_UTIL_HH_
