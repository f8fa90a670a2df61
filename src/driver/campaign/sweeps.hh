/**
 * @file
 * The paper's experiment sweeps, expressed as Campaign job lists so
 * the slf_campaign CLI, perfbench and the tests all expand the same
 * cross-products. One registry (sweeps.cc) names every sweep, builds
 * its job list and, for the paper's tables, renders the finished
 * results as the table text:
 *
 *  - fig5, fig6:       Figures 5 and 6 (baseline and aggressive core).
 *  - violation_rates, assoc, corruption, granularity, lsq_size,
 *    activity, enforcement, recovery, energy, flush_endpoints,
 *    value_replay:     the Section 2.2-4 claims and ablations.
 *  - paper:            the union of every table above; each distinct
 *                      simulation runs once and feeds every table that
 *                      shares it.
 *  - fault:            the fault-injection campaign phases (baseline,
 *                      sfc, fifo, mdt) x the memory-intensive micros,
 *                      with per-job derived fault streams.
 *  - micro:            the directed `.s` corpus under the fig5 config
 *                      trio.
 *  - screen:           mixed-fidelity fig5 — phase 1 screens every
 *                      point on the func_batch backend; phase 2 re-runs
 *                      the selected subset on the timing backend (see
 *                      makeScreenCampaign).
 *
 * Every named configuration comes from the ConfigPreset registry
 * (cpu/config_preset.hh), so a sweep's "lsq48x32" is byte-identical to
 * the micro suite's and perfbench's.
 */

#ifndef SLFWD_DRIVER_CAMPAIGN_SWEEPS_HH_
#define SLFWD_DRIVER_CAMPAIGN_SWEEPS_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "sim/config.hh"

namespace slf::campaign
{

/**
 * Shared sweep-shape knobs. Plain aggregate initialization still works;
 * the fluent with*() setters exist so call sites can build options in
 * one expression, and withOverride() validates the key against
 * runner.hh's knownOverrideKeys() at build time — a typo fails with a
 * diagnostic listing every valid key instead of silently running the
 * default configuration.
 */
struct SweepOptions
{
    std::uint64_t scale = 1;       ///< analog iteration multiplier
    std::uint64_t wseed = 42;      ///< analog generator seed
    std::string bench_filter;      ///< restrict analogs to one name
    std::uint64_t fault_iters = 4000;  ///< fault-sweep micro iterations
    double fault_rate = 1e-3;      ///< fault-sweep injection rate
    /** Directory of `.s` directed tests for the micro sweep. */
    std::string corpus_dir = "tests/micro";
    /** Extra key=value core-config overrides applied to every job. */
    Config overrides;

    // Screen-sweep selection rule (see selectForExactRerun).
    /** Re-run exactly the screened points whose selection stat exceeds
     *  this (threshold rule; ignored when screen_top is set). */
    double screen_threshold = 0.25;
    /** Selection statistic: "stall_frac" (1 - insts/(width*cycles)) or
     *  any canonical SimResult counter name (verify/expectation.hh). */
    std::string screen_stat = "stall_frac";
    /** When non-zero: re-run the K highest-stat points instead of the
     *  threshold rule (ties break toward the lower job index). */
    std::uint64_t screen_top = 0;

    SweepOptions &withScale(std::uint64_t v) { scale = v; return *this; }
    SweepOptions &withWorkloadSeed(std::uint64_t v)
    {
        wseed = v;
        return *this;
    }
    SweepOptions &withBenchFilter(std::string v)
    {
        bench_filter = std::move(v);
        return *this;
    }
    SweepOptions &withFaultIters(std::uint64_t v)
    {
        fault_iters = v;
        return *this;
    }
    SweepOptions &withFaultRate(double v)
    {
        fault_rate = v;
        return *this;
    }
    SweepOptions &withCorpusDir(std::string v)
    {
        corpus_dir = std::move(v);
        return *this;
    }
    SweepOptions &withScreenThreshold(double v)
    {
        screen_threshold = v;
        return *this;
    }
    /** fatal() unless @p v is "stall_frac" or a known stat name. */
    SweepOptions &withScreenStat(std::string v);
    SweepOptions &withScreenTop(std::uint64_t v)
    {
        screen_top = v;
        return *this;
    }
    /** Set one core-config override; fatal() with the full list of
     *  valid keys when @p key is not a known override. */
    SweepOptions &withOverride(const std::string &key,
                               const std::string &value);
};

Campaign makeFig5Campaign(const SweepOptions &opts);
Campaign makeLsqSizeCampaign(const SweepOptions &opts);
Campaign makeAssocCampaign(const SweepOptions &opts);
Campaign makeFaultCampaign(const SweepOptions &opts);
/**
 * Directed micro-test corpus sweep: every `.s` test in
 * opts.corpus_dir under the fig5 config trio (lsq48x32, enf, notenf)
 * with the GoldenChecker on — the corpus doubles as a cross-backend
 * differential suite. The bench_filter restricts to one test name.
 * Expectation blocks are evaluated by the caller (the CLI / the micro
 * ctest suite), not here: the campaign layer stays assertion-free.
 */
Campaign makeMicroCampaign(const SweepOptions &opts);

/**
 * Phase 1 of the mixed-fidelity screen sweep: the fig5 point set, every
 * job on the func_batch screening backend. The campaign is named
 * "screen"; the CLI (or a test harness) runs it, feeds the results to
 * selectForExactRerun(), re-runs the selected points with
 * makeScreenExactCampaign(), and renders one merged schema-v5 file.
 */
Campaign makeScreenCampaign(const SweepOptions &opts);

/**
 * Deterministic selection rule between the two screen phases. With
 * opts.screen_top == 0 (default): every point whose opts.screen_stat
 * exceeds opts.screen_threshold. With screen_top == K: the K
 * highest-stat points, ties broken toward the lower job index. A
 * quarantined screening job (no usable estimate) is always selected.
 * @return selected job indices, ascending.
 */
std::vector<std::size_t>
selectForExactRerun(const std::vector<JobResult> &screened,
                    const SweepOptions &opts);

/**
 * Phase 2: the subset of makeScreenCampaign()'s points named by
 * @p selected, each on the exact timing backend. Named "screen_exact"
 * so its journal (conventionally `<journal>.exact`) can never be
 * confused with phase 1's.
 */
Campaign makeScreenExactCampaign(const SweepOptions &opts,
                                 const std::vector<std::size_t> &selected);

/** Registered sweep names: the paper's tables in the order `paper`
 *  prints them, then paper, fault, micro and screen. */
const std::vector<std::string> &sweepNames();

/** Build a sweep by name; fatal() on an unknown name, listing every
 *  registered sweep. For "screen" this is phase 1 only — see
 *  makeScreenCampaign. */
Campaign makeSweep(const std::string &name, const SweepOptions &opts);

/**
 * The table text of a finished sweep: @p results are the sweep's own
 * results in job order, as makeSweep(@p name, @p opts) built it. Empty
 * for a sweep without a table (fault, micro, screen). fatal() on an
 * unknown name or when a cell the table reads is missing or failed.
 */
std::string renderSweep(const std::string &name, const SweepOptions &opts,
                        const std::vector<JobResult> &results);

/** Append the paper tables' header to @p out: "## title", a blank
 *  line, the column names and their rule. */
void tableHeader(std::string &out, const std::string &title,
                 const std::vector<std::string> &columns);

/** Append one table row to @p out: a name and numeric cells. */
void tableRow(std::string &out, const std::string &name,
              const std::vector<double> &cells);

} // namespace slf::campaign

#endif // SLFWD_DRIVER_CAMPAIGN_SWEEPS_HH_
