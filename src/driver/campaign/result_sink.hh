/**
 * @file
 * ResultSink: canonical machine-readable JSON for campaign results.
 *
 * The rendering is *canonical*: jobs sorted by index, a fixed field
 * order, fixed floating-point formatting, and no timestamps, hostnames,
 * thread counts or durations. Two runs of the same campaign therefore
 * produce byte-identical files regardless of --jobs — this is the
 * property the determinism ctest asserts. Wall-clock measurements
 * belong outside it (perfbench's wall_s and job_ms metrics).
 *
 * Files are written atomically AND durably: content goes to
 * "<path>.tmp.<pid>" in the destination directory, is fsync'd, is
 * rename(2)d over the target, and the parent directory is fsync'd — so
 * a reader never observes a torn file and a crash straight after
 * writeFileAtomic returns cannot resurface the old contents (or an
 * empty file) after reboot. Error paths unlink the tmp file instead of
 * leaking it. An existing target that is not a regular file (a FIFO,
 * /dev/null) is written in place instead, so it stays what it is.
 */

#ifndef SLFWD_DRIVER_CAMPAIGN_RESULT_SINK_HH_
#define SLFWD_DRIVER_CAMPAIGN_RESULT_SINK_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/campaign.hh"

namespace slf::campaign
{

/**
 * Selection-rule provenance for a mixed-fidelity (screen-then-rerun)
 * campaign; rendered as the "screen" section of a schema-v5 file so a
 * reader can tell exactly why each point did or did not get an exact
 * re-run.
 */
struct ScreenInfo
{
    /** Statistic the rule selected on ("stall_frac" or a SimResult
     *  stat name from verify/expectation.hh). */
    std::string stat = "stall_frac";
    /** Threshold rule: re-run every point whose stat exceeds this. */
    double threshold = 0.0;
    /** Top-K rule: re-run the K highest-stat points (0 = threshold
     *  rule is in force instead). */
    std::size_t top_k = 0;
    std::size_t screened = 0;  ///< phase-1 (func_batch) jobs
    std::size_t reran = 0;     ///< phase-2 (timing) re-runs selected
};

class ResultSink
{
  public:
    /**
     * Schema versions. v1 is the original counters-only layout; v2 adds
     * the per-job / per-aggregate "obs" occupancy section; v3 adds the
     * "cpi_stack" and "blame" attribution sections; v4 adds the
     * "failures" quarantine manifest (config, workload, attempts, last
     * error and the last attempt's seeds for every job that exhausted
     * its retries or deadline); v5 is the mixed-fidelity layout: every
     * job and aggregate record carries "backend" and "fidelity" labels,
     * aggregates are keyed (config, backend) so screening estimates
     * never average into exact numbers, and the "screen" section
     * records the selection rule. Sections are only emitted when their
     * data is present, and the version is the highest section present
     * anywhere in the file: a campaign with no occupancy samples and no
     * classified cycles (synthetic results) renders as v1, byte for
     * byte, so downstream diffing against pre-obs result files still
     * works and the determinism ctest keeps its guarantee. Every real
     * core run classifies its cycles, so campaign output is v3 in
     * practice; v4 appears exactly when something was quarantined, and
     * v5 exactly when a screening backend produced any of the results —
     * an all-exact campaign is byte-identical to its v4 rendering no
     * matter which backend enum values rode along.
     */
    static constexpr unsigned kSchemaVersion = 1;
    static constexpr unsigned kSchemaVersionObs = 2;
    static constexpr unsigned kSchemaVersionCpi = 3;
    static constexpr unsigned kSchemaVersionFailures = 4;
    static constexpr unsigned kSchemaVersionMixed = 5;

    /**
     * Render a campaign's results as canonical JSON. Includes one
     * record per job plus per-config aggregates (SimResult counters
     * merged across that config's jobs with SimResult::mergeFrom).
     * @p screen, when non-null, forces the v5 layout and renders the
     * selection rule; otherwise v5 engages only if any result came
     * from a screening-fidelity backend.
     */
    static std::string toJson(const std::string &campaign_name,
                              std::uint64_t root_seed,
                              const std::vector<JobResult> &results,
                              const ScreenInfo *screen = nullptr);

    /** Atomically replace @p path with @p content (tmp + rename); a
     *  FIFO or device at @p path is written in place instead. */
    static void writeFileAtomic(const std::string &path,
                                const std::string &content);

    /** fsync the directory containing @p path, so a new or renamed
     *  entry is durable too. Best-effort: some filesystems refuse. */
    static void fsyncParentDir(const std::string &path);
};

} // namespace slf::campaign

#endif // SLFWD_DRIVER_CAMPAIGN_RESULT_SINK_HH_
