/**
 * @file
 * Campaign: a config x workload x seed cross-product expanded into
 * independent jobs, executed on a work-stealing thread pool.
 *
 * Determinism contract: a job's outcome is a pure function of its
 * JobSpec and its position in the job list. Per-job randomness (core
 * RNG, fault-injection stream) is derived from the campaign root seed
 * and the job index with deriveSeed(), never from a shared generator,
 * so running with --jobs 1 and --jobs 8 produces byte-identical
 * results — the thread count only changes wall-clock time.
 *
 * A job that dies on the PR-1 watchdog fatal() is retried with
 * backoff; each retry re-derives the core seed with the attempt number
 * as salt (retrying a deterministic simulator with identical inputs
 * would wedge identically). A job that blows its host wall-clock
 * deadline (CampaignOptions::job_timeout_ms, polled cooperatively in
 * the sim loop) escalates down the same retry path but is recorded as
 * JobStatus::Timeout, distinct from Fatal. A job that exhausts its
 * retries is quarantined — recorded with the last error and the seeds
 * of the last attempt for offline reproduction — and never aborts the
 * campaign: the run completes with partial aggregates and a "failures"
 * manifest in the result JSON.
 *
 * Crash safety: with CampaignOptions::journal_path set, every terminal
 * JobResult is appended (fsync'd) to a write-ahead JSONL journal as it
 * finishes; with resume=true, journaled jobs are rehydrated instead of
 * re-run and the final JSON is byte-identical to an uninterrupted run.
 * See journal.hh for the format and the torn-tail rules.
 */

#ifndef SLFWD_DRIVER_CAMPAIGN_CAMPAIGN_HH_
#define SLFWD_DRIVER_CAMPAIGN_CAMPAIGN_HH_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cpu/core_config.hh"
#include "driver/backend.hh"
#include "driver/runner.hh"
#include "prog/program.hh"

namespace slf::obs
{
class SpanSink;
} // namespace slf::obs

namespace slf::campaign
{

/** One independent unit of work: a config applied to a workload. */
struct JobSpec
{
    /** Configuration label ("lsq48x32", "enf", phase name, ...). */
    std::string config_name;
    /** Workload label (analog or micro-workload name). */
    std::string workload;

    CoreConfig cfg;
    /** Builds the Program inside the worker (deterministic). */
    std::function<Program()> make_prog;

    /**
     * Derive cfg.rng_seed / cfg.fault.seed from root seed + job index.
     * Figure sweeps leave this off so every config sees the same core
     * randomness on a given workload (controlled comparison, matching
     * the serial benches); randomized campaigns (fault injection) turn
     * it on so each job draws an independent stream.
     */
    bool derive_seeds = false;

    /**
     * Which execution engine runs this job (see backend.hh). Part of
     * the job's identity: the journal digests it, so a journaled
     * screening record can never rehydrate into a timing job.
     */
    BackendKind backend = BackendKind::Timing;
};

enum class JobStatus : std::uint8_t
{
    Ok,       ///< produced a SimResult (possibly after retries)
    Fatal,    ///< every attempt died on fatal(); result is empty
    Timeout,  ///< last attempt blew the host wall-clock deadline
};

/** Canonical JSON/journal rendering of a status ("ok", "fatal", ...). */
const char *jobStatusName(JobStatus s);

struct JobResult
{
    std::size_t index = 0;
    std::string config_name;
    std::string workload;

    JobStatus status = JobStatus::Ok;
    unsigned attempts = 0;      ///< total attempts made (>= 1)
    std::string error;          ///< last fatal()/timeout message, if any

    /** Engine the job ran on (copied from the spec; the sink labels
     *  each record's fidelity from it in mixed-fidelity campaigns). */
    BackendKind backend = BackendKind::Timing;

    /** Seeds the last attempt actually ran with (offline repro of a
     *  quarantined job; equal to the spec's own seeds when the job
     *  neither derives seeds nor retried). */
    std::uint64_t core_seed = 0;
    std::uint64_t fault_seed = 0;

    /** Rehydrated from the write-ahead journal instead of re-run.
     *  Never rendered into the result JSON (it would break the
     *  byte-identical resume contract). */
    bool rehydrated = false;

    /** Host wall-clock the job took, all attempts and backoff included
     *  (journaled; never rendered into the result JSON — host timing
     *  would break the byte-identity contract). */
    std::uint64_t wall_ms = 0;

    SimResult result;

    bool ok() const { return status == JobStatus::Ok; }
};

struct JournalHooks;  // journal.hh (test seams for fault injection)

struct CampaignOptions
{
    unsigned jobs = 1;              ///< worker threads
    unsigned max_retries = 2;       ///< extra attempts after the first
    unsigned retry_backoff_ms = 10; ///< doubles per retry
    std::uint64_t root_seed = 1;
    bool progress = true;           ///< live stderr line (tty only)

    /** Per-job host wall-clock deadline in ms (0 = none), polled
     *  cooperatively in the sim loop; expiry retries, then quarantines
     *  the job as JobStatus::Timeout. */
    std::uint64_t job_timeout_ms = 0;

    /** Write-ahead job journal path (JSONL); empty = no journal. */
    std::string journal_path;
    /** Rehydrate journaled results and run only the missing suffix. */
    bool resume = false;
    /** With resume: re-run journaled quarantined jobs (fatal/timeout)
     *  instead of rehydrating them. The fresh terminal record appends
     *  to the journal and supersedes the old one on the next load
     *  (last-record-wins), so the escape hatch never needs the journal
     *  deleted — but the resumed run is no longer guaranteed
     *  byte-identical to an uninterrupted one (see the CLI docs). */
    bool retry_quarantined = false;
    /** Borrowed test seams for journal fault injection; may be null. */
    const JournalHooks *journal_hooks = nullptr;

    /** Runner-level span capture (see obs/telemetry.hh). Observation
     *  only: capturing spans leaves the campaign's results
     *  byte-identical (ctest-asserted). */
    struct TelemetryOptions
    {
        /** Borrowed span collector for queue/attempt/terminal spans;
         *  null = no span capture. */
        obs::SpanSink *spans = nullptr;
    };

    TelemetryOptions telemetry;
};

class Campaign
{
  public:
    explicit Campaign(std::string name) : name_(std::move(name)) {}

    const std::string &name() const { return name_; }

    /** Append a job. @return its index (stable result ordering key). */
    std::size_t addJob(JobSpec spec);

    std::size_t jobCount() const { return jobs_.size(); }
    const std::vector<JobSpec> &jobs() const { return jobs_; }

    /**
     * Execute every job and return results ordered by job index,
     * independent of thread count and scheduling.
     */
    std::vector<JobResult> run(const CampaignOptions &opts) const;

  private:
    std::string name_;
    std::vector<JobSpec> jobs_;
};

/** Salt spaces for deriveSeed so the streams cannot collide. */
enum class SeedStream : std::uint64_t
{
    Core = 0,
    Fault = 1,
};

/** The per-job seed for @p stream at @p attempt (0 = first try). */
std::uint64_t jobSeed(std::uint64_t root_seed, std::size_t job_index,
                      SeedStream stream, unsigned attempt);

} // namespace slf::campaign

#endif // SLFWD_DRIVER_CAMPAIGN_CAMPAIGN_HH_
