/**
 * @file
 * JobJournal: a write-ahead job journal making campaigns crash-safe
 * and resumable.
 *
 * The journal is an append-only JSONL file. Line 0 is a header record
 * binding the file to one campaign identity (campaign name, root seed,
 * job count); every following line is one terminal JobResult — ok,
 * fatal or timeout — appended by the worker that finished it. Each
 * line carries a CRC32 of its own bytes and each job record carries a
 * digest of the job's identity (labels, salient core-config fields,
 * index, root seed), so a journal can never silently rehydrate results
 * into the wrong campaign. Appends are fsync'd before they count:
 * after append() returns, that job survives SIGKILL, OOM-kill or power
 * loss.
 *
 * Durability boundary and replay: on `--resume`, load() replays the
 * journal and rehydrates every journaled JobResult — including
 * quarantined failures (re-running a deterministic failure buys
 * nothing; a *timeout* is host-dependent and re-running it would break
 * the byte-identical-output contract). Only the unjournaled suffix of
 * the job list re-runs. The rehydrated SimResult round-trips every
 * field the ResultSink renders (counters, ipc, occupancy
 * distributions, CPI stack, blame records), so the final JSON of an
 * interrupted-and-resumed campaign is byte-identical to an
 * uninterrupted run. (Checker failure *reports* — debugging payloads
 * never rendered into campaign JSON — are not journaled.)
 *
 * Torn-tail rule: a crash mid-append leaves a torn last line. load()
 * validates lines in order (CRC, parse, digest) and stops at the first
 * invalid one, dropping it and everything after: every record is
 * independently recomputable, so dropping a suspect suffix is always
 * sound, never corrupting.
 *
 * Host-fault injection seams (tests + CI harness):
 *  - JournalHooks lets a test make append n torn (half the record's
 *    bytes, fsync'd) and/or run code after a durable append — the
 *    crash-recovery suite forks and _exit(137)s there, a SIGKILL-grade
 *    death at an exact journal boundary;
 *  - SLFWD_JOURNAL_KILL_AFTER=N kills the *process* with _exit(137)
 *    at the 0-based append index N, right after that record is made
 *    durable (SLFWD_JOURNAL_KILL_TORN=1 makes that append torn
 *    instead, so the line is half-written when the process dies), so
 *    CI can crash the real CLI mid-campaign without test scaffolding.
 */

#ifndef SLFWD_DRIVER_CAMPAIGN_JOURNAL_HH_
#define SLFWD_DRIVER_CAMPAIGN_JOURNAL_HH_

#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "campaign/campaign.hh"

namespace slf::campaign
{

/** Test seams for host-fault injection at journal boundaries. */
struct JournalHooks
{
    /** Return true to make record @p n's append torn: only the first
     *  half of the line is written (and fsync'd), simulating a crash
     *  mid-append. The record does NOT count as appended, and the
     *  journal handle goes dead — every later append is silently
     *  dropped, because a process that tore a record is a process that
     *  died there (letting later records land after the tear would
     *  fabricate a file no real crash can produce). */
    std::function<bool(std::size_t n)> torn_append;
    /** Called after record @p n is durably appended (post-fsync) —
     *  kill/throw here to die exactly between jobs. */
    std::function<void(std::size_t n)> after_append;
};

class JobJournal
{
  public:
    /** What load() saw; all counters are record-level. */
    struct LoadStats
    {
        bool header_valid = false;   ///< line 0 parsed and matched
        std::size_t records = 0;     ///< valid job records rehydrated
        std::size_t dropped = 0;     ///< lines dropped by the tail rule
        std::size_t mismatched = 0;  ///< valid lines with a stale digest
    };

    /**
     * Replay @p path and rehydrate terminal JobResults for @p jobs.
     *
     * A missing or empty file, or a torn/corrupt header, yields no
     * results (header_valid=false) — the caller starts a fresh journal.
     * A *valid* header naming a different campaign/root-seed/job-count
     * is a hard fatal(): silently mixing two campaigns' results would
     * be corruption, not recovery. Job records are validated in order
     * (CRC, parse, digest vs the actual JobSpec) and the first invalid
     * line ends the replay (torn-tail rule); a well-formed record whose
     * digest does not match its spec is skipped and counted, and that
     * job simply re-runs.
     *
     * @return one slot per job; engaged slots hold rehydrated results.
     */
    static std::vector<std::optional<JobResult>>
    load(const std::string &path, const std::string &campaign_name,
         std::uint64_t root_seed, const std::vector<JobSpec> &jobs,
         LoadStats *stats = nullptr);

    /**
     * Open @p path for appending. With @p resume the existing contents
     * are kept (load() has already validated the header); otherwise the
     * file is truncated. A fresh/empty file gets a header record, and
     * the containing directory is fsync'd so the journal's existence
     * itself survives a crash.
     */
    JobJournal(std::string path, const std::string &campaign_name,
               std::uint64_t root_seed, std::size_t job_count,
               bool resume, const JournalHooks *hooks = nullptr);
    ~JobJournal();

    JobJournal(const JobJournal &) = delete;
    JobJournal &operator=(const JobJournal &) = delete;

    /**
     * Append one terminal JobResult (thread-safe) and fsync it. After
     * this returns the record is durable. fatal() on I/O errors — the
     * campaign layer downgrades that to a warning, because a broken
     * journal must never take the campaign's in-memory results with it.
     */
    void append(const JobResult &jr, std::uint64_t digest);

    /** Records durably appended through this handle. */
    std::size_t appended() const;

    /** Bytes durably written through this handle, header included
     *  (perfbench: journal bytes per job). */
    std::uint64_t bytesWritten() const;

    /**
     * Identity digest of one job: FNV-1a over the job labels, the
     * salient CoreConfig fields (pipeline shape, subsystem, predictor
     * mode, structure geometry, run control, fault rates), derive_seeds,
     * the job index and the campaign root seed. The program itself is
     * not hashed (building it just to hash it would double campaign
     * startup) — workload identity rides on the workload label, which
     * generators derive from their parameters.
     */
    static std::uint64_t specDigest(const JobSpec &spec,
                                    std::size_t job_index,
                                    std::uint64_t root_seed);

    /** Serialize/parse one job record line (exposed for tests). */
    static std::string recordLine(const JobResult &jr,
                                  std::uint64_t digest);

    /**
     * Atomically rewrite @p path as a fresh journal holding the header
     * plus exactly the rehydrated records in @p keep (engaged slots,
     * in job-index order), dropping every stale/mismatched line. Used
     * by the campaign layer when a many-times-resumed journal's stale
     * fraction passes 50%. Crash-safe: tmp + fsync + rename, so a
     * death mid-compaction leaves the old journal intact.
     */
    static void compact(const std::string &path,
                        const std::string &campaign_name,
                        std::uint64_t root_seed,
                        const std::vector<JobSpec> &jobs,
                        const std::vector<std::optional<JobResult>> &keep);

  private:
    void writeLine(const std::string &line, bool torn);

    std::string path_;
    const JournalHooks *hooks_ = nullptr;
    mutable std::mutex mutex_;
    int fd_ = -1;
    std::size_t appended_ = 0;
    std::uint64_t bytes_written_ = 0;
    /** Env-seam kill point (SLFWD_JOURNAL_KILL_AFTER); SIZE_MAX=off. */
    std::size_t kill_after_ = SIZE_MAX;
    bool kill_torn_ = false;
    /** Set by a torn test append: the simulated crash point was here,
     *  so later appends are dropped (see JournalHooks::torn_append). */
    bool dead_ = false;
};

} // namespace slf::campaign

#endif // SLFWD_DRIVER_CAMPAIGN_JOURNAL_HH_
