#include "campaign.hh"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <thread>
#include <unistd.h>

#include "campaign/journal.hh"
#include "campaign/thread_pool.hh"
#include "obs/telemetry.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"

namespace slf::campaign
{

std::uint64_t
jobSeed(std::uint64_t root_seed, std::size_t job_index, SeedStream stream,
        unsigned attempt)
{
    // Two nested derivations: (root, job x stream) picks the job's
    // stream, (stream_seed, attempt) salts retries.
    const std::uint64_t stream_seed = deriveSeed(
        root_seed,
        job_index * 2 + static_cast<std::uint64_t>(stream));
    return attempt == 0 ? stream_seed : deriveSeed(stream_seed, attempt);
}

const char *
jobStatusName(JobStatus s)
{
    switch (s) {
      case JobStatus::Ok:
        return "ok";
      case JobStatus::Fatal:
        return "fatal";
      case JobStatus::Timeout:
        return "timeout";
    }
    return "fatal";
}

std::size_t
Campaign::addJob(JobSpec spec)
{
    jobs_.push_back(std::move(spec));
    return jobs_.size() - 1;
}

namespace
{

/** Run one job to completion, retrying fatal() deaths and deadline
 *  expiries with backoff; exhausted jobs come back quarantined
 *  (status Fatal/Timeout) with the last error and the seeds of the
 *  last attempt, never as an exception. */
JobResult
runJob(const JobSpec &spec, std::size_t index, const CampaignOptions &opts,
       obs::SpanSink *spans)
{
    JobResult jr;
    jr.index = index;
    jr.config_name = spec.config_name;
    jr.workload = spec.workload;
    jr.backend = spec.backend;

    // Resolve the engine once, outside the retry loop: an unregistered
    // backend is a campaign bug, not a per-attempt failure to retry.
    const Backend &backend = backendFor(spec.backend);

    const int worker_idx = ThreadPool::currentWorker();
    const std::uint32_t worker =
        worker_idx < 0 ? 0 : std::uint32_t(worker_idx);
    const std::string span_name = spec.config_name + "/" + spec.workload;

    for (unsigned attempt = 0;; ++attempt) {
        jr.attempts = attempt + 1;

        CoreConfig cfg = spec.cfg;
        // TraceSink / HostProfiler / LifetimeSink are single-run,
        // single-thread objects; sharing one across pool workers would
        // race. Campaign jobs keep only the occupancy sampling flag
        // (distributions are per-job and merge in the sink).
        cfg.obs.trace = nullptr;
        cfg.obs.profiler = nullptr;
        cfg.obs.lifetime = nullptr;
        if (spec.derive_seeds || attempt > 0) {
            cfg.rng_seed =
                jobSeed(opts.root_seed, index, SeedStream::Core, attempt);
            cfg.fault.seed =
                jobSeed(opts.root_seed, index, SeedStream::Fault, attempt);
        }
        if (opts.job_timeout_ms)
            cfg.deadline_ms = opts.job_timeout_ms;
        // The seeds this attempt actually runs with: recorded so a
        // quarantined job's manifest entry reproduces offline.
        jr.core_seed = cfg.rng_seed;
        jr.fault_seed = cfg.fault.seed;

        const std::uint64_t t0 = spans ? spans->nowUs() : 0;
        auto attemptSpan = [&](const char *status) {
            if (!spans)
                return;
            spans->record({obs::SpanKind::Attempt, worker,
                           std::uint64_t(index), attempt, t0,
                           spans->nowUs(), span_name, status});
        };

        try {
            jr.result = backend.run(spec, cfg, attempt);
            jr.status = JobStatus::Ok;
            jr.error.clear();
            attemptSpan("ok");
            return jr;
        } catch (const JobTimeout &e) {
            jr.error = e.what();
            if (attempt >= opts.max_retries) {
                jr.status = JobStatus::Timeout;
                attemptSpan("timeout");
                return jr;
            }
            attemptSpan("retry:timeout");
        } catch (const FatalError &e) {
            jr.error = e.what();
            if (attempt >= opts.max_retries) {
                jr.status = JobStatus::Fatal;
                attemptSpan("fatal");
                return jr;
            }
            attemptSpan("retry:fatal");
        }
        const auto backoff = std::chrono::milliseconds(
            std::uint64_t(opts.retry_backoff_ms) << attempt);
        std::this_thread::sleep_for(backoff);
    }
}

} // namespace

std::vector<JobResult>
Campaign::run(const CampaignOptions &opts) const
{
    std::vector<JobResult> results(jobs_.size());
    if (jobs_.empty())
        return results;

    // Rehydrate journaled results before spinning up workers: jobs with
    // an engaged slot are already terminal and never re-run.
    std::vector<std::optional<JobResult>> cached(jobs_.size());
    if (!opts.journal_path.empty() && opts.resume) {
        JobJournal::LoadStats ls;
        cached = JobJournal::load(opts.journal_path, name_,
                                  opts.root_seed, jobs_, &ls);
        if (ls.records || ls.dropped || ls.mismatched) {
            inform("journal: resumed " + std::to_string(ls.records) +
                   "/" + std::to_string(jobs_.size()) + " jobs (" +
                   std::to_string(ls.dropped) + " torn/invalid lines "
                   "dropped, " + std::to_string(ls.mismatched) +
                   " stale records ignored)");
        }
        // Compaction: a many-times-resumed campaign (specs edited
        // between resumes, --retry-quarantined supersessions) accretes
        // stale records forever. Once they outnumber the live ones
        // (stale fraction > 50%), atomically rewrite the journal as
        // header + the currently valid records.
        if (ls.header_valid && ls.mismatched > ls.records) {
            JobJournal::compact(opts.journal_path, name_,
                                opts.root_seed, jobs_, cached);
            inform("journal: compacted (" +
                   std::to_string(ls.mismatched) +
                   " stale records dropped, " +
                   std::to_string(ls.records) + " kept)");
        }
        // Operator escape hatch: give journaled failures a fresh run
        // instead of rehydrating the quarantine record. The new
        // terminal record appends behind the old one and wins on the
        // next load (last-record-wins), at the documented cost of the
        // byte-identity guarantee for this resume.
        if (opts.retry_quarantined) {
            std::size_t retried = 0;
            for (auto &slot : cached) {
                if (slot && !slot->ok()) {
                    slot.reset();
                    ++retried;
                }
            }
            if (retried)
                inform("journal: --retry-quarantined re-running " +
                       std::to_string(retried) + " quarantined job(s)");
        }
    }

    std::unique_ptr<JobJournal> journal;
    if (!opts.journal_path.empty()) {
        journal = std::make_unique<JobJournal>(
            opts.journal_path, name_, opts.root_seed, jobs_.size(),
            opts.resume, opts.journal_hooks);
    }

    const bool live_progress =
        opts.progress && isatty(fileno(stderr)) != 0;
    std::atomic<std::size_t> done{0};
    std::atomic<std::size_t> failed{0};

    for (std::size_t i = 0; i < jobs_.size(); ++i) {
        if (cached[i]) {
            results[i] = std::move(*cached[i]);
            if (!results[i].ok())
                failed.fetch_add(1, std::memory_order_relaxed);
            done.fetch_add(1, std::memory_order_relaxed);
        }
    }

    obs::SpanSink *const spans = opts.telemetry.spans;
    {
        ThreadPool pool(opts.jobs);
        for (std::size_t i = 0; i < jobs_.size(); ++i) {
            if (results[i].rehydrated)
                continue;
            const std::uint64_t submit_us = spans ? spans->nowUs() : 0;
            pool.submit([this, i, &opts, &results, &done, &failed,
                         live_progress, &journal, spans, submit_us] {
                const int wi = ThreadPool::currentWorker();
                const std::uint32_t worker =
                    wi < 0 ? 0 : std::uint32_t(wi);
                if (spans) {
                    // Queue span: submit -> this worker picking it up.
                    spans->record({obs::SpanKind::Queue, worker,
                                   std::uint64_t(i), 0, submit_us,
                                   spans->nowUs(),
                                   jobs_[i].config_name + "/" +
                                       jobs_[i].workload,
                                   "queued"});
                }

                // Slot i is exclusively ours: no synchronization needed
                // beyond the pool's completion barrier.
                const auto t0 = std::chrono::steady_clock::now();
                results[i] = runJob(jobs_[i], i, opts, spans);
                results[i].wall_ms = std::uint64_t(
                    std::chrono::duration_cast<std::chrono::milliseconds>(
                        std::chrono::steady_clock::now() - t0)
                        .count());

                if (spans) {
                    const std::uint64_t now = spans->nowUs();
                    spans->record({obs::SpanKind::Terminal, worker,
                                   std::uint64_t(i),
                                   results[i].attempts - 1, now, now,
                                   jobs_[i].config_name + "/" +
                                       jobs_[i].workload,
                                   jobStatusName(results[i].status)});
                }

                if (journal) {
                    // Pool tasks must not throw (std::terminate); and a
                    // broken journal must never take the campaign's
                    // in-memory results with it — downgrade to a warning.
                    try {
                        journal->append(
                            results[i],
                            JobJournal::specDigest(jobs_[i], i,
                                                   opts.root_seed));
                    } catch (const FatalError &e) {
                        warn(std::string("journal append failed: ") +
                             e.what());
                    }
                }
                if (!results[i].ok())
                    failed.fetch_add(1, std::memory_order_relaxed);
                const std::size_t n =
                    done.fetch_add(1, std::memory_order_relaxed) + 1;
                if (live_progress) {
                    std::fprintf(
                        stderr, "\r[%zu/%zu] %s  ok=%zu fail=%zu   ",
                        n, jobs_.size(), name_.c_str(),
                        n - failed.load(std::memory_order_relaxed),
                        failed.load(std::memory_order_relaxed));
                    if (n == jobs_.size())
                        std::fprintf(stderr, "\n");
                    std::fflush(stderr);
                }
            });
        }
        pool.wait();
    }
    return results;
}

} // namespace slf::campaign
