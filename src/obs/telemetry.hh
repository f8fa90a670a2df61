/**
 * @file
 * Runner-level span capture for the campaign runner.
 *
 * This observes the *campaign*, the many-job orchestration process,
 * complementing the per-simulation layer (stat_table / trace_sink /
 * occupancy), which observes a single core for one run. It is strictly
 * read-only with respect to simulation state: spans on or off, the
 * campaign's result JSON is byte-identical (ctest-asserted), because
 * nothing here ever feeds back into job scheduling, seeding or
 * results.
 *
 * SpanSink collects wall-clock span records for campaign jobs —
 * queue -> attempt(s) -> terminal, with retry/timeout edges — that
 * toChromeCampaignTrace() (chrome_trace.hh) renders as Chrome
 * trace_event JSON, one track per pool worker, so a whole campaign's
 * schedule renders in Perfetto alongside the per-cycle traces.
 */

#ifndef SLFWD_OBS_TELEMETRY_HH_
#define SLFWD_OBS_TELEMETRY_HH_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace slf::obs
{

enum class SpanKind : std::uint8_t
{
    Queue = 0,    ///< submit -> first attempt start
    Attempt = 1,  ///< one backend.run() attempt
    Terminal = 2, ///< instant: the job reached a terminal status
};

struct CampaignSpan
{
    SpanKind kind = SpanKind::Attempt;
    std::uint32_t worker = 0;   ///< pool worker track (tid in the trace)
    std::uint64_t job = 0;      ///< job index
    std::uint32_t attempt = 0;  ///< attempt number (Attempt spans)
    std::uint64_t t0_us = 0;    ///< start, µs since SpanSink creation
    std::uint64_t t1_us = 0;    ///< end (== t0_us for Terminal)
    std::string name;           ///< "config/workload"
    /** Span outcome: "ok", "fatal", "timeout" for terminal attempts,
     *  "retry:fatal"/"retry:timeout" for attempts that retried,
     *  "queued" for Queue spans. */
    std::string status;
};

/** Thread-safe collector of campaign spans, wall-clock anchored at
 *  construction. */
class SpanSink
{
  public:
    SpanSink() : start_(std::chrono::steady_clock::now()) {}

    /** Microseconds since construction (the spans' time base). */
    std::uint64_t nowUs() const
    {
        return std::uint64_t(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start_)
                .count());
    }

    void record(CampaignSpan span);

    /** Snapshot, sorted by (t0_us, job, kind) for stable rendering. */
    std::vector<CampaignSpan> spans() const;

    std::size_t size() const;

    /** Spans of one kind (test invariants: attempts == sum(attempts)). */
    std::size_t countKind(SpanKind k) const;

  private:
    std::chrono::steady_clock::time_point start_;
    mutable std::mutex mutex_;
    std::vector<CampaignSpan> spans_;
};

} // namespace slf::obs

#endif // SLFWD_OBS_TELEMETRY_HH_
