/**
 * @file
 * Tests for the campaign runner's span capture (obs/telemetry.hh): the
 * SpanSink and its Chrome trace exporter, the span-count invariants
 * across retries, and — the hard contract — spans on vs off leaving a
 * campaign's result JSON byte-identical.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <string>

#include "campaign/campaign.hh"
#include "campaign/result_sink.hh"
#include "obs/chrome_trace.hh"
#include "obs/telemetry.hh"
#include "sim/logging.hh"

using namespace slf;
using namespace slf::campaign;
using obs::CampaignSpan;
using obs::SpanKind;
using obs::SpanSink;

TEST(Telemetry, SpanSinkSortsAndCounts)
{
    SpanSink sink;
    sink.record({SpanKind::Attempt, 1, 7, 0, 100, 200, "a/w", "ok"});
    sink.record({SpanKind::Queue, 0, 7, 0, 10, 90, "a/w", "queued"});
    sink.record({SpanKind::Terminal, 1, 7, 0, 200, 200, "a/w", "ok"});
    EXPECT_EQ(sink.size(), 3u);
    EXPECT_EQ(sink.countKind(SpanKind::Queue), 1u);
    EXPECT_EQ(sink.countKind(SpanKind::Attempt), 1u);
    EXPECT_EQ(sink.countKind(SpanKind::Terminal), 1u);
    const auto spans = sink.spans();
    EXPECT_EQ(spans[0].kind, SpanKind::Queue);   // t0 10 first
    EXPECT_EQ(spans[2].kind, SpanKind::Terminal);

    const std::string trace =
        obs::toChromeCampaignTrace(sink, "camp", 2);
    EXPECT_NE(trace.find("\"name\":\"camp\""), std::string::npos);
    EXPECT_NE(trace.find("\"name\":\"worker 1\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"X\""), std::string::npos);
    EXPECT_NE(trace.find("\"ph\":\"i\""), std::string::npos);
    EXPECT_NE(trace.find("\"spans\":3"), std::string::npos);
}

namespace
{

JobSpec
syntheticJob(std::string config_name, std::string workload)
{
    JobSpec spec;
    spec.config_name = std::move(config_name);
    spec.workload = std::move(workload);
    spec.backend = BackendKind::Synthetic;
    return spec;
}

Campaign
syntheticCampaign(unsigned jobs)
{
    Campaign c("telemetry");
    for (unsigned i = 0; i < jobs; ++i)
        c.addJob(syntheticJob("cfg" + std::to_string(i % 2),
                              "wl" + std::to_string(i)));
    return c;
}

} // namespace

TEST(Telemetry, SpanCountsMatchAttemptsAcrossRetries)
{
    // wl3 fails twice before succeeding: 3 attempts for it, 1 each for
    // the other seven jobs.
    std::atomic<unsigned> wl3_attempts{0};
    ScopedSyntheticBackend synthetic(
        [&](const JobSpec &spec, const CoreConfig &, unsigned) {
            if (spec.workload == "wl3" && wl3_attempts.fetch_add(1) < 2)
                fatal("transient");
            SimResult r;
            r.insts = 1;
            return r;
        });

    const Campaign c = syntheticCampaign(8);
    SpanSink spans;
    CampaignOptions opts;
    opts.jobs = 3;
    opts.max_retries = 2;
    opts.retry_backoff_ms = 1;
    opts.telemetry.spans = &spans;
    const auto results = c.run(opts);

    unsigned total_attempts = 0;
    for (const JobResult &jr : results) {
        EXPECT_TRUE(jr.ok());
        total_attempts += jr.attempts;
    }
    EXPECT_EQ(total_attempts, 10u);  // 7x1 + 1x3

    // The invariant the trace viewer relies on: every executed job has
    // exactly one queue span, one terminal span and one attempt span
    // per attempt, with the retry edges labeled.
    EXPECT_EQ(spans.countKind(SpanKind::Queue), 8u);
    EXPECT_EQ(spans.countKind(SpanKind::Terminal), 8u);
    EXPECT_EQ(spans.countKind(SpanKind::Attempt), 10u);
    unsigned retry_spans = 0;
    for (const CampaignSpan &s : spans.spans())
        retry_spans += s.status == "retry:fatal" ? 1 : 0;
    EXPECT_EQ(retry_spans, 2u);
}

TEST(Telemetry, ResultJsonByteIdenticalWithTelemetryOn)
{
    ScopedSyntheticBackend synthetic(
        [](const JobSpec &, const CoreConfig &cfg, unsigned) {
            SimResult r;
            r.cycles = cfg.rng_seed % 1000 + 1;
            r.insts = 42;
            r.ipc = double(r.insts) / double(r.cycles);
            return r;
        });
    const Campaign c = syntheticCampaign(12);

    CampaignOptions plain;
    plain.jobs = 2;
    plain.progress = false;
    const std::string off = ResultSink::toJson(
        c.name(), plain.root_seed, c.run(plain));

    CampaignOptions traced = plain;
    SpanSink spans;
    traced.telemetry.spans = &spans;
    const std::string on = ResultSink::toJson(
        c.name(), traced.root_seed, c.run(traced));

    EXPECT_EQ(off, on);
    // 12 jobs, one attempt each: queue + attempt + terminal per job.
    EXPECT_EQ(spans.size(), 36u);
}
