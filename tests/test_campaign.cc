/**
 * @file
 * Tests for the parallel campaign runner: work-stealing thread pool
 * semantics, job determinism across thread counts, the
 * retry-with-backoff fatal() path, and canonical JSON rendering with
 * atomic writes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <set>
#include <thread>

#include "campaign/campaign.hh"
#include "campaign/result_sink.hh"
#include "campaign/sweeps.hh"
#include "campaign/thread_pool.hh"
#include "sim/logging.hh"

using namespace slf;
using namespace slf::campaign;

// ---------------------------------------------------------------------
// ThreadPool
// ---------------------------------------------------------------------

TEST(ThreadPool, RunsEveryTask)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.threadCount(), 4u);
    std::atomic<int> count{0};
    for (int i = 0; i < 200; ++i)
        EXPECT_TRUE(pool.submit([&count] { ++count; }));
    pool.wait();
    EXPECT_EQ(count.load(), 200);
}

TEST(ThreadPool, ZeroThreadsClampsToOne)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.threadCount(), 1u);
    std::atomic<int> count{0};
    pool.submit([&count] { ++count; });
    pool.wait();
    EXPECT_EQ(count.load(), 1);
}

TEST(ThreadPool, WaitWithNothingSubmittedReturns)
{
    ThreadPool pool(2);
    pool.wait();   // must not hang
}

TEST(ThreadPool, GracefulShutdownDrainsQueuedTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(2);
        for (int i = 0; i < 64; ++i) {
            pool.submit([&count] {
                std::this_thread::sleep_for(std::chrono::microseconds(200));
                ++count;
            });
        }
        pool.shutdown();   // must drain all 64, then join
        EXPECT_EQ(count.load(), 64);
        // After shutdown the pool no longer accepts work.
        EXPECT_FALSE(pool.submit([&count] { ++count; }));
        pool.shutdown();   // idempotent
    }
    EXPECT_EQ(count.load(), 64);
}

TEST(ThreadPool, DestructorDrainsQueuedTasks)
{
    std::atomic<int> count{0};
    {
        ThreadPool pool(3);
        for (int i = 0; i < 40; ++i)
            pool.submit([&count] { ++count; });
    }
    EXPECT_EQ(count.load(), 40);
}

TEST(ThreadPool, StealsWorkFromBusyQueues)
{
    // Deterministic steal setup: park BOTH workers on blocker tasks
    // (one per round-robin deque), then enqueue one short task into
    // each deque. Releasing blocker A frees exactly one worker, which
    // pops its own short task and — its deque now empty — must steal
    // the other short from the still-parked worker's deque before
    // blocker B's exit condition (both shorts done) can hold.
    ThreadPool pool(2);
    std::atomic<int> started{0};
    std::atomic<bool> release{false};
    std::atomic<int> count{0};

    pool.submit([&] {                      // blocker A -> deque 0
        ++started;
        while (!release.load())
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
    pool.submit([&] {                      // blocker B -> deque 1
        ++started;
        while (count.load() < 2)
            std::this_thread::sleep_for(std::chrono::microseconds(50));
    });
    while (started.load() < 2)             // both workers are parked
        std::this_thread::sleep_for(std::chrono::microseconds(50));

    pool.submit([&count] { ++count; });    // short task -> deque 0
    pool.submit([&count] { ++count; });    // short task -> deque 1
    release.store(true);

    pool.wait();
    EXPECT_EQ(count.load(), 2);
    EXPECT_GT(pool.steals(), 0u);
}

TEST(ThreadPool, CurrentWorkerNamesThePoolThread)
{
    ThreadPool pool(3);
    EXPECT_EQ(ThreadPool::currentWorker(), -1);  // off-pool thread
    std::atomic<int> count{0};
    std::atomic<bool> saw_worker_id{true};
    for (int i = 0; i < 100; ++i) {
        pool.submit([&] {
            const int w = ThreadPool::currentWorker();
            if (w < 0 || w >= 3)
                saw_worker_id = false;
            ++count;
        });
    }
    pool.wait();
    EXPECT_EQ(count.load(), 100);
    EXPECT_TRUE(saw_worker_id.load());
}

// ---------------------------------------------------------------------
// Campaign determinism and retries
// ---------------------------------------------------------------------

namespace
{

/** A synthetic-backend job: dispatched to whatever Fn the enclosing
 *  test installed with ScopedSyntheticBackend. */
JobSpec
syntheticJob(std::string config_name, std::string workload,
             bool derive_seeds = false)
{
    JobSpec spec;
    spec.config_name = std::move(config_name);
    spec.workload = std::move(workload);
    spec.derive_seeds = derive_seeds;
    spec.backend = BackendKind::Synthetic;
    return spec;
}

/** A tiny campaign of pure-compute jobs with derived seeds. */
Campaign
syntheticCampaign(unsigned jobs)
{
    Campaign c("synthetic");
    for (unsigned i = 0; i < jobs; ++i)
        c.addJob(syntheticJob("cfg" + std::to_string(i % 3),
                              "wl" + std::to_string(i), true));
    return c;
}

/** The runner for syntheticCampaign(): echo the derived seeds through
 *  counters so the JSON captures exactly what the job observed. */
ScopedSyntheticBackend::Fn
seedEchoRunner()
{
    return [](const JobSpec &, const CoreConfig &cfg, unsigned) {
        SimResult r;
        r.cycles = cfg.rng_seed % 100000;
        r.insts = cfg.fault.seed % 100000;
        r.ipc = r.cycles ? double(r.insts) / double(r.cycles) : 0.0;
        return r;
    };
}

/** The numeric suffix of a "wl<N>" workload label. */
unsigned
wlIndex(const JobSpec &spec)
{
    return unsigned(std::stoul(spec.workload.substr(2)));
}

} // namespace

TEST(Campaign, JobSeedIsDeterministicAndCollisionFree)
{
    std::set<std::uint64_t> seen;
    for (std::size_t job = 0; job < 100; ++job) {
        for (unsigned attempt = 0; attempt < 3; ++attempt) {
            for (SeedStream s : {SeedStream::Core, SeedStream::Fault}) {
                const std::uint64_t a = jobSeed(42, job, s, attempt);
                EXPECT_EQ(a, jobSeed(42, job, s, attempt));
                seen.insert(a);
            }
        }
    }
    // 100 jobs x 3 attempts x 2 streams, all distinct.
    EXPECT_EQ(seen.size(), 600u);
    EXPECT_NE(jobSeed(1, 0, SeedStream::Core, 0),
              jobSeed(2, 0, SeedStream::Core, 0));
}

TEST(Campaign, ResultsAreByteIdenticalAcrossThreadCounts)
{
    const Campaign c = syntheticCampaign(40);
    ScopedSyntheticBackend synthetic(seedEchoRunner());

    CampaignOptions one;
    one.jobs = 1;
    one.progress = false;
    CampaignOptions eight;
    eight.jobs = 8;
    eight.progress = false;

    const auto r1 = c.run(one);
    const auto r8 = c.run(eight);

    const std::string j1 = ResultSink::toJson(c.name(), one.root_seed, r1);
    const std::string j8 =
        ResultSink::toJson(c.name(), eight.root_seed, r8);
    EXPECT_EQ(j1, j8);   // byte-identical, not just equivalent
    EXPECT_NE(j1.find("\"schema_version\": 1"), std::string::npos);
}

TEST(Campaign, ResultsOrderedByJobIndexRegardlessOfCompletionOrder)
{
    Campaign c("ordering");
    for (unsigned i = 0; i < 16; ++i)
        c.addJob(syntheticJob("cfg", "wl" + std::to_string(i)));
    ScopedSyntheticBackend synthetic(
        [](const JobSpec &spec, const CoreConfig &, unsigned) {
            // Earlier jobs sleep longer, so completion order is
            // roughly reversed from submission order.
            const unsigned i = wlIndex(spec);
            std::this_thread::sleep_for(
                std::chrono::microseconds((16 - i) * 100));
            SimResult r;
            r.insts = i;
            return r;
        });
    CampaignOptions opts;
    opts.jobs = 8;
    opts.progress = false;
    const auto results = c.run(opts);
    ASSERT_EQ(results.size(), 16u);
    for (unsigned i = 0; i < 16; ++i) {
        EXPECT_EQ(results[i].index, i);
        EXPECT_EQ(results[i].result.insts, i);
        EXPECT_EQ(results[i].workload, "wl" + std::to_string(i));
    }
}

TEST(Campaign, RetriesFatalJobsWithSaltedSeedsThenSucceeds)
{
    Campaign c("retry");
    std::atomic<unsigned> observed_attempts{0};
    std::vector<std::uint64_t> seeds_seen;
    std::mutex seeds_mutex;

    c.addJob(syntheticJob("flaky", "wl"));
    ScopedSyntheticBackend synthetic(
        [&](const JobSpec &, const CoreConfig &cfg, unsigned attempt) {
            {
                std::lock_guard<std::mutex> lock(seeds_mutex);
                seeds_seen.push_back(cfg.rng_seed);
            }
            ++observed_attempts;
            if (attempt < 2)
                fatal("synthetic watchdog wedge, attempt " +
                      std::to_string(attempt));
            SimResult r;
            r.insts = 7;
            return r;
        });

    CampaignOptions opts;
    opts.jobs = 2;
    opts.max_retries = 2;
    opts.retry_backoff_ms = 1;   // keep the test fast
    opts.progress = false;

    const auto results = c.run(opts);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Ok);
    EXPECT_EQ(results[0].attempts, 3u);
    EXPECT_EQ(results[0].result.insts, 7u);
    EXPECT_EQ(observed_attempts.load(), 3u);
    // Each retry re-derives the core seed with the attempt as salt.
    ASSERT_EQ(seeds_seen.size(), 3u);
    EXPECT_NE(seeds_seen[1], seeds_seen[0]);
    EXPECT_NE(seeds_seen[2], seeds_seen[1]);
    EXPECT_EQ(seeds_seen[1], jobSeed(opts.root_seed, 0, SeedStream::Core, 1));
}

TEST(Campaign, ExhaustedRetriesRecordFatalWithoutAbortingCampaign)
{
    Campaign c("doomed");
    c.addJob(syntheticJob("bad", "wl"));
    c.addJob(syntheticJob("good", "wl"));
    ScopedSyntheticBackend synthetic(
        [](const JobSpec &spec, const CoreConfig &, unsigned) {
            if (spec.config_name == "bad")
                fatal("always wedges");
            SimResult r;
            r.insts = 1;
            return r;
        });

    CampaignOptions opts;
    opts.jobs = 2;
    opts.max_retries = 1;
    opts.retry_backoff_ms = 1;
    opts.progress = false;

    const auto results = c.run(opts);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_EQ(results[0].status, JobStatus::Fatal);
    EXPECT_EQ(results[0].attempts, 2u);
    EXPECT_EQ(results[0].error, "always wedges");
    EXPECT_EQ(results[1].status, JobStatus::Ok);
    EXPECT_EQ(results[1].result.insts, 1u);
}

TEST(Campaign, RetryQuarantinedReRunsJournaledFailures)
{
    // A journaled quarantine sticks on a plain --resume but re-runs
    // under retry_quarantined — and the fresh terminal record
    // supersedes the old one on the *next* load (last-record-wins).
    const std::string journal =
        ::testing::TempDir() + "slfwd_retry_quarantined.jsonl";
    std::remove(journal.c_str());

    std::atomic<bool> heal{false};
    std::atomic<unsigned> runs{0};
    Campaign c("quarantine_retry");
    c.addJob(syntheticJob("flaky", "wl"));
    ScopedSyntheticBackend synthetic(
        [&](const JobSpec &, const CoreConfig &, unsigned) {
            ++runs;
            if (!heal.load())
                fatal("transient host failure");
            SimResult r;
            r.insts = 9;
            return r;
        });

    CampaignOptions opts;
    opts.jobs = 1;
    opts.max_retries = 0;
    opts.progress = false;
    opts.journal_path = journal;

    // Pass 1: the job quarantines and lands in the journal as fatal.
    auto r = c.run(opts);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].status, JobStatus::Fatal);
    EXPECT_EQ(runs.load(), 1u);

    // Pass 2: plain resume rehydrates the failure; the runner (now
    // healed) must not be consulted at all.
    heal.store(true);
    opts.resume = true;
    r = c.run(opts);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].status, JobStatus::Fatal);
    EXPECT_TRUE(r[0].rehydrated);
    EXPECT_EQ(runs.load(), 1u);

    // Pass 3: retry_quarantined discards the cached failure and
    // re-runs it against the healed environment.
    opts.retry_quarantined = true;
    r = c.run(opts);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].status, JobStatus::Ok);
    EXPECT_EQ(r[0].result.insts, 9u);
    EXPECT_FALSE(r[0].rehydrated);
    EXPECT_EQ(runs.load(), 2u);

    // Pass 4: the appended success superseded the quarantine record, so
    // a plain resume now rehydrates the Ok result.
    opts.retry_quarantined = false;
    r = c.run(opts);
    ASSERT_EQ(r.size(), 1u);
    EXPECT_EQ(r[0].status, JobStatus::Ok);
    EXPECT_EQ(r[0].result.insts, 9u);
    EXPECT_TRUE(r[0].rehydrated);
    EXPECT_EQ(runs.load(), 2u);

    std::remove(journal.c_str());
}

TEST(Campaign, TimeoutStatusRendersDistinctFromFatal)
{
    JobResult to;
    to.index = 0;
    to.config_name = "cfg";
    to.workload = "wl";
    to.status = JobStatus::Timeout;
    to.attempts = 3;
    to.error = "host deadline of 5 ms exceeded";
    const std::string json = ResultSink::toJson("t", 1, {to});
    EXPECT_NE(json.find("\"status\": \"timeout\""), std::string::npos);
    EXPECT_EQ(json.find("\"status\": \"fatal\""), std::string::npos);
    EXPECT_STREQ(jobStatusName(JobStatus::Ok), "ok");
    EXPECT_STREQ(jobStatusName(JobStatus::Fatal), "fatal");
    EXPECT_STREQ(jobStatusName(JobStatus::Timeout), "timeout");
}

// ---------------------------------------------------------------------
// ResultSink
// ---------------------------------------------------------------------

namespace
{

/** A campaign whose odd-indexed jobs exhaust their retries. */
Campaign
partiallyDoomedCampaign(std::size_t jobs)
{
    Campaign c("doomed_partial");
    for (std::size_t i = 0; i < jobs; ++i)
        c.addJob(syntheticJob(i % 2 ? "bad" : "good",
                              "wl" + std::to_string(i)));
    return c;
}

/** The runner for partiallyDoomedCampaign(). */
ScopedSyntheticBackend::Fn
partiallyDoomedRunner()
{
    return [](const JobSpec &spec, const CoreConfig &, unsigned) {
        const unsigned i = wlIndex(spec);
        if (i % 2)
            fatal("wedge " + std::to_string(i));
        SimResult r;
        r.insts = 100 + i;
        r.cycles = 50;
        r.ipc = double(r.insts) / 50.0;
        return r;
    };
}

} // namespace

TEST(ResultSink, ExhaustedRetriesRenderCanonicalFailureManifest)
{
    const Campaign c = partiallyDoomedCampaign(6);
    ScopedSyntheticBackend synthetic(partiallyDoomedRunner());
    CampaignOptions opts;
    opts.jobs = 3;
    opts.max_retries = 1;
    opts.retry_backoff_ms = 1;
    opts.progress = false;
    const auto results = c.run(opts);
    const std::string json =
        ResultSink::toJson(c.name(), opts.root_seed, results);

    // A quarantined failure bumps the schema and emits the manifest.
    EXPECT_NE(json.find("\"schema_version\": 4"), std::string::npos);
    const std::size_t fail_at = json.find("\"failures\": [");
    ASSERT_NE(fail_at, std::string::npos);
    // The manifest follows the aggregates and lists failed jobs in
    // job-index order with attempts, error and repro seeds.
    EXPECT_LT(json.find("\"aggregates\": ["), fail_at);
    std::size_t prev = fail_at;
    for (std::size_t i : {1u, 3u, 5u}) {
        const std::size_t at =
            json.find("\"workload\": \"wl" + std::to_string(i) + "\"",
                      fail_at);
        ASSERT_NE(at, std::string::npos) << "wl" << i;
        EXPECT_GT(at, prev) << "manifest out of job-index order";
        prev = at;
    }
    EXPECT_NE(json.find("\"error\": \"wedge 1\"", fail_at),
              std::string::npos);
    EXPECT_NE(json.find("\"attempts\": 2", fail_at), std::string::npos);
    EXPECT_NE(json.find("\"core_seed\": ", fail_at), std::string::npos);

    // Aggregates cover only the clean config ("bad" merged zero jobs,
    // so it contributes no aggregate record at all).
    const std::size_t agg_at = json.find("\"aggregates\": [");
    EXPECT_EQ(json.find("\"config\": \"bad\"", agg_at) > fail_at, true);
    EXPECT_NE(json.find("\"config\": \"good\"", agg_at),
              std::string::npos);

    // Rendering stays canonical: byte-identical across thread counts.
    CampaignOptions one = opts;
    one.jobs = 1;
    EXPECT_EQ(ResultSink::toJson(c.name(), one.root_seed, c.run(one)),
              json);
}

TEST(ResultSink, AllJobsFailedYieldsEmptyAggregates)
{
    Campaign c("all_doomed");
    c.addJob(syntheticJob("bad", "wl"));
    ScopedSyntheticBackend synthetic(
        [](const JobSpec &, const CoreConfig &,
           unsigned) -> SimResult { fatal("nope"); });

    CampaignOptions opts;
    opts.jobs = 1;
    opts.max_retries = 0;
    opts.progress = false;
    const std::string json =
        ResultSink::toJson(c.name(), opts.root_seed, c.run(opts));
    // No clean job -> the aggregates array renders empty, not absent.
    EXPECT_NE(json.find("\"aggregates\": [\n  ]"), std::string::npos);
    EXPECT_NE(json.find("\"failures\": ["), std::string::npos);
    EXPECT_NE(json.find("\"schema_version\": 4"), std::string::npos);
}

TEST(ResultSink, WriteFileAtomicReplacesTarget)
{
    const std::string path =
        ::testing::TempDir() + "slfwd_sink_test.json";
    ResultSink::writeFileAtomic(path, "{\"a\": 1}\n");
    ResultSink::writeFileAtomic(path, "{\"b\": 2}\n");

    std::ifstream in(path);
    std::string content((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
    EXPECT_EQ(content, "{\"b\": 2}\n");
    // No temp droppings left behind.
    EXPECT_NE(content.find("\"b\""), std::string::npos);
    std::remove(path.c_str());
}

TEST(ResultSink, JsonEscapesErrorStrings)
{
    JobResult jr;
    jr.index = 0;
    jr.config_name = "cfg";
    jr.workload = "wl";
    jr.status = JobStatus::Fatal;
    jr.attempts = 1;
    jr.error = "line1\nwith \"quotes\" and \\ backslash";
    const std::string json = ResultSink::toJson("esc", 1, {jr});
    EXPECT_NE(json.find("line1\\nwith \\\"quotes\\\" and \\\\ backslash"),
              std::string::npos);
    // The raw (unescaped) error text must not appear anywhere.
    EXPECT_EQ(json.find("line1\nwith"), std::string::npos);
}

TEST(ResultSink, AggregatesMergePerConfig)
{
    std::vector<JobResult> results;
    for (unsigned i = 0; i < 4; ++i) {
        JobResult jr;
        jr.index = i;
        jr.config_name = i < 2 ? "a" : "b";
        jr.workload = "wl" + std::to_string(i);
        jr.result.insts = 10;
        jr.result.cycles = 5;
        results.push_back(jr);
    }
    const std::string json = ResultSink::toJson("agg", 1, results);
    // Each config aggregate merges two jobs: 20 insts over 10 cycles.
    EXPECT_NE(json.find("\"jobs\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"insts\": 20"), std::string::npos);
    EXPECT_NE(json.find("\"ipc\": 2.000000"), std::string::npos);
}

// ---------------------------------------------------------------------
// Sweep expansion (shape only; the real sims run in the benches)
// ---------------------------------------------------------------------

TEST(Sweeps, ExpandExpectedJobCounts)
{
    SweepOptions so;
    so.bench_filter = "bzip2";
    EXPECT_EQ(makeFig5Campaign(so).jobCount(), 3u);
    EXPECT_EQ(makeLsqSizeCampaign(so).jobCount(), 6u);
    EXPECT_EQ(makeAssocCampaign(so).jobCount(), 2u);
    EXPECT_EQ(makeFaultCampaign(so).jobCount(), 20u);
    EXPECT_THROW(makeSweep("nope", so), FatalError);
    EXPECT_EQ(sweepNames().size(), 17u);

    // The screen sweep mirrors the fig5 point set on the screening
    // backend; its phase-2 campaign holds exactly the selected subset.
    const Campaign screen = makeScreenCampaign(so);
    EXPECT_EQ(screen.jobCount(), 3u);
    for (const JobSpec &spec : screen.jobs())
        EXPECT_EQ(spec.backend, BackendKind::FuncBatch);
    const Campaign exact = makeScreenExactCampaign(so, {0, 2});
    ASSERT_EQ(exact.jobCount(), 2u);
    EXPECT_EQ(exact.jobs()[0].config_name, "lsq48x32");
    EXPECT_EQ(exact.jobs()[1].config_name, "notenf");
    EXPECT_EQ(exact.jobs()[0].backend, BackendKind::Timing);

    // One micro test under the config trio.
    SweepOptions mo;
    mo.corpus_dir = SLF_TEST_MICRO_DIR;
    mo.bench_filter = "load_use";
    EXPECT_EQ(makeMicroCampaign(mo).jobCount(), 3u);
    // A filter matching nothing is a usage error, not an empty sweep.
    mo.bench_filter = "no_such_test";
    EXPECT_THROW(makeMicroCampaign(mo), FatalError);
}

TEST(Sweeps, PaperRunsEachDistinctTablePointOnce)
{
    SweepOptions so;
    so.bench_filter = "bzip2";
    const Campaign paper = makeSweep("paper", so);
    auto same = [](const JobSpec &a, const JobSpec &b) {
        return a.workload == b.workload && a.cfg == b.cfg &&
               a.backend == b.backend;
    };
    for (std::size_t i = 0; i < paper.jobCount(); ++i)
        for (std::size_t j = i + 1; j < paper.jobCount(); ++j)
            EXPECT_FALSE(same(paper.jobs()[i], paper.jobs()[j]))
                << "paper jobs " << i << " and " << j;

    // The tables come first in the registry, then paper itself.
    std::size_t cells = 0;
    for (const std::string &name : sweepNames()) {
        if (name == "paper")
            break;
        const Campaign table = makeSweep(name, so);
        for (const JobSpec &spec : table.jobs()) {
            ++cells;
            EXPECT_TRUE(std::any_of(
                paper.jobs().begin(), paper.jobs().end(),
                [&](const JobSpec &p) { return same(p, spec); }))
                << name << " " << spec.config_name << "/"
                << spec.workload;
        }
    }
    // fig5's enf point alone recurs in activity, granularity (gran8),
    // energy and value_replay.
    EXPECT_LT(paper.jobCount(), cells);
}

TEST(Sweeps, FaultSweepRunsDeterministicallyAcrossThreadCounts)
{
    SweepOptions so;
    so.fault_iters = 120;
    so.fault_rate = 0.002;
    const Campaign c = makeFaultCampaign(so);

    CampaignOptions one;
    one.jobs = 1;
    one.progress = false;
    CampaignOptions four;
    four.jobs = 4;
    four.progress = false;

    const std::string j1 =
        ResultSink::toJson(c.name(), one.root_seed, c.run(one));
    const std::string j4 =
        ResultSink::toJson(c.name(), four.root_seed, c.run(four));
    EXPECT_EQ(j1, j4);
}
