/**
 * @file
 * slf_campaign: parallel experiment orchestrator CLI.
 *
 * Usage:
 *   slf_campaign --sweep <name> [--jobs N]
 *                [--out results/fig5.json] [--retries N] [--seed S]
 *                [--journal FILE] [--resume] [--retry-quarantined]
 *                [--job-timeout-ms N] [--expect-report FILE]
 *                [--no-progress] [--trace FILE] [--trace-text FILE]
 *                [--pipeview FILE] [--trace-job N]
 *                [--campaign-trace FILE] [key=value ...]
 *
 * `--help` lists the registered sweeps (campaign/sweeps.hh): the
 * paper's tables (fig5, fig6, violation_rates, assoc, corruption,
 * granularity, lsq_size, activity, enforcement, recovery, energy,
 * flush_endpoints, value_replay), `paper` (all of them from one run,
 * each distinct simulation once), fault, micro and screen. --jobs
 * defaults to the host's hardware concurrency.
 *
 * key=value arguments:
 *   scale=N bench=<name> wseed=S   workload selection (analog sweeps;
 *                                  granularity always runs its five
 *                                  analogs, and assoc, recovery and
 *                                  flush_endpoints run their focus
 *                                  analogs unless bench= is given)
 *   iters=N fault_rate=R           fault-sweep shape
 *   corpus=DIR                     micro-sweep .s directory
 *                                  (default tests/micro)
 *   screen.threshold=R             screen sweep: re-run points whose
 *                                  selection stat exceeds R (0.25)
 *   screen.stat=NAME               selection stat: stall_frac or any
 *                                  canonical SimResult counter name
 *   screen.top=K                   re-run the K highest-stat points
 *                                  instead of the threshold rule
 *   anything else                  forwarded to applyOverrides() on
 *                                  every job's core config
 *
 * The screen sweep is the mixed-fidelity flow: phase 1 runs the whole
 * fig5 point set on the fast func_batch screening backend; phase 2
 * re-runs exactly the points picked by the selection rule on the exact
 * timing backend (phase-2 journal: `<journal>.exact`). The --out file
 * is a single schema-v5 JSON mixing both fidelities — every record is
 * labeled with its backend and fidelity, aggregates are keyed
 * (config, backend), and the "screen" section records the selection
 * rule and the re-run count. Both phases are deterministic, so the
 * merged file keeps the byte-identical --jobs/--resume contract.
 *
 * Crash safety: --journal FILE appends one fsync'd record per finished
 * job to a write-ahead JSONL journal; after a crash (SIGKILL, OOM,
 * power loss), re-running the same command with --resume rehydrates the
 * journaled jobs and runs only the missing ones — the --out JSON is
 * byte-identical to an uninterrupted run. --job-timeout-ms bounds each
 * job's host wall-clock time; an expired job retries with salted seeds
 * and, if every attempt expires, is quarantined as a "timeout" failure.
 * --retry-quarantined (with --resume) re-runs journaled *failures*
 * instead of rehydrating them — an operator's escape hatch for jobs
 * that timed out on a loaded host. Caveat: rehydrate-as-is is what
 * makes a resumed run byte-identical to an uninterrupted one; a resume
 * that retries quarantined jobs gives them fresh attempts (attempt
 * counts restart, so retry-salted seeds can differ) and its --out JSON
 * is NOT guaranteed byte-identical to either the original run or a
 * plain --resume.
 *
 * The micro sweep runs every directed `.s` test in the corpus under
 * the lsq48x32/enf/notenf config trio with the GoldenChecker on, then
 * evaluates each test's `;; expect:` block against the run's counters
 * (and its reg/mem assertions against the golden functional model).
 * --expect-report FILE writes a per-test JSON report of every
 * evaluated expectation.
 *
 * Exit codes: 0 = every job ok; 1 = campaign-level fatal (bad sweep,
 * unwritable output, journal/campaign mismatch); 2 = usage error
 * (including a numeric flag whose value is empty, carries trailing
 * characters or does not fit the flag's type, and a --trace-job index
 * outside the sweep, checked before any job runs);
 * 3 = campaign completed but quarantined at least one job (partial
 * aggregates were still written — check the "failures" manifest);
 * 4 = all jobs ran but at least one micro-test expectation failed
 * (3 wins when both apply).
 *
 * --trace FILE re-runs one job (--trace-job, default 0) after the
 * campaign with a TraceSink attached and writes Chrome trace_event
 * JSON; --trace-text FILE writes the compact text timeline of the same
 * capture; --pipeview FILE attaches a LifetimeSink to the same re-run
 * and writes the per-instruction pipeline view in Konata (Kanata 0004)
 * format. The re-run happens on this thread with the job's campaign
 * seeds, so it replays exactly what the campaign measured without ever
 * sharing a sink across pool workers.
 *
 * --campaign-trace FILE writes the campaign's runner-level spans
 * (queue -> attempt(s) -> terminal, one track per pool worker) as
 * Chrome trace_event JSON for Perfetto. Span capture is
 * observation-only: it changes the --out JSON by not a single byte
 * (ctest-asserted). A screen sweep's two phases share one span
 * timeline (phase-2 job indices restart at 0; spans stay
 * distinguishable by their config/workload name).
 *
 * The JSON written with --out is canonical: byte-identical for any
 * --jobs value (the determinism ctest relies on this).
 *
 * stdout carries only the sweep's table (the paper's tables for
 * `paper`), printed once every job is ok; it is a pure function of the
 * results, so it too is byte-identical for any --jobs value, and
 * `--journal F --resume` re-prints it without re-simulating. Every
 * status line (job counts, wall-clock time, files written, micro
 * expectation totals) goes to stderr.
 */

#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "campaign/result_sink.hh"
#include "campaign/sweeps.hh"
#include "obs/analysis/konata.hh"
#include "obs/telemetry.hh"
#include "obs/analysis/lifetime.hh"
#include "obs/chrome_trace.hh"
#include "obs/trace_sink.hh"
#include "sim/json.hh"
#include "sim/logging.hh"
#include "verify/expectation.hh"
#include "workloads/micro_corpus.hh"

using namespace slf;
using namespace slf::campaign;

namespace
{

void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --sweep <name> [--jobs N] [--out FILE] "
                 "[--retries N] [--seed S] [--journal FILE] [--resume] "
                 "[--retry-quarantined] [--job-timeout-ms N] "
                 "[--expect-report FILE] [--no-progress] "
                 "[--trace FILE] [--trace-text FILE] [--pipeview FILE] "
                 "[--trace-job N] [--campaign-trace FILE] "
                 "[key=value ...]\n  sweeps:",
                 argv0);
    for (const std::string &n : sweepNames())
        std::fprintf(stderr, " %s", n.c_str());
    std::fprintf(stderr, "\n");
}

/** Parse a numeric flag's value as a T. An empty value, trailing
 *  characters ("4x") or a value outside T's range is a usage error:
 *  print the flag and the value and exit 2. */
template <typename T>
T
parseNumber(const char *flag, const std::string &value)
{
    T v{};
    const char *end = value.data() + value.size();
    const auto [ptr, ec] = std::from_chars(value.data(), end, v);
    if (value.empty() || ec != std::errc() || ptr != end) {
        std::fprintf(stderr,
                     "%s: invalid value '%s' (expected an integer in "
                     "0..%llu)\n",
                     flag, value.c_str(),
                     static_cast<unsigned long long>(
                         std::numeric_limits<T>::max()));
        std::exit(2);
    }
    return v;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string sweep;
    std::string out_path;
    std::string expect_report_path;
    std::string trace_path;
    std::string trace_text_path;
    std::string pipeview_path;
    std::string campaign_trace_path;
    std::size_t trace_job = 0;
    CampaignOptions copts;
    copts.jobs = std::thread::hardware_concurrency();
    SweepOptions sopts;
    Config kv;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&](const char *flag) -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "%s requires a value\n", flag);
                std::exit(2);
            }
            return argv[++i];
        };
        if (arg == "--sweep") {
            sweep = next("--sweep");
        } else if (arg == "--jobs") {
            copts.jobs = parseNumber<unsigned>("--jobs", next("--jobs"));
        } else if (arg == "--out") {
            out_path = next("--out");
        } else if (arg == "--retries") {
            copts.max_retries =
                parseNumber<unsigned>("--retries", next("--retries"));
        } else if (arg == "--seed") {
            copts.root_seed =
                parseNumber<std::uint64_t>("--seed", next("--seed"));
        } else if (arg == "--journal") {
            copts.journal_path = next("--journal");
        } else if (arg == "--resume") {
            copts.resume = true;
        } else if (arg == "--retry-quarantined") {
            copts.retry_quarantined = true;
        } else if (arg == "--expect-report") {
            expect_report_path = next("--expect-report");
        } else if (arg == "--job-timeout-ms") {
            copts.job_timeout_ms = parseNumber<std::uint64_t>(
                "--job-timeout-ms", next("--job-timeout-ms"));
        } else if (arg == "--no-progress") {
            copts.progress = false;
        } else if (arg == "--trace") {
            trace_path = next("--trace");
        } else if (arg == "--trace-text") {
            trace_text_path = next("--trace-text");
        } else if (arg == "--pipeview") {
            pipeview_path = next("--pipeview");
        } else if (arg == "--trace-job") {
            trace_job =
                parseNumber<std::size_t>("--trace-job", next("--trace-job"));
        } else if (arg == "--campaign-trace") {
            campaign_trace_path = next("--campaign-trace");
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!kv.parseAssignment(arg)) {
            std::fprintf(stderr, "unrecognized argument '%s'\n",
                         arg.c_str());
            usage(argv[0]);
            return 2;
        }
    }

    if (sweep.empty()) {
        usage(argv[0]);
        return 2;
    }
    // The pool runs at least one worker; report and trace what it runs.
    if (copts.jobs == 0)
        copts.jobs = 1;
    const bool trace_requested = !trace_path.empty() ||
                                 !trace_text_path.empty() ||
                                 !pipeview_path.empty();

    try {
        sopts.scale = kv.getUInt("scale", sopts.scale);
        sopts.wseed = kv.getUInt("wseed", sopts.wseed);
        sopts.bench_filter = kv.getString("bench");
        sopts.fault_iters = kv.getUInt("iters", sopts.fault_iters);
        sopts.fault_rate = kv.getDouble("fault_rate", sopts.fault_rate);
        if (!kv.getString("corpus").empty())
            sopts.corpus_dir = kv.getString("corpus");
        sopts.withScreenThreshold(
            kv.getDouble("screen.threshold", sopts.screen_threshold));
        if (kv.has("screen.stat"))
            sopts.withScreenStat(kv.getString("screen.stat"));
        sopts.withScreenTop(kv.getUInt("screen.top", sopts.screen_top));
        // Everything else is a core-config override applied to every
        // job (Config has no erase, so rebuild without the sweep-shape
        // keys). applyOverrides() rejects unknown keys with the full
        // list of valid ones.
        for (const std::string &key : kv.keys()) {
            if (key == "scale" || key == "wseed" || key == "bench" ||
                key == "iters" || key == "fault_rate" ||
                key == "corpus" || key == "screen.threshold" ||
                key == "screen.stat" || key == "screen.top")
                continue;
            sopts.overrides.set(key, kv.getString(key));
        }

        const Campaign c = makeSweep(sweep, sopts);
        if (trace_requested && trace_job >= c.jobCount()) {
            std::fprintf(stderr,
                         "--trace-job %zu out of range (campaign '%s' has "
                         "%zu jobs)\n",
                         trace_job, c.name().c_str(), c.jobCount());
            return 2;
        }
        std::fprintf(stderr, "campaign '%s': %zu jobs, %u workers\n",
                     c.name().c_str(), c.jobCount(), copts.jobs);

        // One span timeline for the whole invocation: a screen sweep's
        // two phases share it, so the trace shows the full
        // screen-then-rerun schedule on one clock.
        obs::SpanSink span_sink;
        if (!campaign_trace_path.empty())
            copts.telemetry.spans = &span_sink;

        const auto t0 = std::chrono::steady_clock::now();
        std::vector<JobResult> results = c.run(copts);

        // Screen sweep, phase 2: pick the screened points that deserve
        // an exact run and re-run them on the timing backend. The
        // merged result list keeps phase-1 indices and appends the
        // exact runs after them, so the --out file shows both numbers
        // for every re-run point.
        ScreenInfo screen_info;
        const bool is_screen = sweep == "screen";
        if (is_screen) {
            const std::vector<std::size_t> sel =
                selectForExactRerun(results, sopts);
            const Campaign exact_c =
                makeScreenExactCampaign(sopts, sel);
            std::fprintf(stderr,
                         "campaign 'screen_exact': %zu of %zu screened "
                         "points selected for exact re-run\n",
                         exact_c.jobCount(), results.size());
            CampaignOptions exact_opts = copts;
            if (!copts.journal_path.empty())
                exact_opts.journal_path = copts.journal_path + ".exact";
            std::vector<JobResult> exact = exact_c.run(exact_opts);

            screen_info.stat = sopts.screen_stat;
            screen_info.threshold = sopts.screen_threshold;
            screen_info.top_k = sopts.screen_top;
            screen_info.screened = results.size();
            screen_info.reran = exact.size();
            const std::size_t offset = results.size();
            for (JobResult &jr : exact) {
                jr.index += offset;
                results.push_back(std::move(jr));
            }
        }

        const auto t1 = std::chrono::steady_clock::now();
        const double secs =
            std::chrono::duration<double>(t1 - t0).count();

        std::size_t ok = 0, fatal_jobs = 0, timeout_jobs = 0,
                    retried = 0;
        for (const JobResult &jr : results) {
            if (jr.ok())
                ++ok;
            else if (jr.status == JobStatus::Timeout)
                ++timeout_jobs;
            else
                ++fatal_jobs;
            if (jr.attempts > 1)
                ++retried;
        }
        std::fprintf(stderr,
                     "%s: %zu ok, %zu fatal, %zu timeout, %zu retried, "
                     "%.2fs wall-clock\n",
                     c.name().c_str(), ok, fatal_jobs, timeout_jobs,
                     retried, secs);

        const std::string json = ResultSink::toJson(
            c.name(), copts.root_seed, results,
            is_screen ? &screen_info : nullptr);
        if (!out_path.empty()) {
            ResultSink::writeFileAtomic(out_path, json);
            std::fprintf(stderr, "wrote %s (%zu bytes)\n",
                         out_path.c_str(), json.size());
        }

        // A table cell must never read a quarantined job's empty
        // result: with any job failed, exit 3 stands in for the table.
        if (ok == results.size())
            std::fputs(renderSweep(sweep, sopts, results).c_str(), stdout);

        if (!campaign_trace_path.empty()) {
            const std::string tj =
                obs::toChromeCampaignTrace(span_sink, c.name(), copts.jobs);
            ResultSink::writeFileAtomic(campaign_trace_path, tj);
            std::fprintf(stderr, "wrote %s (%zu spans, %zu bytes)\n",
                         campaign_trace_path.c_str(), span_sink.size(),
                         tj.size());
        }

        // Micro sweep: evaluate every test's expectation block against
        // its finished runs, print a summary, optionally write the
        // per-test report.
        std::size_t expect_total = 0, expect_failed = 0;
        if (sweep == "micro") {
            std::map<std::string, const MicroTest *> by_name;
            const auto corpus = loadMicroCorpus(sopts.corpus_dir);
            for (const MicroTest &t : corpus)
                by_name.emplace(t.name, &t);

            std::ostringstream rep;
            rep << "{\n  \"schema_version\": 1,\n"
                << "  \"campaign\": \"micro\",\n"
                << "  \"corpus\": \"" << jsonEscape(sopts.corpus_dir)
                << "\",\n  \"tests\": [\n";
            bool first = true;
            for (const JobResult &jr : results) {
                const auto it = by_name.find(jr.workload);
                if (it == by_name.end())
                    continue;
                const MicroTest &test = *it->second;
                std::size_t applicable = 0;
                for (const AsmExpect &e : test.unit.expects)
                    if (e.config.empty() || e.config == jr.config_name)
                        ++applicable;
                std::vector<ExpectFailure> fails;
                if (jr.ok()) {
                    fails = evaluateExpectations(test.unit.expects,
                                                 jr.config_name,
                                                 jr.result,
                                                 test.unit.prog);
                }
                expect_total += applicable;
                expect_failed += fails.size();
                for (const ExpectFailure &f : fails)
                    std::fprintf(stderr, "expect FAIL %s/%s: %s\n",
                                 jr.config_name.c_str(),
                                 jr.workload.c_str(),
                                 f.toString().c_str());
                if (!jr.ok())
                    std::fprintf(stderr,
                                 "expect SKIP %s/%s: job %s, "
                                 "%zu expectation(s) not evaluated\n",
                                 jr.config_name.c_str(),
                                 jr.workload.c_str(),
                                 jobStatusName(jr.status), applicable);

                rep << (first ? "" : ",\n");
                first = false;
                rep << "    {\n      \"job\": " << jr.index
                    << ",\n      \"config\": \""
                    << jsonEscape(jr.config_name)
                    << "\",\n      \"workload\": \""
                    << jsonEscape(jr.workload)
                    << "\",\n      \"status\": \""
                    << jobStatusName(jr.status)
                    << "\",\n      \"expectations\": " << applicable
                    << ",\n      \"failed\": " << fails.size()
                    << ",\n      \"failures\": [";
                for (std::size_t i = 0; i < fails.size(); ++i)
                    rep << (i ? ", " : "") << '"'
                        << jsonEscape(fails[i].toString()) << '"';
                rep << "]\n    }";
            }
            rep << "\n  ],\n  \"total_expectations\": " << expect_total
                << ",\n  \"total_failed\": " << expect_failed << "\n}\n";

            std::fprintf(stderr,
                         "micro expectations: %zu checked, %zu failed\n",
                         expect_total, expect_failed);
            if (!expect_report_path.empty()) {
                const std::string r = rep.str();
                ResultSink::writeFileAtomic(expect_report_path, r);
                std::fprintf(stderr, "wrote %s (%zu bytes)\n",
                             expect_report_path.c_str(), r.size());
            }
        }

        if (trace_requested) {
            const JobSpec &spec = c.jobs()[trace_job];

            obs::TraceSink sink;
            obs::LifetimeSink lifetimes;
            CoreConfig cfg = spec.cfg;
            if (!trace_path.empty() || !trace_text_path.empty())
                cfg.obs.trace = &sink;
            if (!pipeview_path.empty())
                cfg.obs.lifetime = &lifetimes;
            if (spec.derive_seeds) {
                cfg.rng_seed = jobSeed(copts.root_seed, trace_job,
                                       SeedStream::Core, 0);
                cfg.fault.seed = jobSeed(copts.root_seed, trace_job,
                                         SeedStream::Fault, 0);
            }
            if (!spec.make_prog)
                fatal("--trace-job target has no program factory");
            const Program prog = spec.make_prog();
            runWorkload(cfg, prog);

            std::fprintf(stderr,
                         "traced job %zu (%s/%s): %llu events captured, "
                         "%llu dropped\n",
                         trace_job, spec.config_name.c_str(),
                         spec.workload.c_str(),
                         static_cast<unsigned long long>(sink.recorded()),
                         static_cast<unsigned long long>(sink.dropped()));
            if (!trace_path.empty()) {
                const std::string tj = obs::toChromeTraceJson(
                    sink, spec.config_name + "/" + spec.workload);
                ResultSink::writeFileAtomic(trace_path, tj);
                std::fprintf(stderr, "wrote %s (%zu bytes)\n",
                             trace_path.c_str(), tj.size());
            }
            if (!trace_text_path.empty()) {
                const std::string tt = obs::toTextTimeline(sink);
                ResultSink::writeFileAtomic(trace_text_path, tt);
                std::fprintf(stderr, "wrote %s (%zu bytes)\n",
                             trace_text_path.c_str(), tt.size());
            }
            if (!pipeview_path.empty()) {
                std::fprintf(stderr,
                             "pipeview job %zu: %llu retired, %llu "
                             "squashed, %llu dropped lifetime records\n",
                             trace_job,
                             static_cast<unsigned long long>(
                                 lifetimes.retired()),
                             static_cast<unsigned long long>(
                                 lifetimes.squashed()),
                             static_cast<unsigned long long>(
                                 lifetimes.dropped()));
                const std::string kon = obs::toKonata(lifetimes);
                ResultSink::writeFileAtomic(pipeview_path, kon);
                std::fprintf(stderr, "wrote %s (%zu bytes)\n",
                             pipeview_path.c_str(), kon.size());
            }
        }
        // 3 = graceful degradation: the campaign finished and wrote
        // partial aggregates, but at least one job was quarantined.
        // 4 = every job ran but a micro expectation failed.
        if (fatal_jobs || timeout_jobs)
            return 3;
        return expect_failed ? 4 : 0;
    } catch (const FatalError &e) {
        std::fprintf(stderr, "fatal: %s\n", e.what());
        return 1;
    }
}
