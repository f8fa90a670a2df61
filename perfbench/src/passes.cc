/**
 * @file
 * Workload job lists, one pass of a workload, the output checks and
 * the untraced (end-to-end) run.
 */

#include <sys/resource.h>

#include <algorithm>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <thread>

#include "bench.hh"
#include "cpu/config_preset.hh"
#include "func_batch.hh"
#include "obs/telemetry.hh"
#include "runner.hh"
#include "sim/logging.hh"
#include "workloads/workloads.hh"

namespace perfbench
{

namespace
{

/** screen: analog iteration multiplier, so func_batch jobs last tens
 *  of ms, and the number of exact re-runs (a minority of the pass). */
constexpr std::uint64_t kScreenScale = 4;
constexpr std::uint64_t kScreenTop = 2;

/** base and wide: instructions retired per job (the max_insts
 *  override, as `slf_campaign ... max_insts=N` sets it). The analogs
 *  retire 0.2-0.6 M instructions; a prefix still fills either window,
 *  and the shorter pass buys the timed passes a steady per-job best
 *  needs against host slow phases that last seconds. */
constexpr const char *kMaxInsts = "100000";

/**
 * Every analog but vortex x @p configs, analog-major like fig5, with the
 * sweep's overrides applied to every job. vortex's generator is
 * seed-bimodal: for some seeds its first 100 000 instructions take 2x
 * (128-entry core) to 5x (1024-entry core) the cycles, which alone moved
 * sim_ipc, kips, wall_s and job_ms_tail by 10-40% from seed to seed.
 */
Campaign
analogCampaign(const std::string &name,
               std::initializer_list<const char *> configs,
               const SweepOptions &sopts)
{
    Campaign c(name);
    for (const WorkloadInfo &info : spec2000Analogs()) {
        if (info.name == std::string("vortex") ||
            (!sopts.bench_filter.empty() && sopts.bench_filter != info.name))
            continue;
        for (const char *config : configs) {
            JobSpec spec;
            spec.config_name = config;
            spec.workload = info.name;
            spec.cfg = presetByName(config);
            applyOverrides(spec.cfg, sopts.overrides);
            const WorkloadParams wp{sopts.scale, sopts.wseed};
            const WorkloadFactory make = info.make;
            spec.make_prog = [make, wp] { return make(wp); };
            c.addJob(std::move(spec));
        }
    }
    return c;
}

/** Run one phase; adds each job's attempt-span latency to @p job_ns at
 *  @p offset + its index. */
std::vector<JobResult>
runPhase(const Workload &w, const Campaign &c, unsigned phase,
         std::size_t offset, Tracer *tracer,
         std::vector<std::int64_t> &job_ns)
{
    obs::SpanSink spans;
    CampaignOptions opts = w.campaignOptions(phase);
    opts.telemetry.spans = &spans;
    std::vector<JobResult> results;
    if (tracer) {
        results = tracer->instrument(c, offset).run(opts);
        tracer->restore(results);
    } else {
        results = c.run(opts);
    }
    job_ns.resize(offset + results.size(), 0);
    for (const obs::CampaignSpan &s : spans.spans())
        if (s.kind == obs::SpanKind::Attempt)
            job_ns[offset + s.job] +=
                std::int64_t(s.t1_us - s.t0_us) * 1000;
    return results;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

} // namespace

Workload::Workload(const Options &opts)
    : name_(opts.workload), scratch_(opts.scratch_dir)
{
    sopts_.withWorkloadSeed(opts.seed);
    if (opts.quick)
        sopts_.withBenchFilter("gzip");
    if (name_ == "base") {
        sopts_.withOverride("max_insts", kMaxInsts);
        phase1_ = analogCampaign("base", {"lsq48x32", "enf", "notenf"},
                                 sopts_);
        mdt_sfc_preset_ = "enf";
        lsq_preset_ = "lsq48x32";
    } else if (name_ == "wide") {
        sopts_.withOverride("max_insts", kMaxInsts);
        phase1_ = analogCampaign("wide", {"agg_lsq120x80", "agg_enf"},
                                 sopts_);
        mdt_sfc_preset_ = "agg_enf";
        lsq_preset_ = "agg_lsq120x80";
    } else if (name_ == "screen") {
        sopts_.withScale(kScreenScale).withScreenTop(kScreenTop);
        phase1_ = makeScreenCampaign(sopts_);
        const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
        workers_ = std::min(2u, hw);
        two_phase_ = true;
        mdt_sfc_preset_ = "enf";
        lsq_preset_ = "lsq48x32";
    } else {
        fatal("unknown workload '" + name_ + "' (base|wide|screen)");
    }
}

CampaignOptions
Workload::campaignOptions(unsigned phase) const
{
    CampaignOptions o;
    o.jobs = workers_;
    o.progress = false;
    // screen runs with the write-ahead journal on (fresh every pass).
    if (two_phase_)
        o.journal_path =
            scratch_ + (phase == 0 ? "/screen.journal" : "/screen.journal.exact");
    return o;
}

PassResult
runPass(const Workload &w, Tracer *tracer)
{
    PassResult p;
    const std::int64_t t0 = nowNs();
    p.results = runPhase(w, w.campaign(), 0, 0, tracer, p.job_ns);
    p.screened = p.results.size();
    if (w.twoPhase()) {
        const SweepOptions &so = w.sweepOptions();
        p.selected = selectForExactRerun(p.results, so);
        const Campaign exact = makeScreenExactCampaign(so, p.selected);
        std::vector<JobResult> rerun =
            runPhase(w, exact, 1, p.screened, tracer, p.job_ns);
        p.screen.stat = so.screen_stat;
        p.screen.threshold = so.screen_threshold;
        p.screen.top_k = so.screen_top;
        p.screen.screened = p.screened;
        p.screen.reran = rerun.size();
        for (JobResult &jr : rerun) {
            jr.index += p.screened;
            p.results.push_back(std::move(jr));
        }
        const std::int64_t s0 = nowNs();
        const std::string json = renderPass(w, p);
        const std::int64_t s1 = nowNs();
        if (tracer)
            tracer->span("sink.render", s0, s1);
        ResultSink::writeFileAtomic(w.resultPath(), json);
        if (tracer)
            tracer->span("sink.write", s1, nowNs());
    }
    p.wall_ns = nowNs() - t0;
    return p;
}

std::string
renderPass(const Workload &w, const PassResult &p)
{
    return ResultSink::toJson(w.campaign().name(),
                              w.campaignOptions(0).root_seed, p.results,
                              w.twoPhase() ? &p.screen : nullptr);
}

const JobSpec &
specFor(const Workload &w, const PassResult &p, std::size_t i)
{
    const std::size_t point =
        i < p.screened ? i : p.selected.at(i - p.screened);
    return w.campaign().jobs().at(point);
}

Census
censusOf(const SimResult &r)
{
    return {r.insts, r.loads_retired, r.stores_retired, r.branches_retired};
}

std::vector<Census>
referenceCensus(const Workload &w, bool inject_mismatch,
                std::int64_t *func_batch_ns)
{
    std::vector<Census> ref;
    std::int64_t fb = 0;
    for (const JobSpec &spec : w.campaign().jobs()) {
        const Program prog = spec.make_prog();
        const std::int64_t t0 = nowNs();
        const SimResult r = runFuncBatch(spec.cfg, prog);
        fb += nowNs() - t0;
        ref.push_back(censusOf(r));
    }
    if (inject_mismatch && !ref.empty())
        ref.front().insts += 1;
    if (func_batch_ns)
        *func_batch_ns = fb;
    return ref;
}

void
checkPass(const PassResult &p,
          const std::vector<Census> &ref, CheckTally &tally)
{
    auto fail = [&](std::size_t i, const std::string &why) {
        ++tally.failed;
        if (tally.notes.size() < 8)
            tally.notes.push_back(p.results[i].config_name + "/" +
                                  p.results[i].workload + ": " + why);
    };
    for (std::size_t i = 0; i < p.results.size(); ++i) {
        ++tally.attempted;
        const JobResult &jr = p.results[i];
        if (!jr.ok()) {
            fail(i, std::string(jobStatusName(jr.status)) + " " + jr.error);
            continue;
        }
        const SimResult &r = jr.result;
        if (r.checker_enabled && (!r.checker_clean || r.check_failures)) {
            fail(i, "golden checker reported divergences");
            continue;
        }
        const std::size_t point =
            i < p.screened ? i : p.selected.at(i - p.screened);
        if (censusOf(r) != ref.at(point)) {
            fail(i, "architectural census differs from runFuncBatch");
            continue;
        }
        // A screen re-run must also match the phase-1 census it re-ran.
        if (i >= p.screened &&
            censusOf(r) != censusOf(p.results.at(point).result))
            fail(i, "exact re-run census differs from its screening run");
    }
}

void
checkGolden(const std::string &golden_path, CheckTally &tally)
{
    if (golden_path.empty())
        return;
    ++tally.attempted;
    SweepOptions g;
    g.withBenchFilter("gzip");  // scale 1, workload seed 42
    const Campaign c = makeFig5Campaign(g);
    CampaignOptions o;
    o.progress = false;
    const std::string json =
        ResultSink::toJson(c.name(), o.root_seed, c.run(o));
    std::ifstream in(golden_path, std::ios::binary);
    std::stringstream want;
    want << in.rdbuf();
    if (!in || want.str() != json) {
        ++tally.failed;
        tally.notes.push_back("fig5 gzip slice differs from " + golden_path);
    }
}

std::vector<std::int64_t>
bestJobNs(const std::vector<PassResult> &passes)
{
    std::vector<std::int64_t> best = passes.at(0).job_ns;
    for (const PassResult &p : passes)
        for (std::size_t i = 0; i < best.size(); ++i)
            best[i] = std::min(best[i], p.job_ns.at(i));
    return best;
}

double
kipsOf(const std::vector<PassResult> &passes)
{
    std::uint64_t insts = 0;
    for (const JobResult &jr : passes.at(0).results)
        insts += jr.result.insts;
    std::int64_t ns = 0;
    for (std::int64_t v : bestJobNs(passes))
        ns += v;
    return double(insts) * 1e6 / double(ns);
}

void
endToEndMetrics(const std::vector<PassResult> &passes, Metrics &out)
{
    const std::vector<std::int64_t> best = bestJobNs(passes);
    std::uint64_t exact_insts = 0, exact_cycles = 0;
    for (const JobResult &jr : passes.at(0).results) {
        if (jr.backend == BackendKind::Timing) {
            exact_insts += jr.result.insts;
            exact_cycles += jr.result.cycles;
        }
    }
    std::int64_t wall = passes.at(0).wall_ns;
    for (const PassResult &p : passes)
        wall = std::min(wall, p.wall_ns);

    std::vector<double> ms;
    for (std::int64_t ns : best)
        ms.push_back(double(ns) / 1e6);
    std::sort(ms.begin(), ms.end());
    // Highest percentile with at least ten samples beyond it.
    const std::size_t n = ms.size();
    const double tail = n > 10 ? ms[n - 11] : ms.back();

    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);

    out["kips"] = {kipsOf(passes), "kips"};
    out["wall_s"] = {double(wall) / 1e9, "s"};
    out["job_ms_p50"] = {median(ms), "ms"};
    out["job_ms_tail"] = {tail, "ms"};
    out["rss_mb"] = {double(ru.ru_maxrss) / 1024.0, "MB"};
    out["sim_ipc"] = {exact_cycles ? double(exact_insts) /
                                         double(exact_cycles)
                                   : 0.0,
                      "inst/cycle"};
}

CheckTally
runUntraced(const Options &opts, const Workload &w, Metrics &out,
            RunInfo &info)
{
    CheckTally tally;
    const std::vector<Census> ref =
        referenceCensus(w, opts.inject_mismatch);

    // Untimed warm-up pass: page faults, allocator growth, lazy
    // registries and caches settle before anything is timed.
    checkPass(runPass(w, nullptr), ref, tally);

    std::vector<PassResult> passes;
    const std::int64_t budget = std::int64_t(opts.seconds * 1e9);
    const std::int64_t start = nowNs();
    // Start another pass while the budget has at least half a pass
    // left, so the measured window averages the budget.
    do {
        passes.push_back(runPass(w, nullptr));
    } while (!opts.quick &&
             nowNs() - start + passes.back().wall_ns / 2 <= budget);
    info.timed_passes = unsigned(passes.size());
    info.job_samples = passes[0].results.size();

    for (const PassResult &p : passes)
        checkPass(p, ref, tally);
    checkGolden(opts.golden_path, tally);
    endToEndMetrics(passes, out);
    return tally;
}

} // namespace perfbench
