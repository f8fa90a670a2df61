/**
 * @file
 * The traced run: per-layer numbers from spans recorded around calls
 * into each module's public functions.
 *
 * Traced and untraced passes alternate inside the time budget, so the
 * tracing overhead is measured against the same host phases. Each
 * job's layer breakdown comes from its fastest traced pass, and its
 * self times plus an explicit `other` add up to that pass's attempt
 * latency by construction; `other` going negative beyond the span
 * clock's resolution would mean mis-nested spans and fails the run.
 */

#include <algorithm>
#include <fstream>
#include <set>

#include "bench.hh"
#include "campaign/journal.hh"
#include "cpu/ooo_core.hh"
#include "func_batch.hh"
#include "runner.hh"
#include "verify/fault_inject.hh"

namespace perfbench
{

Tracer::Tracer()
    : backend_([this](const JobSpec &spec, const CoreConfig &cfg,
                      unsigned) { return runJob(spec, cfg); })
{}

void
Tracer::beginPass(int pass)
{
    pass_ = pass;
    kinds_.clear();
    cur_.clear();
}

Campaign
Tracer::instrument(const Campaign &c, std::size_t offset)
{
    index_.clear();
    kinds_.resize(offset + c.jobCount());
    cur_.resize(offset + c.jobCount());
    Campaign out(c.name());
    for (std::size_t i = 0; i < c.jobCount(); ++i) {
        JobSpec spec = c.jobs()[i];
        index_[spec.config_name + "/" + spec.workload] = offset + i;
        kinds_[offset + i] = spec.backend;
        spec.backend = BackendKind::Synthetic;
        out.addJob(std::move(spec));
    }
    return out;
}

void
Tracer::restore(std::vector<JobResult> &results) const
{
    for (JobResult &jr : results)
        jr.backend = kinds_.at(index_.at(jr.config_name + "/" + jr.workload));
}

void
Tracer::span(const char *name, std::int64_t t0, std::int64_t t1,
             std::int64_t job, std::int64_t parent)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t0, t1, parent, job, pass_});
}

std::int64_t
Tracer::openSpan(const char *name, std::int64_t t0, std::int64_t job)
{
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({name, t0, t0, -1, job, pass_});
    return std::int64_t(spans_.size() - 1);
}

SimResult
Tracer::runJob(const JobSpec &spec, const CoreConfig &cfg)
{
    const std::size_t idx =
        index_.at(spec.config_name + "/" + spec.workload);
    const std::int64_t job = std::int64_t(idx);
    JobLayers &L = cur_[idx];
    L = JobLayers{};  // a retried attempt starts over

    const std::int64_t root = openSpan("job", nowNs(), job);
    const std::int64_t p0 = nowNs();
    const Program prog = spec.make_prog();
    const std::int64_t p1 = nowNs();
    L.prog_ns = p1 - p0;
    span("prog.build", p0, p1, job, root);

    SimResult r;
    if (kinds_[idx] == BackendKind::FuncBatch) {
        r = runFuncBatch(cfg, prog);
        const std::int64_t f1 = nowNs();
        L.fb_ns = f1 - p1;
        span("func_batch.run", p1, f1, job, root);
    } else {
        r = timedCore(cfg, prog, L, job, root);
    }
    std::lock_guard<std::mutex> lock(mu_);
    spans_[root].t1 = nowNs();
    return r;
}

SimResult
Tracer::timedCore(const CoreConfig &cfg, const Program &prog, JobLayers &L,
                  std::int64_t job, std::int64_t parent)
{
    const std::int64_t c0 = nowNs();
    OooCore core(cfg, prog);
    const std::int64_t c1 = nowNs();
    L.ctor_ns = c1 - c0;
    span("cpu.ctor", c0, c1, job, parent);

    // The same call sequence as OooCore::run(), one clock read per
    // tick: each tick is charged from the previous read to its own.
    std::int64_t prev = nowNs();
    const std::int64_t t0 = prev;
    for (;;) {
        const double occ = double(core.robOccupancy());
        const bool more = core.tick();
        const std::int64_t now = nowNs();
        const double dt = double(now - prev);
        prev = now;
        ++L.ticks;
        L.occ_sum += std::uint64_t(occ);
        L.sx += occ;
        L.sy += dt;
        L.sxy += occ * dt;
        L.sxx += occ * occ;
        if (!more)
            break;
    }
    L.tick_ns = prev - t0;
    span("cpu.tick", t0, prev, job, parent);

    // SimResult assembly, as runWorkload() does it. The traced run
    // compares every rendered result with the untraced run's, so this
    // copy cannot drift unnoticed.
    SimResult r;
    r.workload = prog.name();
    r.cls = prog.workloadClass();
    r.cycles = core.cycles();
    r.insts = core.instsRetired();
    r.ipc = core.ipc();
    using CS = obs::CoreStat;
    r.loads_retired = core.coreStat(CS::LoadsRetired);
    r.stores_retired = core.coreStat(CS::StoresRetired);
    r.branches_retired = core.coreStat(CS::BranchesRetired);
    r.mispredicts = core.coreStat(CS::BranchMispredicts);
    r.oracle_fixes = core.coreStat(CS::OracleFixedMispredicts);
    r.replays = core.coreStat(CS::MemReplays);
    r.flushes_true = core.coreStat(CS::ViolationFlushesTrue);
    r.flushes_anti = core.coreStat(CS::ViolationFlushesAnti);
    r.flushes_output = core.coreStat(CS::ViolationFlushesOutput);
    r.spurious_violations = core.coreStat(CS::SpuriousViolations);
    core.memUnit().exportStats(r);
    r.occ = core.occupancy();
    r.cpi = core.cpiStack();
    r.blame = core.blame();
    if (const GoldenChecker *checker = core.checker()) {
        r.checker_enabled = true;
        r.checker_clean = checker->clean();
        r.check_retirements = checker->retirementsChecked();
        r.check_failures = checker->failureCount();
        r.check_store_commit_failures = checker->storeCommitFailures();
        r.check_reports = checker->reports();
    }
    if (const FaultInjector *fi = core.faultInjector()) {
        r.faults_sfc_mask = fi->sfcMaskFaults();
        r.faults_sfc_data = fi->sfcDataFaults();
        r.faults_mdt_evict = fi->mdtEvictFaults();
        r.faults_fifo_payload = fi->fifoPayloadFaults();
    }
    const std::int64_t h1 = nowNs();
    L.harvest_ns = h1 - prev;
    span("cpu.harvest", prev, h1, job, parent);
    return r;
}

namespace
{

/** 1 - t(validate=0) / t(validate=1) over a few timing jobs spread
 *  across the list, interleaved, best of two each. */
double
verifyShare(const Workload &w, const PassResult &p)
{
    std::vector<std::size_t> timing;
    for (std::size_t i = 0; i < p.results.size(); ++i)
        if (p.results[i].backend == BackendKind::Timing)
            timing.push_back(i);
    if (timing.empty())
        return 0.0;
    constexpr std::size_t kJobs = 4;
    const std::size_t m = timing.size();
    std::set<std::size_t> pick;
    for (std::size_t k = 0; k < std::min(kJobs, m); ++k)
        pick.insert(timing[(k * (m / kJobs) + k) % m]);

    double on = 0, off = 0;
    for (std::size_t i : pick) {
        const JobSpec &spec = specFor(w, p, i);
        const Program prog = spec.make_prog();
        CoreConfig with = spec.cfg, without = spec.cfg;
        with.validate = true;
        without.validate = false;
        std::int64_t best_on = -1, best_off = -1;
        for (int rep = 0; rep < 2; ++rep) {
            for (bool v : {true, false}) {
                const std::int64_t t0 = nowNs();
                runWorkload(v ? with : without, prog);
                const std::int64_t dt = nowNs() - t0;
                std::int64_t &best = v ? best_on : best_off;
                if (best < 0 || dt < best)
                    best = dt;
            }
        }
        on += double(best_on);
        off += double(best_off);
    }
    return 1.0 - off / on;
}

void
writeTrace(const Options &opts, const Tracer &tracer,
           const std::string &jobs_json)
{
    std::ofstream os(opts.scratch_dir + "/trace-" + opts.workload + "-s" +
                     std::to_string(opts.seed) + ".json");
    os << "{\"workload\":\"" << opts.workload << "\",\"seed\":" << opts.seed
       << ",\"jobs\":[" << jobs_json << "],\n\"spans\":[";
    const std::vector<Span> &spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        os << (i ? ",\n" : "\n") << "{\"id\":" << i << ",\"name\":\""
           << s.name << "\",\"t0_ns\":" << s.t0 << ",\"t1_ns\":" << s.t1
           << ",\"parent\":" << s.parent << ",\"job\":" << s.job
           << ",\"pass\":" << s.pass << "}";
    }
    os << "]}\n";
}

} // namespace

CheckTally
runTraced(const Options &opts, const Workload &w, Metrics &out,
          RunInfo &info)
{
    CheckTally tally;
    std::int64_t ref_fb_ns = 0;
    const std::vector<Census> ref =
        referenceCensus(w, opts.inject_mismatch, &ref_fb_ns);

    // Untimed warm-up, and the rendering every traced pass must match.
    const PassResult warm = runPass(w, nullptr);
    checkPass(warm, ref, tally);
    const std::string want = renderPass(w, warm);

    Tracer tracer;
    std::vector<PassResult> plain, traced;
    std::vector<std::vector<JobLayers>> layers;
    const std::int64_t budget = std::int64_t(opts.seconds * 1e9);
    const std::int64_t start = nowNs();
    int round = 0;
    do {
        // Alternate which side goes first so neither owns a host phase.
        for (int half = 0; half < 2; ++half) {
            if (half == round % 2) {
                tracer.beginPass(round);
                traced.push_back(runPass(w, &tracer));
                layers.push_back(tracer.layers());
            } else {
                plain.push_back(runPass(w, nullptr));
            }
        }
        ++round;
    } while (!opts.quick &&
             nowNs() - start +
                     (traced.back().wall_ns + plain.back().wall_ns) / 2 <=
                 budget);
    info.timed_passes = unsigned(plain.size() + traced.size());
    info.job_samples = plain[0].results.size();

    for (const PassResult &p : plain)
        checkPass(p, ref, tally);
    for (const PassResult &p : traced) {
        checkPass(p, ref, tally);
        ++tally.attempted;
        if (renderPass(w, p) != want) {
            ++tally.failed;
            tally.notes.push_back("traced results differ from untraced");
        }
    }

    // Each job's layers from its fastest traced pass.
    const std::size_t n = traced[0].job_ns.size();
    std::int64_t sum_lat = 0, prog = 0, cpu = 0, fb = 0, ctor = 0,
                 tick = 0, other = 0;
    std::uint64_t ticks = 0, occ = 0, t_insts = 0, t_cycles = 0,
                  squashed = 0, replays = 0, fb_insts = 0;
    std::size_t n_timing = 0;
    double sx = 0, sy = 0, sxy = 0, sxx = 0;
    std::string jobs_json;
    for (std::size_t i = 0; i < n; ++i) {
        std::size_t bp = 0;
        for (std::size_t t = 1; t < traced.size(); ++t)
            if (traced[t].job_ns[i] < traced[bp].job_ns[i])
                bp = t;
        const JobLayers &L = layers[bp][i];
        const std::int64_t lat = traced[bp].job_ns[i];
        const std::int64_t job_other = lat - L.selfSum();
        // Attempt spans tick in microseconds, layer spans in ns.
        if (job_other < -2000) {
            ++tally.failed;
            tally.notes.push_back("layer spans exceed job latency");
        }
        const JobResult &jr = traced[bp].results[i];
        const SimResult &r = jr.result;
        sum_lat += lat;
        prog += L.prog_ns;
        fb += L.fb_ns;
        other += job_other;
        const std::int64_t job_cpu = L.ctor_ns + L.tick_ns + L.harvest_ns;
        cpu += job_cpu;
        if (jr.backend == BackendKind::Timing) {
            ++n_timing;
            ctor += L.ctor_ns;
            tick += L.tick_ns;
            ticks += L.ticks;
            occ += L.occ_sum;
            sx += L.sx;
            sy += L.sy;
            sxy += L.sxy;
            sxx += L.sxx;
            t_insts += r.insts;
            t_cycles += r.cycles;
            squashed += r.blame.totalSquashed();
            replays += r.replays;
        } else {
            fb_insts += r.insts;
        }
        jobs_json += std::string(i ? ",\n" : "\n") + "{\"job\":" +
                     std::to_string(i) + ",\"name\":\"" + jr.config_name +
                     "/" + jr.workload + "\",\"pass\":" +
                     std::to_string(bp) + ",\"latency_ns\":" +
                     std::to_string(lat) + ",\"prog_ns\":" +
                     std::to_string(L.prog_ns) + ",\"cpu_ns\":" +
                     std::to_string(job_cpu) + ",\"func_batch_ns\":" +
                     std::to_string(L.fb_ns) + ",\"other_ns\":" +
                     std::to_string(job_other) + "}";
    }
    writeTrace(opts, tracer, jobs_json);

    const auto safe = [](double a, double b) { return b != 0 ? a / b : 0.0; };
    const double dn = double(n), dt = double(n_timing);
    out["prog.build_ms"] = {safe(double(prog), dn) / 1e6, "ms"};
    out["cpu.ctor_ms"] = {safe(double(ctor), dt) / 1e6, "ms"};
    out["cpu.ns_per_cycle"] = {safe(double(tick), double(t_cycles)), "ns"};
    out["cpu.ns_per_inst"] = {safe(double(tick), double(t_insts)), "ns"};
    const double dticks = double(ticks);
    out["cpu.ns_per_rob_entry"] = {
        safe(dticks * sxy - sx * sy, dticks * sxx - sx * sx), "ns"};
    out["cpu.rob_occ_mean"] = {safe(double(occ), dticks), "entries"};
    out["cpu.useful_frac"] = {
        safe(double(t_insts), double(t_insts + squashed)), "fraction"};
    out["memu.replay_per_kinst"] = {
        safe(double(replays) * 1000.0, double(t_insts)), "count"};
    if (fb_insts) {
        out["screen.ns_per_inst"] = {safe(double(fb), double(fb_insts)),
                                     "ns"};
    } else {
        std::uint64_t ref_insts = 0;
        for (const Census &c : ref)
            ref_insts += c.insts;
        out["screen.ns_per_inst"] = {
            safe(double(ref_fb_ns), double(ref_insts)), "ns"};
    }
    const double lat = double(sum_lat);
    out["time.prog_frac"] = {safe(double(prog), lat), "fraction"};
    out["time.cpu_frac"] = {safe(double(cpu), lat), "fraction"};
    out["time.func_batch_frac"] = {safe(double(fb), lat), "fraction"};
    out["time.other_frac"] = {safe(double(other), lat), "fraction"};

    const double kips_plain = kipsOf(plain);
    out["trace.overhead_frac"] = {1.0 - kipsOf(traced) / kips_plain,
                                  "fraction"};

    // Campaign-level numbers from the fastest untraced pass.
    const PassResult *fast = &plain[0];
    for (const PassResult &p : plain)
        if (p.wall_ns < fast->wall_ns)
            fast = &p;
    std::int64_t fast_sum = 0;
    for (std::int64_t v : fast->job_ns)
        fast_sum += v;
    out["campaign.parallel_eff"] = {
        safe(double(fast_sum), double(fast->wall_ns) * w.workers()),
        "fraction"};

    {
        const std::uint64_t root = w.campaignOptions(0).root_seed;
        const std::string path = opts.scratch_dir + "/replay.journal";
        JobJournal journal(path, w.campaign().name(), root,
                           fast->results.size(), false);
        const std::uint64_t header = journal.bytesWritten();
        const std::int64_t t0 = nowNs();
        for (std::size_t i = 0; i < fast->results.size(); ++i)
            journal.append(fast->results[i],
                           JobJournal::specDigest(specFor(w, *fast, i), i,
                                                  root));
        const double ns = double(nowNs() - t0);
        const double jobs = double(fast->results.size());
        out["journal.append_us"] = {ns / jobs / 1e3, "us"};
        out["journal.bytes_per_job"] = {
            double(journal.bytesWritten() - header) / jobs, "bytes"};
    }

    std::int64_t render = -1;
    for (int rep = 0; rep < 3; ++rep) {
        const std::int64_t t0 = nowNs();
        const std::size_t bytes = renderPass(w, *fast).size();
        const std::int64_t dtr = nowNs() - t0;
        if (bytes && (render < 0 || dtr < render))
            render = dtr;
    }
    out["sink.render_ms"] = {double(render) / 1e6, "ms"};

    out["verify.share"] = {verifyShare(w, *fast), "fraction"};

    const ReplayTimes rt = replayStructures(w);
    out["sfc.ns_per_op"] = {rt.sfc_ns_per_op, "ns"};
    out["mdt.ns_per_op"] = {rt.mdt_ns_per_op, "ns"};
    out["lsq.ns_per_op"] = {rt.lsq_ns_per_op, "ns"};
    return tally;
}

} // namespace perfbench
