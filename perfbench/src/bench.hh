/**
 * @file
 * perfbench: the repository benchmark.
 *
 * Three closed-loop workloads (base, wide, screen) each submit one job
 * list through campaign::Campaign::run — the entry the slf_campaign CLI
 * uses — and wait for it. An untimed warm-up pass comes first; then
 * timed passes repeat until the run's time budget is spent. The
 * statistic is chosen against co-tenant slow phases that last seconds:
 *
 *   - a job's latency is its best attempt time over the timed passes;
 *   - a campaign's wall-clock is its fastest timed pass.
 *
 * Outputs are checked outside the timed region (architectural census
 * against runFuncBatch, screen re-runs against their phase-1 census,
 * the gzip golden JSON). A separate traced run times calls into each
 * layer's public functions from this directory's own code and reports
 * the per-layer numbers. See perfbench/README.md.
 */

#ifndef PERFBENCH_BENCH_HH_
#define PERFBENCH_BENCH_HH_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/result_sink.hh"
#include "campaign/sweeps.hh"

namespace perfbench
{

using namespace slf;
using namespace slf::campaign;

/** Monotonic nanoseconds (CLOCK_MONOTONIC, the clock run.py reads). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Tiny job lists and one timed pass (the benchmark's own tests). */
    bool quick = false;
    /** Test seam: corrupt one reference census so the check must fail. */
    bool inject_mismatch = false;
    /** Directory for journals, result files and the span dump. */
    std::string scratch_dir = ".";
    /** Golden fig5 gzip JSON to compare against (empty = skip). */
    std::string golden_path;
};

/** One workload: how to build its job list and run one pass of it. */
class Workload
{
  public:
    explicit Workload(const Options &opts);

    const std::string &name() const { return name_; }
    unsigned workers() const { return workers_; }
    /** Screen: phase-1 screening, then exact re-runs and a result file. */
    bool twoPhase() const { return two_phase_; }
    /** Phase-1 job list (the whole list for base and wide). */
    const Campaign &campaign() const { return phase1_; }
    const SweepOptions &sweepOptions() const { return sopts_; }
    /** Config presets whose structure geometry the replay uses. */
    const std::string &mdtSfcPreset() const { return mdt_sfc_preset_; }
    const std::string &lsqPreset() const { return lsq_preset_; }

    /** Options for running @p phase (0 = screening/only, 1 = exact). */
    CampaignOptions campaignOptions(unsigned phase) const;
    /** Where a two-phase pass writes its result JSON. */
    std::string resultPath() const { return scratch_ + "/screen.json"; }

  private:
    std::string name_;
    std::string scratch_;
    unsigned workers_ = 1;
    bool two_phase_ = false;
    SweepOptions sopts_;
    Campaign phase1_{""};
    std::string mdt_sfc_preset_;
    std::string lsq_preset_;
};

/** Everything one pass produced. */
struct PassResult
{
    std::int64_t wall_ns = 0;
    /** Phase-1 results, then phase-2 results re-indexed after them. */
    std::vector<JobResult> results;
    /** Attempt-span latency per merged job index (all attempts). */
    std::vector<std::int64_t> job_ns;
    /** Jobs in phase 1 (== results.size() for single-phase workloads). */
    std::size_t screened = 0;
    /** Phase-1 indices the exact phase re-ran, in phase-2 order. */
    std::vector<std::size_t> selected;
    /** Selection-rule provenance (two-phase workloads). */
    ScreenInfo screen;
};

/** Canonical JSON of a pass's results (the sink's rendering). */
std::string renderPass(const Workload &w, const PassResult &p);

/** Per-job layer times and counts from one traced pass. */
struct JobLayers
{
    std::int64_t prog_ns = 0;     ///< inside make_prog
    std::int64_t ctor_ns = 0;     ///< OooCore construction
    std::int64_t tick_ns = 0;     ///< all tick() calls
    std::int64_t harvest_ns = 0;  ///< SimResult assembly after the run
    std::int64_t fb_ns = 0;       ///< inside runFuncBatch
    std::uint64_t ticks = 0;
    std::uint64_t occ_sum = 0;    ///< sum of robOccupancy() per tick
    /** Least-squares sums of (robOccupancy, tick ns) per tick. */
    double sx = 0, sy = 0, sxy = 0, sxx = 0;

    std::int64_t selfSum() const
    {
        return prog_ns + ctor_ns + tick_ns + harvest_ns + fb_ns;
    }
};

/** One recorded span (kept in memory, written when the run ends). */
struct Span
{
    std::string name;
    std::int64_t t0 = 0, t1 = 0;  ///< nowNs()
    std::int64_t parent = -1;     ///< index into the span list
    std::int64_t job = -1;        ///< merged job index (-1: pass level)
    int pass = 0;
};

/**
 * The traced run's instrumentation. While a Tracer exists it owns the
 * synthetic backend slot; instrument() returns a copy of a campaign
 * whose jobs run there, so each job's program build, core
 * construction, tick loop and screening run are timed through their
 * public entry points. restore() puts the original backend labels
 * back on the results, so selection, the journal replay and the sink
 * see exactly what an untraced pass produces.
 */
class Tracer
{
  public:
    Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    void beginPass(int pass);
    Campaign instrument(const Campaign &c, std::size_t offset);
    void restore(std::vector<JobResult> &results) const;
    void span(const char *name, std::int64_t t0, std::int64_t t1,
              std::int64_t job = -1, std::int64_t parent = -1);
    /** Per-job layers of the pass that just ran (merged index). */
    const std::vector<JobLayers> &layers() const { return cur_; }
    const std::vector<Span> &spans() const { return spans_; }

  private:
    SimResult runJob(const JobSpec &spec, const CoreConfig &cfg);
    SimResult timedCore(const CoreConfig &cfg, const Program &prog,
                        JobLayers &L, std::int64_t job,
                        std::int64_t parent);
    std::int64_t openSpan(const char *name, std::int64_t t0,
                          std::int64_t job);

    ScopedSyntheticBackend backend_;
    int pass_ = 0;
    /** "config/workload" -> merged index, for the phase running now. */
    std::map<std::string, std::size_t> index_;
    /** Original backend per merged index. */
    std::vector<BackendKind> kinds_;
    std::vector<JobLayers> cur_;
    std::mutex mu_;  ///< guards spans_ (two workers on screen)
    std::vector<Span> spans_;
};

/**
 * Run one pass of @p w. With @p tracer non-null every job runs through
 * the tracer's instrumented backend (traced run); results are
 * identical either way.
 */
PassResult runPass(const Workload &w, Tracer *tracer);

/** Merged-index JobSpec lookup for a pass (phase-2 jobs resolve to the
 *  screened point they re-run). */
const JobSpec &specFor(const Workload &w, const PassResult &p,
                       std::size_t merged_index);

/** Result of checking one set of passes. */
struct CheckTally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;  ///< first few failure descriptions
};

/** Census reference (insts/loads/stores/branches) per phase-1 job,
 *  from runFuncBatch on the same program, computed outside timing. */
struct Census
{
    std::uint64_t insts = 0, loads = 0, stores = 0, branches = 0;
    bool operator==(const Census &) const = default;
};
Census censusOf(const SimResult &r);
std::vector<Census> referenceCensus(const Workload &w, bool inject_mismatch,
                                    std::int64_t *func_batch_ns = nullptr);

/** Check every job of @p p: status ok, checker clean, census equal to
 *  the reference (screen re-runs: equal to their phase-1 census). */
void checkPass(const PassResult &p,
               const std::vector<Census> &ref, CheckTally &tally);

/** Render the gzip/scale-1/seed-42 fig5 slice and compare it byte for
 *  byte with @p golden_path. */
void checkGolden(const std::string &golden_path, CheckTally &tally);

/** Named metric with its unit. */
struct Metric
{
    double value = 0.0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** Per-job best latency over @p passes (ns). */
std::vector<std::int64_t> bestJobNs(const std::vector<PassResult> &passes);

/** Simulated instructions per host ms over per-job best latencies. */
double kipsOf(const std::vector<PassResult> &passes);

/** End-to-end metrics over timed passes (setup_s comes from run.py). */
void endToEndMetrics(const std::vector<PassResult> &passes, Metrics &out);

/** How much a run measured. */
struct RunInfo
{
    unsigned timed_passes = 0;
    std::size_t job_samples = 0;  ///< jobs per pass (latency samples)
};

/** Run the untraced benchmark and fill @p out; returns the tally. */
CheckTally runUntraced(const Options &opts, const Workload &w, Metrics &out,
                       RunInfo &info);

/** Run the traced benchmark and fill @p out with per-layer metrics. */
CheckTally runTraced(const Options &opts, const Workload &w, Metrics &out,
                     RunInfo &info);

// ---------------------------------------------------------------------
// Structure replay (replay.cc)
// ---------------------------------------------------------------------

struct ReplayTimes
{
    double sfc_ns_per_op = 0.0;
    double mdt_ns_per_op = 0.0;
    double lsq_ns_per_op = 0.0;
    std::uint64_t ops = 0;
};

/**
 * Replay each distinct program's load/store address stream (from
 * FuncSim) through the public Sfc, Mdt and Lsq APIs at the workload's
 * preset geometry, with an in-order window sized by the LSQ preset.
 */
ReplayTimes replayStructures(const Workload &w);

/** FNV-1a digest of every distinct program's disassembly. */
std::string programsDigest(const Workload &w);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH_
