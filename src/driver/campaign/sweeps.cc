#include "sweeps.hh"

#include <algorithm>
#include <cstdarg>
#include <cstdio>
#include <map>
#include <string_view>

#include "cpu/config_preset.hh"
#include "func_batch.hh"
#include "power/energy.hh"
#include "sim/logging.hh"
#include "verify/expectation.hh"
#include "workloads/micro_corpus.hh"
#include "workloads/workloads.hh"

namespace slf::campaign
{

namespace
{

// ---------------------------------------------------------------------
// Point-list helpers
// ---------------------------------------------------------------------

std::vector<WorkloadInfo>
selectedAnalogs(const SweepOptions &opts)
{
    std::vector<WorkloadInfo> out;
    for (const auto &info : spec2000Analogs())
        if (opts.bench_filter.empty() || opts.bench_filter == info.name)
            out.push_back(info);
    return out;
}

/** The selected analogs named in @p focus, in analog order. The paper
 *  studies these analogs; an explicit bench= filter replaces the focus
 *  list instead of intersecting with it. */
std::vector<WorkloadInfo>
focusAnalogs(const SweepOptions &opts,
             std::initializer_list<std::string_view> focus)
{
    std::vector<WorkloadInfo> out;
    for (const auto &info : selectedAnalogs(opts))
        if (!opts.bench_filter.empty() ||
            std::find(focus.begin(), focus.end(), info.name) != focus.end())
            out.push_back(info);
    return out;
}

JobSpec
analogJob(const std::string &config_name, const WorkloadInfo &info,
          CoreConfig cfg, const SweepOptions &opts)
{
    applyOverrides(cfg, opts.overrides);
    JobSpec spec;
    spec.config_name = config_name;
    spec.workload = info.name;
    spec.cfg = cfg;
    const WorkloadParams wp{opts.scale, opts.wseed};
    const WorkloadFactory make = info.make;
    spec.make_prog = [make, wp] { return make(wp); };
    return spec;
}

/** For each selected analog, one job per named preset (labelled with
 *  the preset name), analog-major. */
void
addPresetJobs(Campaign &c, const SweepOptions &opts,
              std::initializer_list<const char *> presets)
{
    for (const auto &info : selectedAnalogs(opts))
        for (const char *name : presets)
            c.addJob(analogJob(name, info, presetByName(name), opts));
}

// ---------------------------------------------------------------------
// Table text helpers: the layout every paper table shares
// ---------------------------------------------------------------------

[[gnu::format(printf, 2, 3)]] void
appendf(std::string &out, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    va_list again;
    va_copy(again, ap);
    const int n = std::vsnprintf(nullptr, 0, fmt, ap);
    va_end(ap);
    const std::size_t at = out.size();
    out.resize(at + std::size_t(n) + 1);
    std::vsnprintf(out.data() + at, std::size_t(n) + 1, fmt, again);
    va_end(again);
    out.resize(at + std::size_t(n));
}

/** The paper tables' header: "## title", a blank line, the column
 *  names and their rule. */
void
tableHeader(std::string &out, const std::string &title,
            const std::vector<std::string> &columns)
{
    appendf(out, "## %s\n\n%-12s", title.c_str(), "bench");
    for (const auto &c : columns)
        appendf(out, " %12s", c.c_str());
    out += '\n';
    out.append(13 + 13 * columns.size(), '-');
    out += '\n';
}

/** One table row: a name and numeric cells. */
void
tableRow(std::string &out, const std::string &name,
         const std::vector<double> &cells)
{
    appendf(out, "%-12s", name.c_str());
    for (double v : cells)
        appendf(out, " %12.3f", v);
    out += '\n';
}

/** Arithmetic mean (the paper's per-class average); 0 when empty. */
double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (double v : values)
        sum += v;
    return sum / double(values.size());
}

bool
isInt(const std::string &workload)
{
    return findWorkload(workload)->cls == WorkloadClass::Int;
}

std::uint64_t
violations(const SimResult &r)
{
    return r.viol_true + r.viol_anti + r.viol_output;
}

/**
 * A finished table sweep's results by (config, workload). Every cell a
 * table reads must exist and be ok — fatal() otherwise, so a table can
 * never print a default-constructed result.
 */
class Cells
{
  public:
    explicit Cells(const std::vector<JobResult> &results)
    {
        for (const JobResult &jr : results) {
            by_key_.emplace(std::make_pair(jr.config_name, jr.workload),
                            &jr);
            if (std::find(workloads_.begin(), workloads_.end(),
                          jr.workload) == workloads_.end())
                workloads_.push_back(jr.workload);
        }
    }

    const SimResult &
    operator()(const std::string &config, const std::string &workload) const
    {
        const auto it = by_key_.find({config, workload});
        if (it == by_key_.end())
            fatal("table cell " + config + "/" + workload +
                  " missing from results");
        if (!it->second->ok())
            fatal("table cell " + config + "/" + workload +
                  " failed: " + it->second->error);
        return it->second->result;
    }

    /** Workload labels in job order. */
    const std::vector<std::string> &workloads() const { return workloads_; }

  private:
    std::map<std::pair<std::string, std::string>, const JobResult *>
        by_key_;
    std::vector<std::string> workloads_;
};

/** Per-class column samples behind the "int avg" / "fp avg" rows. */
class ClassAverages
{
  public:
    explicit ClassAverages(std::size_t columns)
        : cols_{std::vector<std::vector<double>>(columns),
                std::vector<std::vector<double>>(columns)}
    {}

    void
    add(const std::string &workload, const std::vector<double> &cells)
    {
        auto &c = cols_[isInt(workload) ? 0 : 1];
        for (std::size_t i = 0; i < cells.size(); ++i)
            c[i].push_back(cells[i]);
    }

    /**
     * A blank line, then the int and fp average rows. A class with no
     * rows gets no average row: a mean over nothing is not a 0.000.
     */
    void
    render(std::string &out) const
    {
        out += '\n';
        for (int k = 0; k < 2; ++k) {
            if (cols_[k].empty() || cols_[k][0].empty())
                continue;
            std::vector<double> means;
            for (const auto &c : cols_[k])
                means.push_back(mean(c));
            tableRow(out, k ? "fp avg" : "int avg", means);
        }
    }

  private:
    std::vector<std::vector<double>> cols_[2];
};

// ---------------------------------------------------------------------
// The paper's tables: each one's point list, then its renderer
// ---------------------------------------------------------------------

// Figure 4: the simulator parameters of the baseline and aggressive
// cores. The table is the configuration, so the sweep runs no jobs.

Campaign
makeFig4Campaign(const SweepOptions &)
{
    return Campaign("fig4");
}

void
appendConfigColumn(std::string &out, const char *label,
                   const CoreConfig &cfg)
{
    using ull = unsigned long long;
    appendf(out, "%-24s %s\n", "Parameter", label);
    appendf(out, "%-24s %u instr/cycle\n", "Pipeline Width", cfg.width);
    appendf(out, "%-24s up to %u branches/cycle\n", "Fetch Bandwidth",
            cfg.max_branches_per_fetch);
    appendf(out, "%-24s %u-bit gshare + %.0f%% oracle-fixed mispredicts\n",
            "Branch Predictor", cfg.gshare_bits, cfg.oracle_fix_prob * 100);
    appendf(out, "%-24s %lluK-entry PT/CT, %lluK producer ids, "
                 "%llu-entry LFPT\n",
            "Memory Dep. Predictor", ull(cfg.memdep.table_entries / 1024),
            ull(cfg.memdep.num_set_ids / 1024),
            ull(cfg.memdep.lfpt_entries));
    appendf(out, "%-24s %llu cycles\n", "Misprediction Penalty",
            ull(cfg.mispredict_penalty));
    appendf(out, "%-24s %lluK sets, %u-way set assoc., %uB granularity\n",
            "MDT", ull(cfg.mdt.sets / 1024), cfg.mdt.assoc,
            cfg.mdt.granularity);
    appendf(out, "%-24s %llu sets, %u-way set assoc.\n", "SFC",
            ull(cfg.sfc.sets), cfg.sfc.assoc);
    appendf(out, "%-24s %u checkpoints (per-slot rollback)\n", "Renamer",
            cfg.rob_entries);
    appendf(out, "%-24s %u entries\n", "Scheduling Window",
            cfg.sched_entries);
    const std::pair<const char *, const CacheGeometry *> caches[] = {
        {"L1 I-Cache", &cfg.l1i},
        {"L1 D-Cache", &cfg.l1d},
        {"L2 Cache", &cfg.l2}};
    for (const auto &[name, c] : caches)
        appendf(out, "%-24s %lluKB, %u-way, %uB lines, %llu-cycle miss\n",
                name, ull(c->size_bytes / 1024), c->assoc, c->line_bytes,
                ull(c->miss_penalty));
    appendf(out, "%-24s %u entries\n", "Reorder Buffer", cfg.rob_entries);
    appendf(out, "%-24s %u identical fully pipelined units\n",
            "Function Units", cfg.num_fus);
    out += '\n';
}

SweepReport
renderFig4(const std::vector<JobResult> &, const SweepOptions &)
{
    std::string out = "Figure 4: simulator parameters\n\n";
    appendConfigColumn(out, "Baseline", CoreConfig::baseline());
    appendConfigColumn(out, "Aggressive", CoreConfig::aggressive());
    return {.table = out};
}

// Figure 5: the analogs on the 4-wide baseline core, MDT/SFC with the
// predictor enforcing true+anti+output (ENF) or only true (NOT-ENF)
// dependences, normalized to an idealized 48x32 LSQ.

SweepReport
renderFig5(const std::vector<JobResult> &results, const SweepOptions &)
{
    const Cells cell(results);
    std::string out;
    tableHeader(out,
                "Figure 5: baseline 4-wide core (normalized to 48x32 LSQ)",
                {"lsq48x32", "ENF", "NOT-ENF"});
    ClassAverages avg(3);
    for (const std::string &w : cell.workloads()) {
        const SimResult &lsq = cell("lsq48x32", w);
        const SimResult &enf = cell("enf", w);
        const SimResult &notenf = cell("notenf", w);
        const std::vector<double> cells = {
            lsq.ipc, lsq.ipc > 0 ? enf.ipc / lsq.ipc : 0,
            lsq.ipc > 0 ? notenf.ipc / lsq.ipc : 0};
        tableRow(out, w, cells);
        avg.add(w, cells);
    }
    avg.render(out);
    out += "\npaper: ENF int/fp averages ~0.99-1.00; NOT-ENF ~0.97\n";
    return {.table = out};
}

// Figure 6: the analogs on the 8-wide, 1024-entry aggressive core:
// 256x256 and 48x32 LSQs and the total-order MDT/SFC, normalized to an
// idealized 120x80 LSQ.

Campaign
makeFig6Campaign(const SweepOptions &opts)
{
    Campaign c("fig6");
    addPresetJobs(c, opts,
                  {"agg_lsq120x80", "agg_lsq256x256", "agg_lsq48x32",
                   "agg_total"});
    return c;
}

SweepReport
renderFig6(const std::vector<JobResult> &results, const SweepOptions &)
{
    const Cells cell(results);
    std::string out;
    tableHeader(out,
                "Figure 6: aggressive 8-wide core (normalized to 120x80 LSQ)",
                {"lsq120x80", "lsq256", "lsq48", "ENF(tot)"});
    ClassAverages avg(4);
    for (const std::string &w : cell.workloads()) {
        const SimResult &ref = cell("agg_lsq120x80", w);
        const double d = ref.ipc > 0 ? ref.ipc : 1;
        const std::vector<double> cells = {
            ref.ipc, cell("agg_lsq256x256", w).ipc / d,
            cell("agg_lsq48x32", w).ipc / d, cell("agg_total", w).ipc / d};
        tableRow(out, w, cells);
        avg.add(w, cells);
    }
    avg.render(out);
    out += "\npaper: ENF int avg ~0.91, fp avg ~1.02\n";
    return {.table = out};
}

// Sections 3.1/3.2 violation rates: on the baseline core, enforcing
// predicted anti and output dependences cuts their violation rate by
// more than an order of magnitude; on the aggressive core, total-order
// ENF beats NOT-ENF by ~14% (int) / ~43% (fp) IPC and the overall
// violation rate drops from ~0.93% to ~0.11% of memory operations.

Campaign
makeViolationRatesCampaign(const SweepOptions &opts)
{
    Campaign c("violation_rates");
    addPresetJobs(c, opts, {"enf", "notenf"});
    addPresetJobs(c, opts, {"agg_total", "agg_notenf"});
    return c;
}

double
antiOutputPerKiloMemOp(const SimResult &r)
{
    return r.memOps() ? 1000.0 * double(r.viol_anti + r.viol_output) /
                            double(r.memOps())
                      : 0;
}

SweepReport
renderViolationRates(const std::vector<JobResult> &results,
                     const SweepOptions &)
{
    const Cells cell(results);
    std::string out;
    tableHeader(out, "Baseline: anti+output violations per 1k memory ops",
                {"ENF", "NOT-ENF", "ratio"});
    for (const std::string &w : cell.workloads()) {
        const double enf_rate = antiOutputPerKiloMemOp(cell("enf", w));
        const double notenf_rate =
            antiOutputPerKiloMemOp(cell("notenf", w));
        const double ratio = enf_rate > 0 ? notenf_rate / enf_rate
                             : (notenf_rate > 0 ? 1e9 : 1.0);
        tableRow(out, w, {enf_rate, notenf_rate, ratio});
    }
    out += "\n(paper: ENF reduces anti/output violations by more than an "
           "order of magnitude)\n\n";

    tableHeader(out, "Aggressive: ENF(total-order) vs NOT-ENF",
                {"enfIPC", "notenfIPC", "enf/notenf", "viol%ENF", "viol%NOT"});
    std::vector<double> gain_int, gain_fp;
    double enf_viol = 0, enf_ops = 0, notenf_viol = 0, notenf_ops = 0;
    for (const std::string &w : cell.workloads()) {
        const SimResult &enf = cell("agg_total", w);
        const SimResult &notenf = cell("agg_notenf", w);
        const double gain = notenf.ipc > 0 ? enf.ipc / notenf.ipc : 0;
        tableRow(out, w,
                 {enf.ipc, notenf.ipc, gain, 100.0 * enf.violationRate(),
                  100.0 * notenf.violationRate()});
        (isInt(w) ? gain_int : gain_fp).push_back(gain);
        enf_viol += double(violations(enf));
        enf_ops += double(enf.memOps());
        notenf_viol += double(violations(notenf));
        notenf_ops += double(notenf.memOps());
    }
    // Only the classes that have rows get an average.
    out += "\nENF/NOT-ENF IPC:";
    if (!gain_int.empty())
        appendf(out, " int avg %.3f", mean(gain_int));
    if (!gain_int.empty() && !gain_fp.empty())
        out += ' ';
    if (!gain_fp.empty())
        appendf(out, " fp avg %.3f", mean(gain_fp));
    out += "   (paper: 1.14 int, 1.43 fp)\n";
    appendf(out,
            "violation rate: ENF %.2f%%  NOT-ENF %.2f%%"
            "   (paper: 0.11%% vs 0.93%%)\n",
            enf_ops > 0 ? 100.0 * enf_viol / enf_ops : 0,
            notenf_ops > 0 ? 100.0 * notenf_viol / notenf_ops : 0);
    return {.table = out};
}

// Section 3.2 associativity: bzip2's SFC and mcf's MDT set conflicts
// on the aggressive core all but vanish at 16 ways (same set count).

SweepReport
renderAssoc(const std::vector<JobResult> &results, const SweepOptions &)
{
    const Cells cell(results);
    std::string out;
    tableHeader(out, "Section 3.2: SFC/MDT associativity (aggressive core)",
                {"ipc2way", "ipc16way", "speedup", "stRepl2%", "stRepl16%",
                 "ldRepl2%", "ldRepl16%"});
    for (const std::string &w : cell.workloads()) {
        const SimResult &r2 = cell("assoc2", w);
        const SimResult &r16 = cell("assoc16", w);
        tableRow(out, w,
                 {r2.ipc, r16.ipc, r2.ipc > 0 ? r16.ipc / r2.ipc : 0,
                  100.0 * r2.storeReplayRate(), 100.0 * r16.storeReplayRate(),
                  100.0 * r2.loadReplayRate(), 100.0 * r16.loadReplayRate()});
    }
    out += "\npaper: bzip2 store conflicts >50% -> 0.07% (+9.0% IPC); mcf "
           "load conflicts >16% -> 0.00% (+6.5% IPC)\n";
    return {.table = out};
}

// Section 3.2 corruption: vpr_route / ammp / equake replay ~20% of
// their loads on SFC corruption on the aggressive core.

Campaign
makeCorruptionCampaign(const SweepOptions &opts)
{
    Campaign c("corruption");
    addPresetJobs(c, opts, {"agg_total", "agg_lsq120x80"});
    return c;
}

SweepReport
renderCorruption(const std::vector<JobResult> &results,
                 const SweepOptions &)
{
    const Cells cell(results);
    std::string out;
    tableHeader(out, "Section 3.2: SFC corruption replays (aggressive core)",
                {"ipc", "rel(lsq)", "corrRepl%", "mispred/1k"});
    for (const std::string &w : cell.workloads()) {
        const SimResult &sfc = cell("agg_total", w);
        const SimResult &lsq = cell("agg_lsq120x80", w);
        const double corr_rate = sfc.loads_retired
            ? 100.0 * double(sfc.load_replays_sfc_corrupt) /
                  double(sfc.loads_retired)
            : 0;
        const double mpki = sfc.insts
            ? 1000.0 * double(sfc.mispredicts) / double(sfc.insts)
            : 0;
        tableRow(out, w,
                 {sfc.ipc, lsq.ipc > 0 ? sfc.ipc / lsq.ipc : 0, corr_rate,
                  mpki});
    }
    out += "\npaper: vpr_route/ammp/equake ~20% corruption replays, most "
           "others <=6%\n";
    return {.table = out};
}

// Section 2.2 granularity: bytes disambiguated per MDT entry. Coarse
// blocks trade tag conflicts for spurious violations; the paper finds
// 8 bytes adequate for a 64-bit machine. Five representative analogs
// keep the sweep tractable; it always runs all five (bench= does not
// apply).

constexpr unsigned kGranularities[] = {1, 2, 4, 8, 16, 32, 64};
constexpr const char *kGranularityAnalogs[] = {"crafty", "gcc", "gzip",
                                               "twolf", "mgrid"};

std::string
granularityLabel(unsigned gran)
{
    return "gran" + std::to_string(gran);
}

Campaign
makeGranularityCampaign(const SweepOptions &opts)
{
    Campaign c("granularity");
    for (unsigned gran : kGranularities) {
        CoreConfig cfg = presetByName("enf");
        cfg.mdt.granularity = gran;
        for (const char *name : kGranularityAnalogs)
            c.addJob(analogJob(granularityLabel(gran), *findWorkload(name),
                               cfg, opts));
    }
    return c;
}

SweepReport
renderGranularity(const std::vector<JobResult> &results,
                  const SweepOptions &)
{
    const Cells cell(results);
    std::string out;
    tableHeader(out, "Section 2.2: MDT granularity sweep (baseline core)",
                {"gran", "avgIPC", "viol/1k-mem", "confl/1k-mem"});
    for (unsigned gran : kGranularities) {
        std::vector<double> ipcs;
        double viols = 0, confl = 0, ops = 0;
        for (const char *name : kGranularityAnalogs) {
            const SimResult &r = cell(granularityLabel(gran), name);
            ipcs.push_back(r.ipc);
            viols += double(violations(r));
            confl += double(r.load_replays_mdt_conflict +
                            r.store_replays_mdt_conflict);
            ops += double(r.memOps());
        }
        tableRow(out, "gran=" + std::to_string(gran),
                 {double(gran), mean(ipcs), ops > 0 ? 1000.0 * viols / ops : 0,
                  ops > 0 ? 1000.0 * confl / ops : 0});
    }
    out += "\npaper: 8-byte granularity is adequate for a 64-bit "
           "processor\n";
    return {.table = out};
}

// Section 3.1 LSQ sizing: "increasing the size of the LSQ does not
// increase the performance of any of the simulated benchmarks" on the
// baseline core.

constexpr const char *kLsqSizes[] = {"lsq16x12",  "lsq32x24",
                                     "lsq48x32",  "lsq64x48",
                                     "lsq120x80", "lsq256x256"};

SweepReport
renderLsqSize(const std::vector<JobResult> &results, const SweepOptions &)
{
    const Cells cell(results);
    std::string out;
    tableHeader(out, "Section 3.1: baseline LSQ size sweep (average IPC)",
                {"lq", "sq", "intAvgIPC", "fpAvgIPC"});
    for (const char *name : kLsqSizes) {
        std::vector<double> int_ipc, fp_ipc;
        for (const std::string &w : cell.workloads())
            (isInt(w) ? int_ipc : fp_ipc).push_back(cell(name, w).ipc);
        const LsqParams lsq = presetByName(name).lsq;
        tableRow(out, name,
                 {double(lsq.lq_entries), double(lsq.sq_entries),
                  mean(int_ipc), mean(fp_ipc)});
    }
    out += "\npaper: no benchmark gains beyond the 48x32 LSQ at the "
           "128-entry window\n";
    return {.table = out};
}

// Sections 1 and 4 power proxy: the LSQ fires one CAM match line per
// occupied entry per search; the SFC and MDT touch a constant number
// of ways per access. Both counts per 1k retired memory operations.

Campaign
makeActivityCampaign(const SweepOptions &opts)
{
    Campaign c("activity");
    addPresetJobs(c, opts, {"lsq48x32", "enf"});
    return c;
}

SweepReport
renderActivity(const std::vector<JobResult> &results, const SweepOptions &)
{
    const Cells cell(results);
    const CoreConfig base = CoreConfig::baseline();
    std::string out;
    tableHeader(out,
                "Power proxy: CAM match lines vs indexed accesses per 1k mem "
                "ops",
                {"camLines", "lsqSearch", "mdtAcc", "sfcAcc", "ratio"});
    double total_cam = 0, total_indexed = 0;
    for (const std::string &w : cell.workloads()) {
        const SimResult &lsq = cell("lsq48x32", w);
        const SimResult &sfc = cell("enf", w);
        const double lops = double(lsq.memOps() ? lsq.memOps() : 1);
        const double sops = double(sfc.memOps() ? sfc.memOps() : 1);
        const double cam = 1000.0 * double(lsq.cam_entries_examined) / lops;
        const double searches = 1000.0 * double(lsq.lsq_searches) / lops;
        // Each indexed access reads `assoc` ways.
        const double mdt_ways = 1000.0 * double(sfc.mdt_accesses) *
                                double(base.mdt.assoc) / sops;
        const double sfc_ways = 1000.0 * double(sfc.sfc_accesses) *
                                double(base.sfc.assoc) / sops;
        const double indexed = mdt_ways + sfc_ways;
        tableRow(out, w,
                 {cam, searches, mdt_ways, sfc_ways,
                  indexed > 0 ? cam / indexed : 0});
        total_cam += cam;
        total_indexed += indexed;
    }
    appendf(out, "\naggregate CAM-lines : indexed-ways ratio = %.2f : 1\n",
            total_indexed > 0 ? total_cam / total_indexed : 0);
    appendf(out,
            "(the paper's power argument: the LSQ fires a match line per "
            "occupied entry per access,\n the SFC/MDT touch a constant "
            "%u+%u ways)\n",
            base.sfc.assoc, base.mdt.assoc);
    return {.table = out};
}

// Section 3.2 enforcement policy on the aggressive core: true
// dependences only vs predicted producer->consumer pairs vs a total
// order on each producer set.

Campaign
makeEnforcementCampaign(const SweepOptions &opts)
{
    Campaign c("enforcement");
    addPresetJobs(c, opts, {"agg_notenf", "agg_enf", "agg_total"});
    return c;
}

SweepReport
renderEnforcement(const std::vector<JobResult> &results,
                  const SweepOptions &)
{
    const Cells cell(results);
    std::string out;
    tableHeader(out, "Aggressive core: predictor enforcement ablation (IPC)",
                {"trueOnly", "pairs", "totalOrder"});
    std::vector<double> t_all, p_all, o_all;
    for (const std::string &w : cell.workloads()) {
        t_all.push_back(cell("agg_notenf", w).ipc);
        p_all.push_back(cell("agg_enf", w).ipc);
        o_all.push_back(cell("agg_total", w).ipc);
        tableRow(out, w, {t_all.back(), p_all.back(), o_all.back()});
    }
    out += '\n';
    tableRow(out, "avg", {mean(t_all), mean(p_all), mean(o_all)});
    out += "\npaper: total ordering outperforms producer-consumer pairs "
           "in the aggressive core\n";
    return {.table = out};
}

// Section 2.4 recovery policies on the aggressive core, over the
// pathology carriers: optimized true-dependence recovery (2.4.1),
// output violations marking the SFC entry corrupt (2.4.2) and
// stall-bit replay throttling (2.4.3).

struct RecoveryVariant
{
    const char *label;
    const char *title;
    bool optimized_true, output_marks_corrupt, no_stall_bits;
};

constexpr RecoveryVariant kRecoveryVariants[] = {
    {"conservative", "conservative recovery (paper default)", false, false,
     false},
    {"opt_true", "+ optimized true-dep recovery (2.4.1)", true, false,
     false},
    {"out_corrupt", "+ output-dep marks corrupt (2.4.2)", false, true,
     false},
    {"no_stall", "- stall-bit replay throttling (2.4.3)", false, false,
     true},
    {"all", "all optimizations", true, true, false},
};

Campaign
makeRecoveryCampaign(const SweepOptions &opts)
{
    Campaign c("recovery");
    const auto analogs =
        focusAnalogs(opts, {"bzip2", "mcf", "gzip", "vpr_route", "ammp",
                            "equake", "twolf", "crafty"});
    for (const RecoveryVariant &v : kRecoveryVariants) {
        CoreConfig cfg = presetByName("agg_total");
        if (v.optimized_true)
            cfg.mdt.optimized_true_recovery = true;
        if (v.output_marks_corrupt)
            cfg.output_dep_marks_corrupt = true;
        if (v.no_stall_bits)
            cfg.stall_bits = false;
        for (const auto &info : analogs)
            c.addJob(analogJob(v.label, info, cfg, opts));
    }
    return c;
}

SweepReport
renderRecovery(const std::vector<JobResult> &results, const SweepOptions &)
{
    const Cells cell(results);
    std::string out = "## Section 2.4 recovery-policy ablation "
                      "(aggressive core, average IPC)\n\n";
    for (const RecoveryVariant &v : kRecoveryVariants) {
        std::vector<double> ipcs;
        for (const std::string &w : cell.workloads())
            ipcs.push_back(cell(v.label, w).ipc);
        appendf(out, "%-44s %8.3f\n", v.title, mean(ipcs));
    }
    return {.table = out};
}

// The dynamic-power claim in picojoules: the first-order energy model
// (src/power) over both subsystems' activity counts, on both cores.
// The activity counters in the result JSON are exactly the model's
// inputs, so the table is recomputable from the --out file alone.

struct SubsystemPair
{
    const char *lsq_label;
    const char *sfc_label;
    const char *lsq_preset;
    const char *sfc_preset;
    const char *title;
};

constexpr SubsystemPair kEnergyCores[] = {
    {"baseline_lsq", "baseline_mdtsfc", "lsq48x32", "enf", "baseline core"},
    {"aggressive_lsq", "aggressive_mdtsfc", "agg_lsq120x80", "agg_total",
     "aggressive core"},
};

Campaign
makeEnergyCampaign(const SweepOptions &opts)
{
    Campaign c("energy");
    for (const SubsystemPair &v : kEnergyCores)
        for (const auto &info : selectedAnalogs(opts)) {
            c.addJob(analogJob(v.lsq_label, info,
                               presetByName(v.lsq_preset), opts));
            c.addJob(analogJob(v.sfc_label, info,
                               presetByName(v.sfc_preset), opts));
        }
    return c;
}

ActivityCounts
countsFor(const SimResult &r, const CoreConfig &cfg)
{
    ActivityCounts a;
    a.cam_entries_examined = r.cam_entries_examined;
    a.cam_searches = r.lsq_searches;
    a.mdt_accesses = r.mdt_accesses;
    a.mdt_assoc = cfg.mdt.assoc;
    // The runner folds SFC reads and writes into one counter; split by
    // the load/store mix.
    a.sfc_reads =
        r.sfc_accesses * r.loads_retired / (r.memOps() ? r.memOps() : 1);
    a.sfc_writes = r.sfc_accesses - a.sfc_reads;
    a.sfc_assoc = cfg.sfc.assoc;
    a.mem_ops = r.memOps();
    return a;
}

SweepReport
renderEnergy(const std::vector<JobResult> &results, const SweepOptions &)
{
    const Cells cell(results);
    const EnergyModel model;
    std::string out;
    for (const SubsystemPair &v : kEnergyCores) {
        tableHeader(out,
                    std::string("Ordering/forwarding energy per memory op "
                                "(pJ), ") +
                        v.title,
                    {"lsqPJ", "mdtsfcPJ", "ratio"});
        const CoreConfig lsq_cfg = presetByName(v.lsq_preset);
        const CoreConfig sfc_cfg = presetByName(v.sfc_preset);
        double lsq_sum = 0, sfc_sum = 0;
        for (const std::string &w : cell.workloads()) {
            const double lsq_pj =
                model.lsqEnergy(countsFor(cell(v.lsq_label, w), lsq_cfg))
                    .pj_per_mem_op;
            const double sfc_pj =
                model.mdtSfcEnergy(countsFor(cell(v.sfc_label, w), sfc_cfg))
                    .pj_per_mem_op;
            tableRow(out, w,
                     {lsq_pj, sfc_pj, sfc_pj > 0 ? lsq_pj / sfc_pj : 0});
            lsq_sum += lsq_pj;
            sfc_sum += sfc_pj;
        }
        appendf(out, "\naggregate LSQ : MDT/SFC energy ratio = %.2f : 1\n\n",
                sfc_sum > 0 ? lsq_sum / sfc_sum : 0);
    }
    const EnergyParams p;
    appendf(out,
            "(model: CAM match line %.2f pJ + priority encode %.2f pJ per "
            "occupied entry per search;\n RAM way read/write %.2f/%.2f "
            "pJ — first-order relative magnitudes)\n",
            p.cam_matchline_pj, p.priority_encode_pj, p.ram_way_read_pj,
            p.ram_way_write_pj);
    return {.table = out};
}

// End of Section 3.2: the SFC's per-byte corruption masks vs the
// proposed flush-endpoint alternative at several tracked-range
// budgets, on the corruption-dominated analogs (aggressive core).

constexpr unsigned kFlushRangeBudgets[] = {1, 8, 64};

Campaign
makeFlushEndpointsCampaign(const SweepOptions &opts)
{
    Campaign c("flush_endpoints");
    for (const auto &info : focusAnalogs(
             opts, {"vpr_route", "ammp", "equake", "gcc", "crafty"})) {
        const CoreConfig masks = presetByName("agg_total");
        c.addJob(analogJob("masks", info, masks, opts));
        for (unsigned ranges : kFlushRangeBudgets) {
            CoreConfig endp = masks;
            endp.sfc.use_flush_endpoints = true;
            endp.sfc.max_flush_ranges = ranges;
            c.addJob(analogJob("endp" + std::to_string(ranges), info, endp,
                               opts));
        }
    }
    return c;
}

SweepReport
renderFlushEndpoints(const std::vector<JobResult> &results,
                     const SweepOptions &)
{
    const Cells cell(results);
    std::string out;
    tableHeader(out, "SFC canceled-store mechanism (aggressive core, IPC)",
                {"masks", "endp1", "endp8", "endp64"});
    for (const std::string &w : cell.workloads()) {
        std::vector<double> cells = {cell("masks", w).ipc};
        for (unsigned ranges : kFlushRangeBudgets)
            cells.push_back(cell("endp" + std::to_string(ranges), w).ipc);
        tableRow(out, w, cells);
    }
    out += "\npaper (Sec. 3.2): 'the performance of this mechanism would "
           "depend on the number of flush endpoints tracked'\n";
    return {.table = out};
}

// Section 4: completion-time detection (MDT/SFC) vs value-based replay
// at retirement (Cain/Lipasti, with and without load-PC dependence
// hints) vs the idealized LSQ, on both cores.

struct DetectionCore
{
    const char *prefix;
    const char *lsq_preset;
    const char *sfc_preset;
    const char *title;
};

constexpr DetectionCore kDetectionCores[] = {
    {"baseline_", "lsq48x32", "enf", "baseline core (128-entry window)"},
    {"aggressive_", "agg_lsq120x80", "agg_total",
     "aggressive core (1024-entry window)"},
};

Campaign
makeValueReplayCampaign(const SweepOptions &opts)
{
    Campaign c("value_replay");
    for (const DetectionCore &v : kDetectionCores) {
        const std::string p = v.prefix;
        const CoreConfig lsq = presetByName(v.lsq_preset);
        // The hinted variant filters replays through the load-PC
        // dependence predictor; the other re-checks every load.
        CoreConfig vbr = lsq;
        vbr.subsys = MemSubsystem::ValueReplay;
        vbr.value_replay_filtered = true;
        CoreConfig nohint = vbr;
        nohint.value_replay_filtered = false;
        for (const auto &info : selectedAnalogs(opts)) {
            c.addJob(analogJob(p + "lsq", info, lsq, opts));
            c.addJob(analogJob(p + "mdtsfc", info,
                               presetByName(v.sfc_preset), opts));
            c.addJob(analogJob(p + "vbr", info, vbr, opts));
            c.addJob(analogJob(p + "vbr_nohint", info, nohint, opts));
        }
    }
    return c;
}

SweepReport
renderValueReplay(const std::vector<JobResult> &results,
                  const SweepOptions &)
{
    const Cells cell(results);
    std::string out;
    for (const DetectionCore &v : kDetectionCores) {
        const std::string p = v.prefix;
        tableHeader(out, std::string("Detection point comparison, ") + v.title,
                    {"lsqIPC", "mdtsfc", "vbr", "vbrNoHint"});
        std::vector<double> sfc_rel, vbr_rel, nohint_rel;
        for (const std::string &w : cell.workloads()) {
            const SimResult &rl = cell(p + "lsq", w);
            const double d = rl.ipc > 0 ? rl.ipc : 1;
            sfc_rel.push_back(cell(p + "mdtsfc", w).ipc / d);
            vbr_rel.push_back(cell(p + "vbr", w).ipc / d);
            nohint_rel.push_back(cell(p + "vbr_nohint", w).ipc / d);
            tableRow(out, w,
                     {rl.ipc, sfc_rel.back(), vbr_rel.back(),
                      nohint_rel.back()});
        }
        out += '\n';
        tableRow(out, "avg",
                 {0.0, mean(sfc_rel), mean(vbr_rel), mean(nohint_rel)});
        out += '\n';
    }
    out += "paper (Sec. 4): completion-time disambiguation (MDT) is "
           "preferable to retirement-time replay\nin checkpointed "
           "large-window processors\n";
    return {.table = out};
}

// ---------------------------------------------------------------------
// fault: the injection census and the campaign's pass criteria
// ---------------------------------------------------------------------

/** One fault phase's totals over its jobs. */
struct FaultTotals
{
    std::uint64_t jobs = 0;
    std::uint64_t faults = 0;
    std::uint64_t detections = 0;        ///< checker failures, all kinds
    std::uint64_t diverged = 0;          ///< jobs with a checker failure
    std::uint64_t store_commit_detections = 0;
    std::uint64_t absorbed_replays = 0;  ///< SFC corrupt-bit load replays
    std::uint64_t wedged = 0;            ///< jobs that did not finish
};

/** Sum @p phase's jobs; append their divergence reports (the first two
 *  per job) and failures to @p log. */
FaultTotals
faultTotals(const std::string &phase, const std::vector<JobResult> &results,
            std::string &log)
{
    FaultTotals t;
    for (const JobResult &jr : results) {
        if (jr.config_name != phase)
            continue;
        ++t.jobs;
        const std::string tag = "  [" + phase + "/" + jr.workload + "] ";
        if (!jr.ok()) {
            ++t.wedged;
            log += tag + jobStatusName(jr.status) + ": " + jr.error + "\n";
            continue;
        }
        const SimResult &r = jr.result;
        t.faults += r.faults_sfc_mask + r.faults_sfc_data +
                    r.faults_mdt_evict + r.faults_fifo_payload;
        t.detections += r.check_failures;
        t.diverged += r.check_failures != 0;
        t.store_commit_detections += r.check_store_commit_failures;
        t.absorbed_replays += r.load_replays_sfc_corrupt;
        const std::size_t shown =
            std::min<std::size_t>(r.check_reports.size(), 2);
        for (std::size_t i = 0; i < shown; ++i)
            log += tag + r.check_reports[i].toString() + "\n";
        if (r.check_failures > shown)
            log += tag + "... " + std::to_string(r.check_failures - shown) +
                   " further divergences (cascades of the corrupted "
                   "bytes)\n";
    }
    return t;
}

/**
 * The fault table and the campaign's verdict. Four phases, each over
 * the memory-intensive micros:
 *  - baseline: checker on, faults off; must be fault- and
 *    divergence-free.
 *  - sfc: corrupt-mask poisoning and data clobbers, the faults the
 *    paper's corruption machinery defends against; must inject and be
 *    absorbed as replays with no divergence.
 *  - fifo: store-FIFO payload corruption at the drain, an architectural
 *    fault; the checker must catch >= 99% as StoreCommit divergences.
 *  - mdt: early MDT evictions erase ordering records; the jobs that
 *    diverge from the golden model, and their divergences (one escape
 *    can cascade into hundreds), are reported, never judged.
 */
SweepReport
renderFault(const std::vector<JobResult> &results, const SweepOptions &opts)
{
    SweepReport rep;
    std::string &out = rep.table;
    tableHeader(out,
                "Fault-injection campaign vs golden-model checker (rate " +
                    std::to_string(opts.fault_rate) + ")",
                {"faults", "detected", "st_commit", "absorbed", "wedged"});
    auto phase = [&](const std::string &name) {
        const FaultTotals t = faultTotals(name, results, rep.log);
        tableRow(out, name,
                 {double(t.faults), double(t.detections),
                  double(t.store_commit_detections),
                  double(t.absorbed_replays), double(t.wedged)});
        return t;
    };
    auto fail = [&](const std::string &why) {
        out += "FAIL: " + why + "\n";
        rep.breach = true;
    };

    const FaultTotals base = phase("baseline");
    if (base.faults || base.detections || base.wedged)
        fail("baseline phase must be fault-free and divergence-free");

    const FaultTotals sfc = phase("sfc");
    if (sfc.faults == 0)
        fail("sfc phase injected nothing");
    if (sfc.detections)
        fail("sfc faults must be absorbed by the corruption machinery "
             "(got " + std::to_string(sfc.detections) + " divergences)");

    const FaultTotals fifo = phase("fifo");
    if (fifo.faults == 0)
        fail("fifo phase injected nothing");
    else if (100 * fifo.store_commit_detections < 99 * fifo.faults)
        fail("checker detected " +
             std::to_string(fifo.store_commit_detections) + "/" +
             std::to_string(fifo.faults) +
             " fifo payload corruptions (< 99%)");

    const FaultTotals mdt = phase("mdt");
    appendf(out,
            "  (mdt evictions erase ordering records; %llu of %llu jobs "
            "diverged from the golden model, %llu divergences in all)\n",
            static_cast<unsigned long long>(mdt.diverged),
            static_cast<unsigned long long>(mdt.jobs),
            static_cast<unsigned long long>(mdt.detections));
    out += rep.breach ? "CAMPAIGN FAIL\n" : "CAMPAIGN PASS\n";
    return rep;
}

// ---------------------------------------------------------------------
// The registry
// ---------------------------------------------------------------------

using Renderer = SweepReport (*)(const std::vector<JobResult> &,
                                 const SweepOptions &);

struct SweepDef
{
    const char *name;
    Campaign (*make)(const SweepOptions &);
    /** The printed report; null for a sweep without one. */
    Renderer render;
};

Campaign makePaperCampaign(const SweepOptions &opts);
SweepReport renderPaper(const std::vector<JobResult> &results,
                        const SweepOptions &opts);

/** Every registered sweep. Each sweep before `paper` is one of its
 *  tables, printed in this order; the sweeps after it are not. */
const SweepDef kSweeps[] = {
    {"fig4", makeFig4Campaign, renderFig4},
    {"fig5", makeFig5Campaign, renderFig5},
    {"fig6", makeFig6Campaign, renderFig6},
    {"violation_rates", makeViolationRatesCampaign, renderViolationRates},
    {"assoc", makeAssocCampaign, renderAssoc},
    {"corruption", makeCorruptionCampaign, renderCorruption},
    {"granularity", makeGranularityCampaign, renderGranularity},
    {"lsq_size", makeLsqSizeCampaign, renderLsqSize},
    {"activity", makeActivityCampaign, renderActivity},
    {"enforcement", makeEnforcementCampaign, renderEnforcement},
    {"recovery", makeRecoveryCampaign, renderRecovery},
    {"energy", makeEnergyCampaign, renderEnergy},
    {"flush_endpoints", makeFlushEndpointsCampaign, renderFlushEndpoints},
    {"value_replay", makeValueReplayCampaign, renderValueReplay},
    {"paper", makePaperCampaign, renderPaper},
    {"fault", makeFaultCampaign, renderFault},
    {"micro", makeMicroCampaign, nullptr},
    {"screen", makeScreenCampaign, nullptr},
};

const SweepDef &
sweepDef(const std::string &name)
{
    for (const SweepDef &def : kSweeps)
        if (name == def.name)
            return def;
    std::string valid;
    for (const std::string &n : sweepNames())
        valid += (valid.empty() ? "" : "|") + n;
    fatal("unknown sweep '" + name + "' (" + valid + ")");
}

// ---------------------------------------------------------------------
// paper: the union of the tables, each distinct simulation run once
// ---------------------------------------------------------------------

/** Whether two jobs simulate the same thing. The config label is not
 *  part of it; the program is, through the workload name, because every
 *  table builds its analogs from the same SweepOptions. */
bool
sameSimulation(const JobSpec &a, const JobSpec &b)
{
    return a.workload == b.workload && a.backend == b.backend &&
           a.derive_seeds == b.derive_seeds && a.cfg == b.cfg;
}

struct PaperTable
{
    const SweepDef *def;
    Campaign member;
    /** The paper job that runs each of the member's jobs. */
    std::vector<std::size_t> paper_job;
};

struct PaperPlan
{
    Campaign campaign{"paper"};
    std::vector<PaperTable> tables;
};

PaperPlan
planPaper(const SweepOptions &opts)
{
    PaperPlan plan;
    std::map<std::string, std::vector<std::size_t>> by_workload;
    for (const SweepDef &def : kSweeps) {
        if (def.make == makePaperCampaign)
            break;
        PaperTable t{&def, def.make(opts), {}};
        for (const JobSpec &spec : t.member.jobs()) {
            std::vector<std::size_t> &seen = by_workload[spec.workload];
            const auto it = std::find_if(
                seen.begin(), seen.end(), [&](std::size_t i) {
                    return sameSimulation(plan.campaign.jobs()[i], spec);
                });
            const std::size_t job =
                it != seen.end() ? *it : plan.campaign.addJob(spec);
            if (it == seen.end())
                seen.push_back(job);
            t.paper_job.push_back(job);
        }
        plan.tables.push_back(std::move(t));
    }
    return plan;
}

Campaign
makePaperCampaign(const SweepOptions &opts)
{
    return planPaper(opts).campaign;
}

/** Fan each paper result back out to every table that shares the
 *  point (relabelled and re-indexed as that table's own job) and print
 *  the tables in registry order. The tables declare no checks, so only
 *  their text is kept. */
SweepReport
renderPaper(const std::vector<JobResult> &results, const SweepOptions &opts)
{
    const PaperPlan plan = planPaper(opts);
    if (results.size() != plan.campaign.jobCount())
        fatal("paper: " + std::to_string(results.size()) +
              " results for " + std::to_string(plan.campaign.jobCount()) +
              " jobs");
    SweepReport out;
    for (const PaperTable &t : plan.tables) {
        std::vector<JobResult> mine;
        for (std::size_t i = 0; i < t.member.jobCount(); ++i) {
            JobResult jr = results[t.paper_job[i]];
            jr.index = i;
            jr.config_name = t.member.jobs()[i].config_name;
            mine.push_back(std::move(jr));
        }
        out.table += t.def->render(mine, opts).table;
    }
    return out;
}

} // namespace

SweepOptions &
SweepOptions::withScreenStat(std::string v)
{
    if (v != "stall_frac" &&
        !std::binary_search(statNames().begin(), statNames().end(), v)) {
        std::string valid = "stall_frac";
        for (const std::string &s : statNames())
            valid += ", " + s;
        fatal("unknown screen stat '" + v + "' (valid: " + valid + ")");
    }
    screen_stat = std::move(v);
    return *this;
}

SweepOptions &
SweepOptions::withOverride(const std::string &key,
                           const std::string &value)
{
    const std::vector<std::string> &known = knownOverrideKeys();
    if (!std::binary_search(known.begin(), known.end(), key)) {
        std::string valid;
        for (const std::string &k : known)
            valid += (valid.empty() ? "" : ", ") + k;
        fatal("unknown core-config override '" + key +
              "' (valid keys: " + valid + ")");
    }
    overrides.set(key, value);
    return *this;
}

/** Its job list is also both screen phases' point list, so a screen
 *  job's index always names the same (config, workload) point. */
Campaign
makeFig5Campaign(const SweepOptions &opts)
{
    Campaign c("fig5");
    addPresetJobs(c, opts, {"lsq48x32", "enf", "notenf"});
    return c;
}

Campaign
makeLsqSizeCampaign(const SweepOptions &opts)
{
    Campaign c("lsq_size");
    for (const char *name : kLsqSizes)
        for (const auto &info : selectedAnalogs(opts))
            c.addJob(analogJob(name, info, presetByName(name), opts));
    return c;
}

Campaign
makeAssocCampaign(const SweepOptions &opts)
{
    Campaign c("assoc");
    // The paper studies the two set-conflict outliers.
    for (const auto &info : focusAnalogs(opts, {"bzip2", "mcf"})) {
        CoreConfig two = presetByName("agg_total");
        CoreConfig sixteen = two;
        sixteen.sfc.assoc = 16;
        sixteen.mdt.assoc = 16;
        c.addJob(analogJob("assoc2", info, two, opts));
        c.addJob(analogJob("assoc16", info, sixteen, opts));
    }
    return c;
}

Campaign
makeFaultCampaign(const SweepOptions &opts)
{
    Campaign c("fault");

    struct Micro
    {
        const char *name;
        Program (*make)(std::uint64_t);
    };
    static constexpr Micro kMicros[] = {
        {"forward_chain", workloads::microForwardChain},
        {"streaming", workloads::microStreaming},
        {"corruption_example", workloads::microCorruptionExample},
        {"output_violations", workloads::microOutputViolations},
        {"true_violations", workloads::microTrueViolations},
    };

    CoreConfig base = presetByName("enf");
    base.validate = true;
    base.check_abort = false;   // record divergences, count them
    applyOverrides(base, opts.overrides);

    struct Phase
    {
        const char *name;
        double sfc_mask, sfc_data, fifo_payload, mdt_evict;
    };
    const double r = opts.fault_rate;
    const Phase kPhases[] = {
        {"baseline", 0, 0, 0, 0},
        {"sfc", r, r, 0, 0},
        {"fifo", 0, 0, r, 0},
        {"mdt", 0, 0, 0, r},
    };

    for (const Phase &phase : kPhases) {
        CoreConfig cfg = base;
        cfg.fault.sfc_mask_rate = phase.sfc_mask;
        cfg.fault.sfc_data_rate = phase.sfc_data;
        cfg.fault.fifo_payload_rate = phase.fifo_payload;
        cfg.fault.mdt_evict_rate = phase.mdt_evict;
        for (const Micro &m : kMicros) {
            JobSpec spec;
            spec.config_name = phase.name;
            spec.workload = m.name;
            spec.cfg = cfg;
            const auto make = m.make;
            const std::uint64_t iters = opts.fault_iters;
            spec.make_prog = [make, iters] { return make(iters); };
            // Independent per-job fault/core streams: scheduling can
            // never correlate two jobs' injections.
            spec.derive_seeds = true;
            c.addJob(std::move(spec));
        }
    }
    return c;
}

Campaign
makeMicroCampaign(const SweepOptions &opts)
{
    Campaign c("micro");

    static constexpr const char *kConfigs[] = {"lsq48x32", "enf",
                                               "notenf"};

    for (const MicroTest &test : loadMicroCorpus(opts.corpus_dir)) {
        if (!opts.bench_filter.empty() && opts.bench_filter != test.name)
            continue;
        for (const char *name : kConfigs) {
            CoreConfig cfg = presetByName(name);
            cfg.validate = true;    // every micro run is golden-checked
            // Directed tests want the adversarial machine: no stochastic
            // frontend fix-ups, so every mispredicted branch really runs
            // its wrong path (and the run is RNG-independent).
            cfg.oracle_fix_prob = 0.0;
            applyOverrides(cfg, opts.overrides);
            JobSpec spec;
            spec.config_name = name;
            spec.workload = test.name;
            spec.cfg = cfg;
            const Program prog = test.unit.prog;
            spec.make_prog = [prog] { return prog; };
            c.addJob(std::move(spec));
        }
    }
    if (c.jobCount() == 0)
        fatal("micro sweep: no tests matched in '" + opts.corpus_dir +
              "'");
    return c;
}

Campaign
makeScreenCampaign(const SweepOptions &opts)
{
    Campaign c("screen");
    const Campaign fig5 = makeFig5Campaign(opts);
    for (JobSpec spec : fig5.jobs()) {
        spec.backend = BackendKind::FuncBatch;
        c.addJob(std::move(spec));
    }
    return c;
}

std::vector<std::size_t>
selectForExactRerun(const std::vector<JobResult> &screened,
                    const SweepOptions &opts)
{
    auto statOf = [&](const JobResult &jr) -> double {
        if (opts.screen_stat == "stall_frac")
            return screeningStallFrac(jr.result);
        const auto v = lookupStat(jr.result, opts.screen_stat);
        if (!v) {
            std::string valid = "stall_frac";
            for (const std::string &s : statNames())
                valid += ", " + s;
            fatal("screen: unknown selection stat '" + opts.screen_stat +
                  "' (valid: " + valid + ")");
        }
        return double(*v);
    };

    std::vector<std::size_t> sel;
    if (opts.screen_top) {
        // Top-K rule: K highest stats among jobs with a usable
        // estimate; ties break toward the lower job index (the sort is
        // total, so the selection is independent of input order).
        std::vector<std::pair<double, std::size_t>> ranked;
        for (const JobResult &jr : screened)
            if (jr.ok())
                ranked.emplace_back(statOf(jr), jr.index);
        std::sort(ranked.begin(), ranked.end(),
                  [](const auto &a, const auto &b) {
                      if (a.first != b.first)
                          return a.first > b.first;
                      return a.second < b.second;
                  });
        const std::size_t k =
            std::min<std::size_t>(opts.screen_top, ranked.size());
        for (std::size_t i = 0; i < k; ++i)
            sel.push_back(ranked[i].second);
    } else {
        for (const JobResult &jr : screened)
            if (jr.ok() && statOf(jr) > opts.screen_threshold)
                sel.push_back(jr.index);
    }
    // A quarantined screening job produced no usable estimate: the only
    // honest number for that point is an exact re-run.
    for (const JobResult &jr : screened)
        if (!jr.ok())
            sel.push_back(jr.index);

    std::sort(sel.begin(), sel.end());
    sel.erase(std::unique(sel.begin(), sel.end()), sel.end());
    return sel;
}

Campaign
makeScreenExactCampaign(const SweepOptions &opts,
                        const std::vector<std::size_t> &selected)
{
    Campaign c("screen_exact");
    const Campaign fig5 = makeFig5Campaign(opts);
    const std::vector<JobSpec> &points = fig5.jobs();
    for (std::size_t idx : selected) {
        if (idx >= points.size())
            fatal("screen: selected job index " + std::to_string(idx) +
                  " out of range (" + std::to_string(points.size()) +
                  " screened points)");
        JobSpec spec = points[idx];
        spec.backend = BackendKind::Timing;
        c.addJob(std::move(spec));
    }
    return c;
}

const std::vector<std::string> &
sweepNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const SweepDef &def : kSweeps)
            n.push_back(def.name);
        return n;
    }();
    return names;
}

Campaign
makeSweep(const std::string &name, const SweepOptions &opts)
{
    return sweepDef(name).make(opts);
}

SweepReport
renderSweep(const std::string &name, const SweepOptions &opts,
            const std::vector<JobResult> &results)
{
    const SweepDef &def = sweepDef(name);
    return def.render ? def.render(results, opts) : SweepReport{};
}

} // namespace slf::campaign
