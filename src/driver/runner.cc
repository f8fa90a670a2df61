#include "runner.hh"

#include <algorithm>

#include "backend.hh"
#include "campaign/campaign.hh"
#include "cpu/ooo_core.hh"
#include "func_batch.hh"
#include "sim/logging.hh"

namespace slf
{

SimResult
runWorkload(const CoreConfig &cfg, const Program &prog)
{
    OooCore core(cfg, prog);
    core.run();

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

    return r;
}

const std::vector<std::string> &
knownOverrideKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> k = {
            "check.abort",
            "deadline_ms",
            "fault.fifo_payload",
            "fault.mdt_evict",
            "fault.seed",
            "fault.sfc_data",
            "fault.sfc_mask",
            "fus",
            "lsq.lq",
            "lsq.sq",
            "max_cycles",
            "max_insts",
            "mdt.assoc",
            "mdt.granularity",
            "mdt.sets",
            "mdt.tagged",
            "memdep.mode",
            "obs.occupancy",
            "optimized_true_recovery",
            "oracle_fix_prob",
            "output_dep_marks_corrupt",
            "partial_match_merges",
            "rob",
            "sched",
            "seed",
            "sfc.assoc",
            "sfc.flush_endpoints",
            "sfc.max_flush_ranges",
            "sfc.sets",
            "stall_bits",
            "subsys",
            "validate",
            "value_replay_filtered",
            "watchdog.max_cycles",
            "watchdog.retire_cycles",
            "width",
        };
        std::sort(k.begin(), k.end());
        return k;
    }();
    return keys;
}

Config
stripKeys(const Config &ov, const std::vector<std::string> &harness_keys)
{
    Config out;
    for (const std::string &key : ov.keys()) {
        if (std::find(harness_keys.begin(), harness_keys.end(), key) ==
            harness_keys.end())
            out.set(key, ov.getString(key));
    }
    return out;
}

void
applyOverrides(CoreConfig &cfg, const Config &ov)
{
    // Reject unknown keys before touching the config: a typo must not
    // silently run the defaults.
    const std::vector<std::string> &known = knownOverrideKeys();
    for (const std::string &key : ov.keys()) {
        if (!std::binary_search(known.begin(), known.end(), key)) {
            std::string valid;
            for (const std::string &k : known)
                valid += (valid.empty() ? "" : ", ") + k;
            fatal("unknown core-config override '" + key +
                  "' (valid keys: " + valid + ")");
        }
    }

    cfg.width = static_cast<unsigned>(ov.getUInt("width", cfg.width));
    cfg.rob_entries =
        static_cast<unsigned>(ov.getUInt("rob", cfg.rob_entries));
    cfg.sched_entries =
        static_cast<unsigned>(ov.getUInt("sched", cfg.sched_entries));
    cfg.num_fus = static_cast<unsigned>(ov.getUInt("fus", cfg.num_fus));

    if (ov.has("subsys")) {
        const std::string s = ov.getString("subsys");
        if (s == "lsq")
            cfg.subsys = MemSubsystem::LsqBaseline;
        else if (s == "mdtsfc")
            cfg.subsys = MemSubsystem::MdtSfc;
        else if (s == "vbr")
            cfg.subsys = MemSubsystem::ValueReplay;
        else
            fatal("unknown subsys '" + s + "' (lsq|mdtsfc|vbr)");
    }

    cfg.sfc.sets = ov.getUInt("sfc.sets", cfg.sfc.sets);
    cfg.sfc.assoc =
        static_cast<unsigned>(ov.getUInt("sfc.assoc", cfg.sfc.assoc));
    cfg.sfc.use_flush_endpoints =
        ov.getBool("sfc.flush_endpoints", cfg.sfc.use_flush_endpoints);
    cfg.sfc.max_flush_ranges = static_cast<unsigned>(
        ov.getUInt("sfc.max_flush_ranges", cfg.sfc.max_flush_ranges));
    cfg.mdt.sets = ov.getUInt("mdt.sets", cfg.mdt.sets);
    cfg.mdt.assoc =
        static_cast<unsigned>(ov.getUInt("mdt.assoc", cfg.mdt.assoc));
    cfg.mdt.granularity = static_cast<unsigned>(
        ov.getUInt("mdt.granularity", cfg.mdt.granularity));
    cfg.mdt.tagged = ov.getBool("mdt.tagged", cfg.mdt.tagged);
    cfg.mdt.optimized_true_recovery = ov.getBool(
        "optimized_true_recovery", cfg.mdt.optimized_true_recovery);

    cfg.lsq.lq_entries = ov.getUInt("lsq.lq", cfg.lsq.lq_entries);
    cfg.lsq.sq_entries = ov.getUInt("lsq.sq", cfg.lsq.sq_entries);

    if (ov.has("memdep.mode")) {
        const std::string m = ov.getString("memdep.mode");
        if (m == "lsq")
            cfg.memdep.mode = MemDepMode::LsqStoreSet;
        else if (m == "true")
            cfg.memdep.mode = MemDepMode::EnforceTrueOnly;
        else if (m == "all")
            cfg.memdep.mode = MemDepMode::EnforceAll;
        else if (m == "total")
            cfg.memdep.mode = MemDepMode::EnforceAllTotalOrder;
        else
            fatal("unknown memdep.mode '" + m + "' (lsq|true|all|total)");
    }

    cfg.max_insts = ov.getUInt("max_insts", cfg.max_insts);
    cfg.max_cycles = ov.getUInt("max_cycles", cfg.max_cycles);
    cfg.rng_seed = ov.getUInt("seed", cfg.rng_seed);
    cfg.validate = ov.getBool("validate", cfg.validate);
    cfg.oracle_fix_prob =
        ov.getDouble("oracle_fix_prob", cfg.oracle_fix_prob);
    cfg.stall_bits = ov.getBool("stall_bits", cfg.stall_bits);
    cfg.partial_match_merges =
        ov.getBool("partial_match_merges", cfg.partial_match_merges);
    cfg.output_dep_marks_corrupt = ov.getBool(
        "output_dep_marks_corrupt", cfg.output_dep_marks_corrupt);
    cfg.value_replay_filtered =
        ov.getBool("value_replay_filtered", cfg.value_replay_filtered);

    cfg.check_abort = ov.getBool("check.abort", cfg.check_abort);
    cfg.watchdog_retire_cycles =
        ov.getUInt("watchdog.retire_cycles", cfg.watchdog_retire_cycles);
    cfg.watchdog_max_cycles =
        ov.getUInt("watchdog.max_cycles", cfg.watchdog_max_cycles);
    cfg.deadline_ms = ov.getUInt("deadline_ms", cfg.deadline_ms);

    cfg.fault.sfc_mask_rate =
        ov.getDouble("fault.sfc_mask", cfg.fault.sfc_mask_rate);
    cfg.fault.sfc_data_rate =
        ov.getDouble("fault.sfc_data", cfg.fault.sfc_data_rate);
    cfg.fault.mdt_evict_rate =
        ov.getDouble("fault.mdt_evict", cfg.fault.mdt_evict_rate);
    cfg.fault.fifo_payload_rate =
        ov.getDouble("fault.fifo_payload", cfg.fault.fifo_payload_rate);
    cfg.fault.seed = ov.getUInt("fault.seed", cfg.fault.seed);

    cfg.obs.sample_occupancy =
        ov.getBool("obs.occupancy", cfg.obs.sample_occupancy);
}

} // namespace slf

// ---------------------------------------------------------------------
// Backend registry: every engine a JobSpec can name is registered here
// (and only here); campaign.cc dispatches through backendFor().
// ---------------------------------------------------------------------

namespace slf::campaign
{

const char *
backendKindName(BackendKind k)
{
    switch (k) {
      case BackendKind::Timing:
        return "timing";
      case BackendKind::FuncBatch:
        return "func_batch";
      case BackendKind::Synthetic:
        return "synthetic";
    }
    return "timing";
}

std::optional<BackendKind>
backendKindFromName(std::string_view name)
{
    if (name == "timing")
        return BackendKind::Timing;
    if (name == "func_batch")
        return BackendKind::FuncBatch;
    if (name == "synthetic")
        return BackendKind::Synthetic;
    return std::nullopt;
}

const char *
fidelityName(Fidelity f)
{
    return f == Fidelity::Screening ? "screening" : "exact";
}

namespace
{

Program
buildProgram(const JobSpec &spec)
{
    if (!spec.make_prog)
        fatal("campaign job '" + spec.config_name + "/" +
              spec.workload + "' has no program factory");
    return spec.make_prog();
}

class TimingBackend final : public Backend
{
  public:
    const char *name() const override { return "timing"; }
    Fidelity fidelity() const override { return Fidelity::Exact; }

    SimResult
    run(const JobSpec &spec, const CoreConfig &cfg,
        unsigned) const override
    {
        return runWorkload(cfg, buildProgram(spec));
    }
};

class FuncBatchBackend final : public Backend
{
  public:
    const char *name() const override { return "func_batch"; }
    Fidelity fidelity() const override { return Fidelity::Screening; }

    SimResult
    run(const JobSpec &spec, const CoreConfig &cfg,
        unsigned) const override
    {
        return runFuncBatch(cfg, buildProgram(spec));
    }
};

class SyntheticBackend final : public Backend
{
  public:
    const char *name() const override { return "synthetic"; }
    Fidelity fidelity() const override { return Fidelity::Exact; }

    SimResult
    run(const JobSpec &spec, const CoreConfig &cfg,
        unsigned attempt) const override
    {
        if (!fn)
            fatal("job '" + spec.config_name + "/" + spec.workload +
                  "' selects the synthetic backend but no "
                  "ScopedSyntheticBackend is installed");
        return fn(spec, cfg, attempt);
    }

    ScopedSyntheticBackend::Fn fn;
};

SyntheticBackend &
syntheticSlot()
{
    static SyntheticBackend backend;
    return backend;
}

} // namespace

const Backend &
backendFor(BackendKind kind)
{
    static const TimingBackend timing;
    static const FuncBatchBackend func_batch;
    switch (kind) {
      case BackendKind::Timing:
        return timing;
      case BackendKind::FuncBatch:
        return func_batch;
      case BackendKind::Synthetic:
        return syntheticSlot();
    }
    return timing;
}

ScopedSyntheticBackend::ScopedSyntheticBackend(Fn fn)
    : prev_(std::move(syntheticSlot().fn))
{
    syntheticSlot().fn = std::move(fn);
}

ScopedSyntheticBackend::~ScopedSyntheticBackend()
{
    syntheticSlot().fn = std::move(prev_);
}

} // namespace slf::campaign
