/**
 * @file
 * Tests for the observability layer: typed stat tables, the trace-event
 * ring buffer, Chrome-trace export (pinned against a golden file),
 * per-cycle occupancy sampling with order-independent shard merging,
 * the schema-v1 byte-identity guarantee of the campaign JSON, a
 * byte-exact result table of the aggressive core, and the host-time
 * profiler.
 *
 * Golden files live in tests/golden/ and regenerate with
 *   SLFWD_REGEN_GOLDEN=1 ./test_obs
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/result_sink.hh"
#include "cpu/config_preset.hh"
#include "driver/runner.hh"
#include "obs/chrome_trace.hh"
#include "obs/occupancy.hh"
#include "obs/profile.hh"
#include "obs/stat_table.hh"
#include "obs/trace_sink.hh"
#include "sim/stats.hh"
#include "workloads/workloads.hh"

using namespace slf;
using namespace slf::campaign;

namespace
{

std::string
goldenPath(const char *file)
{
    return std::string(SLF_TEST_GOLDEN_DIR) + "/" + file;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::stringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

/**
 * Compare @p actual against the golden file, or rewrite the golden when
 * SLFWD_REGEN_GOLDEN is set in the environment.
 */
void
checkGolden(const char *file, const std::string &actual)
{
    const std::string path = goldenPath(file);
    if (std::getenv("SLFWD_REGEN_GOLDEN") != nullptr) {
        std::ofstream out(path, std::ios::binary);
        ASSERT_TRUE(out.good()) << "cannot write golden " << path;
        out << actual;
        return;
    }
    std::ifstream probe(path, std::ios::binary);
    ASSERT_TRUE(probe.good())
        << "golden file " << path
        << " missing; regenerate with SLFWD_REGEN_GOLDEN=1";
    EXPECT_EQ(actual, readFile(path))
        << "golden mismatch for " << file
        << "; if the change is intentional regenerate with "
           "SLFWD_REGEN_GOLDEN=1";
}

/** Structural JSON sanity: balanced {} and [] outside string literals. */
bool
jsonBalanced(const std::string &s)
{
    int braces = 0, brackets = 0;
    bool in_str = false, esc = false;
    for (char c : s) {
        if (esc) {
            esc = false;
            continue;
        }
        if (in_str) {
            if (c == '\\')
                esc = true;
            else if (c == '"')
                in_str = false;
            continue;
        }
        switch (c) {
          case '"':
            in_str = true;
            break;
          case '{':
            ++braces;
            break;
          case '}':
            --braces;
            break;
          case '[':
            ++brackets;
            break;
          case ']':
            --brackets;
            break;
          default:
            break;
        }
        if (braces < 0 || brackets < 0)
            return false;
    }
    return braces == 0 && brackets == 0 && !in_str;
}

} // namespace

// ---------------------------------------------------------------------
// StatTable
// ---------------------------------------------------------------------

TEST(StatTable, SharesCountersWithTheUnderlyingGroup)
{
    StatGroup g("t");
    obs::StatTable<obs::MdtStat> table(g);
    ++table[obs::MdtStat::Accesses];
    table[obs::MdtStat::Accesses] += 2;
    EXPECT_EQ(table.value(obs::MdtStat::Accesses), 3u);
    // The typed handle and the legacy string lookup see the same counter.
    EXPECT_EQ(g.counterValue(obs::statName(obs::MdtStat::Accesses)), 3u);
    EXPECT_EQ(table.value(obs::MdtStat::SetConflicts), 0u);
}

TEST(StatTable, RegistersEveryEnumNameUpFront)
{
    StatGroup g("t");
    obs::StatTable<obs::CoreStat> table(g);
    for (std::size_t i = 0; i < obs::StatTable<obs::CoreStat>::kCount; ++i) {
        const auto s = static_cast<obs::CoreStat>(i);
        // counter() get-or-creates; re-looking one up must find the
        // already-registered instance, not mint a second one.
        EXPECT_EQ(&g.counter(obs::statName(s)), &table[s]);
    }
}

// ---------------------------------------------------------------------
// TraceSink
// ---------------------------------------------------------------------

TEST(TraceSink, RecordsOldestFirstAndCountsDrops)
{
    obs::TraceSink sink(4);
    for (std::uint64_t i = 0; i < 6; ++i) {
        sink.beginCycle(i * 10);
        sink.record(obs::EventKind::Issue, obs::Track::Issue, i, i * 4,
                    0x100 + i, i, 0);
    }
    EXPECT_EQ(sink.capacity(), 4u);
    EXPECT_EQ(sink.size(), 4u);
    EXPECT_EQ(sink.recorded(), 6u);
    EXPECT_EQ(sink.dropped(), 2u);

    const std::vector<obs::TraceEvent> evs = sink.events();
    ASSERT_EQ(evs.size(), 4u);
    EXPECT_EQ(evs.front().seq, 2u);   // 0 and 1 were overwritten
    EXPECT_EQ(evs.back().seq, 5u);
    EXPECT_EQ(evs.back().cycle, 50u);
    EXPECT_EQ(evs.back().addr, 0x105u);
    for (std::size_t i = 1; i < evs.size(); ++i)
        EXPECT_LT(evs[i - 1].seq, evs[i].seq);

    sink.clear();
    EXPECT_EQ(sink.size(), 0u);
    EXPECT_EQ(sink.recorded(), 0u);
}

#ifndef SLFWD_OBS_EVENTS_OFF
TEST(TraceSink, EmitMacroIsSafeWithNullSink)
{
    // Null sink + no debug flags: the fast path must simply return.
    SLF_OBS_EMIT(static_cast<obs::TraceSink *>(nullptr),
                 obs::EventKind::Flush, obs::Track::Recovery, 1, 2, 3, 4,
                 obs::FlushDetail::Branch);

    obs::TraceSink sink;
    sink.beginCycle(7);
    SLF_OBS_EMIT(&sink, obs::EventKind::Replay, obs::Track::Issue, 9, 40,
                 0x20, 1, obs::ReplayDetail::SfcCorrupt);
    ASSERT_EQ(sink.size(), 1u);
    const obs::TraceEvent ev = sink.events().front();
    EXPECT_EQ(ev.cycle, 7u);
    EXPECT_EQ(ev.kind, obs::EventKind::Replay);
    EXPECT_EQ(ev.detail,
              static_cast<std::uint8_t>(obs::ReplayDetail::SfcCorrupt));
}
#endif

TEST(TraceSink, TextShimNamesAndFormatting)
{
    // MDT violations keep riding the legacy "MDTViol" debug flag.
    EXPECT_STREQ(
        obs::eventFlagName(
            obs::EventKind::MdtCheck,
            static_cast<std::uint8_t>(obs::MdtCheckDetail::ViolTrue)),
        "MDTViol");

    obs::TraceEvent ev;
    ev.cycle = 12;
    ev.kind = obs::EventKind::SfcProbe;
    ev.track = obs::Track::Sfc;
    ev.detail = static_cast<std::uint8_t>(obs::SfcProbeDetail::Corrupt);
    const std::string line = obs::formatEventText(ev);
    EXPECT_NE(line.find("sfc_probe"), std::string::npos);
    EXPECT_NE(line.find("corrupt"), std::string::npos);
}

// ---------------------------------------------------------------------
// Chrome-trace export
// ---------------------------------------------------------------------

namespace
{

/** Capture one tiny deterministic MDT/SFC run end to end. */
std::string
captureChromeTrace()
{
    CoreConfig cfg = CoreConfig::baseline();
    obs::TraceSink sink;
    cfg.obs.trace = &sink;
    const Program prog = workloads::microCorruptionExample(40);
    runWorkload(cfg, prog);
    return obs::toChromeTraceJson(sink, "golden");
}

} // namespace

#ifndef SLFWD_OBS_EVENTS_OFF
TEST(ChromeTrace, ExportIsStructurallyValidAndCoversStructures)
{
    const std::string json = captureChromeTrace();
    EXPECT_TRUE(jsonBalanced(json));
    EXPECT_EQ(json.front(), '{');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    // The acceptance bar: SFC, MDT and store-FIFO activity all visible.
    EXPECT_NE(json.find("\"sfc_probe\""), std::string::npos);
    EXPECT_NE(json.find("\"mdt_check\""), std::string::npos);
    EXPECT_NE(json.find("\"fifo_commit\""), std::string::npos);
    // Lane metadata for the viewer.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(json.find("\"store_fifo\""), std::string::npos);
}

TEST(ChromeTrace, DeterministicAndMatchesGolden)
{
    const std::string a = captureChromeTrace();
    const std::string b = captureChromeTrace();
    EXPECT_EQ(a, b) << "trace capture must be run-to-run deterministic";
    checkGolden("chrome_trace_micro.json", a);
}
#endif

// ---------------------------------------------------------------------
// Occupancy sampling and merging
// ---------------------------------------------------------------------

TEST(Occupancy, DisabledByDefaultAndAbsentFromResults)
{
    CoreConfig cfg = CoreConfig::baseline();
    const Program prog = workloads::microForwardChain(300);
    const SimResult r = runWorkload(cfg, prog);
    EXPECT_FALSE(r.occ.enabled());
    EXPECT_EQ(r.occ.dist(obs::OccStat::Rob).count(), 0u);
}

TEST(Occupancy, SampledEveryCycleWithinStructuralBounds)
{
    CoreConfig cfg = CoreConfig::baseline();
    cfg.obs.sample_occupancy = true;
    const Program prog = workloads::microForwardChain(500);
    const SimResult r = runWorkload(cfg, prog);

    ASSERT_TRUE(r.occ.enabled());
    const Distribution &rob = r.occ.dist(obs::OccStat::Rob);
    EXPECT_EQ(rob.count(), r.cycles);
    EXPECT_LE(rob.max(), cfg.rob_entries);
    EXPECT_GT(rob.sum(), 0u);

    EXPECT_EQ(r.occ.dist(obs::OccStat::Sched).count(), r.cycles);
    EXPECT_LE(r.occ.dist(obs::OccStat::Sched).max(), cfg.sched_entries);

    // MDT/SFC subsystem: its structures must be in the census too.
    EXPECT_EQ(r.occ.dist(obs::OccStat::StoreFifo).count(), r.cycles);
    EXPECT_EQ(r.occ.dist(obs::OccStat::MdtValid).count(), r.cycles);
    // ...and the LSQ queues must not be (wrong subsystem).
    EXPECT_EQ(r.occ.dist(obs::OccStat::LoadQ).count(), 0u);

    // Port usage: retire is bounded by the machine width.
    const Distribution &ret = r.occ.dist(obs::OccStat::RetiredPerCycle);
    EXPECT_EQ(ret.count(), r.cycles);
    EXPECT_LE(ret.max(), cfg.width);
    EXPECT_EQ(ret.sum(), r.insts);
}

TEST(Occupancy, LsqSubsystemReportsItsOwnStructures)
{
    CoreConfig cfg = CoreConfig::baseline();
    cfg.subsys = MemSubsystem::LsqBaseline;
    cfg.obs.sample_occupancy = true;
    const Program prog = workloads::microStreaming(300);
    const SimResult r = runWorkload(cfg, prog);

    ASSERT_TRUE(r.occ.enabled());
    EXPECT_EQ(r.occ.dist(obs::OccStat::LoadQ).count(), r.cycles);
    EXPECT_LE(r.occ.dist(obs::OccStat::LoadQ).max(), cfg.lsq.lq_entries);
    EXPECT_EQ(r.occ.dist(obs::OccStat::StoreQ).count(), r.cycles);
    EXPECT_EQ(r.occ.dist(obs::OccStat::StoreFifo).count(), 0u);
}

namespace
{

/** Deterministic pseudo-random occupancy set (tiny LCG, fixed seed). */
obs::OccupancySet
syntheticOccSet(std::uint64_t seed, unsigned samples)
{
    obs::OccupancySet set;
    set.setEnabled(true);
    std::uint64_t x = seed * 2654435761u + 1;
    for (unsigned i = 0; i < samples; ++i) {
        for (std::size_t s = 0; s < obs::kOccStatCount; ++s) {
            x = x * 6364136223846793005ull + 1442695040888963407ull;
            set.sample(static_cast<obs::OccStat>(s), (x >> 33) % 257);
        }
    }
    return set;
}

bool
occSetsEqual(const obs::OccupancySet &a, const obs::OccupancySet &b)
{
    if (a.enabled() != b.enabled())
        return false;
    for (std::size_t s = 0; s < obs::kOccStatCount; ++s) {
        const Distribution &da = a.dist(static_cast<obs::OccStat>(s));
        const Distribution &db = b.dist(static_cast<obs::OccStat>(s));
        if (da.count() != db.count() || da.sum() != db.sum() ||
            da.min() != db.min() || da.max() != db.max())
            return false;
    }
    return true;
}

} // namespace

TEST(Occupancy, MergeIsOrderIndependent)
{
    // Property: folding K shards in any order yields the same set.
    std::vector<unsigned> order{0, 1, 2, 3};
    obs::OccupancySet reference;
    for (unsigned i : order)
        reference.mergeFrom(syntheticOccSet(i + 1, 50 + 13 * i));

    int perms = 0;
    do {
        obs::OccupancySet merged;
        for (unsigned i : order)
            merged.mergeFrom(syntheticOccSet(i + 1, 50 + 13 * i));
        EXPECT_TRUE(occSetsEqual(merged, reference))
            << "merge order changed the aggregate";
        ++perms;
    } while (std::next_permutation(order.begin(), order.end()));
    EXPECT_EQ(perms, 24);
}

TEST(Occupancy, MergingDisabledSetIsANoOp)
{
    obs::OccupancySet a = syntheticOccSet(7, 20);
    const std::uint64_t count_before =
        a.dist(obs::OccStat::Rob).count();
    obs::OccupancySet empty;   // disabled, no samples
    a.mergeFrom(empty);
    EXPECT_TRUE(a.enabled());
    EXPECT_EQ(a.dist(obs::OccStat::Rob).count(), count_before);

    // ...and merging into a disabled set adopts the samples + flag.
    obs::OccupancySet b;
    b.mergeFrom(a);
    EXPECT_TRUE(b.enabled());
    EXPECT_TRUE(occSetsEqual(a, b));
}

TEST(Occupancy, SurvivesSimResultShardMergeInAnyOrder)
{
    SimResult shard_a, shard_b, shard_c;
    shard_a.occ = syntheticOccSet(1, 40);
    shard_b.occ = syntheticOccSet(2, 60);
    shard_c.occ.setEnabled(false);   // unsampled job in the same config

    SimResult ab_c;
    ab_c.mergeFrom(shard_a);
    ab_c.mergeFrom(shard_b);
    ab_c.mergeFrom(shard_c);

    SimResult c_b_a;
    c_b_a.mergeFrom(shard_c);
    c_b_a.mergeFrom(shard_b);
    c_b_a.mergeFrom(shard_a);

    EXPECT_TRUE(occSetsEqual(ab_c.occ, c_b_a.occ));
    EXPECT_TRUE(ab_c.occ.enabled());
}

// ---------------------------------------------------------------------
// Campaign JSON: schema v1 byte-identity and the v2 obs section
// ---------------------------------------------------------------------

namespace
{

std::vector<JobResult>
syntheticResults(bool with_occ)
{
    std::vector<JobResult> results(2);

    JobResult &a = results[0];
    a.index = 0;
    a.config_name = "cfgA";
    a.workload = "w0";
    a.attempts = 1;
    a.result.workload = "w0";
    a.result.cycles = 1000;
    a.result.insts = 2500;
    a.result.ipc = 2.5;
    a.result.loads_retired = 400;
    a.result.stores_retired = 300;
    a.result.sfc_forwards = 25;
    a.result.viol_true = 3;

    JobResult &b = results[1];
    b.index = 1;
    b.config_name = "cfgA";
    b.workload = "w1";
    b.attempts = 1;
    b.result.workload = "w1";
    b.result.cycles = 500;
    b.result.insts = 750;
    b.result.ipc = 1.5;
    b.result.loads_retired = 100;
    b.result.stores_retired = 80;

    if (with_occ) {
        a.result.occ = syntheticOccSet(3, 16);
        b.result.occ = syntheticOccSet(4, 16);
    }
    return results;
}

} // namespace

TEST(ResultSinkObs, TracingOffRendersSchemaV1WithNoObsSection)
{
    const std::string json =
        ResultSink::toJson("unit", 1, syntheticResults(false));
    EXPECT_TRUE(jsonBalanced(json));
    EXPECT_NE(json.find("\"schema_version\": 1"), std::string::npos);
    EXPECT_EQ(json.find("\"obs\""), std::string::npos);
    // Regression pin: the unsampled rendering must stay byte-identical
    // to the pre-observability schema-v1 layout.
    checkGolden("campaign_schema_v1.json", json);
}

TEST(ResultSinkObs, SampledRunsRenderSchemaV2WithOccupancy)
{
    const std::string json =
        ResultSink::toJson("unit", 1, syntheticResults(true));
    EXPECT_TRUE(jsonBalanced(json));
    EXPECT_NE(json.find("\"schema_version\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"obs\": {\"occupancy\": {"), std::string::npos);
    EXPECT_NE(json.find("\"rob\": {\"count\": "), std::string::npos);
    // Aggregates carry the merged distributions too.
    EXPECT_NE(json.find("\"aggregates\""), std::string::npos);
}

TEST(ResultSinkObs, EndToEndOccupancyReachesCampaignJson)
{
    // A real one-job campaign with sampling on: the runner copies the
    // core's distributions into SimResult and the sink renders them.
    Campaign c("obs-e2e");
    JobSpec spec;
    spec.config_name = "base";
    spec.workload = "fwd";
    spec.cfg = CoreConfig::baseline();
    spec.cfg.obs.sample_occupancy = true;
    spec.make_prog = [] { return workloads::microForwardChain(200); };
    c.addJob(std::move(spec));

    CampaignOptions opts;
    opts.progress = false;
    const std::vector<JobResult> results = c.run(opts);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].ok());
    ASSERT_TRUE(results[0].result.occ.enabled());

    const std::string json = ResultSink::toJson("obs-e2e", 1, results);
    // A real core run classifies every cycle, so the file carries the
    // v3 attribution sections on top of the occupancy ones.
    EXPECT_NE(json.find("\"schema_version\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"obs\": {\"occupancy\": {"), std::string::npos);
    EXPECT_NE(json.find("\"issued_per_cycle\""), std::string::npos);
    EXPECT_NE(json.find("\"cpi_stack\": {\"total\": "), std::string::npos);
    EXPECT_NE(json.find("\"blame\": {"), std::string::npos);
}

TEST(ResultSinkObs, AggressiveCoreAnalogTableMatchesGolden)
{
    // Byte-exact pin of the 8-wide, 1024-entry core: every analog under
    // the aggressive MDT/SFC and 120x80-LSQ presets, 20k retired
    // instructions each. A change to issue order, timing or any stat on
    // the big window shows up as a diff here.
    Campaign c("agg_20k");
    for (const WorkloadInfo &info : spec2000Analogs()) {
        for (const char *preset : {"agg_enf", "agg_lsq120x80"}) {
            JobSpec spec;
            spec.config_name = preset;
            spec.workload = info.name;
            spec.cfg = presetByName(preset);
            spec.cfg.max_insts = 20000;
            const WorkloadFactory make = info.make;
            spec.make_prog = [make] { return make(WorkloadParams{}); };
            c.addJob(std::move(spec));
        }
    }

    CampaignOptions opts;
    opts.jobs = 2;
    opts.progress = false;
    const std::vector<JobResult> results = c.run(opts);
    ASSERT_EQ(results.size(), 2 * spec2000Analogs().size());
    for (const JobResult &r : results)
        ASSERT_TRUE(r.ok()) << r.config_name << "/" << r.workload << ": "
                            << r.error;
    checkGolden("agg_20k.json",
                ResultSink::toJson(c.name(), opts.root_seed, results));
}

// ---------------------------------------------------------------------
// Host profiler
// ---------------------------------------------------------------------

TEST(HostProfiler, ScopedTimerAccumulatesAndNullIsSafe)
{
    obs::HostProfiler prof;
    {
        obs::ScopedTimer t(&prof, obs::ProfSection::Fetch);
    }
    {
        obs::ScopedTimer t(&prof, obs::ProfSection::Fetch);
    }
    EXPECT_EQ(prof.section(obs::ProfSection::Fetch).calls, 2u);
    EXPECT_EQ(prof.section(obs::ProfSection::Retire).calls, 0u);

    {
        obs::ScopedTimer t(nullptr, obs::ProfSection::Retire);   // no-op
    }

    const std::string json = prof.toJson();
    EXPECT_TRUE(jsonBalanced(json));
    EXPECT_NE(json.find("\"fetch\""), std::string::npos);

    obs::HostProfiler other;
    other.add(obs::ProfSection::Fetch, 50);
    prof.mergeFrom(other);
    EXPECT_EQ(prof.section(obs::ProfSection::Fetch).calls, 3u);
}

TEST(HostProfiler, AttachedProfilerSeesEveryPipelineStage)
{
    CoreConfig cfg = CoreConfig::baseline();
    obs::HostProfiler prof;
    cfg.obs.profiler = &prof;
    const Program prog = workloads::microAluLoop(500);
    const SimResult r = runWorkload(cfg, prog);
    ASSERT_GT(r.cycles, 0u);

    for (std::size_t i = 0; i < obs::kProfSectionCount; ++i) {
        const auto s = static_cast<obs::ProfSection>(i);
        if (s == obs::ProfSection::MemProbe)
            continue;   // pure-ALU loop issues no memory ops
        EXPECT_GT(prof.section(s).calls, 0u)
            << "section " << obs::profSectionName(s) << " never timed";
    }
}

TEST(HostProfiler, SectionsAreExclusiveAndSumToTheFrameTotal)
{
    // The memory probe runs inside the issue stage. It must be timed
    // on the sampled frames only, and its time taken out of the
    // enclosing section, so the sections add up to the frames.
    CoreConfig cfg = CoreConfig::baseline();
    obs::HostProfiler prof;
    cfg.obs.profiler = &prof;
    const SimResult r = runWorkload(cfg, workloads::microForwardChain(2000));
    ASSERT_GT(r.cycles, 0u);

    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < obs::kProfSectionCount; ++i)
        sum += prof.section(static_cast<obs::ProfSection>(i)).ns;
    EXPECT_GT(prof.frameNs(), 0u);
    EXPECT_EQ(sum, prof.frameNs());

    // One retire mark per sampled frame, and 1-in-kFrameStride frames
    // sampled.
    EXPECT_EQ(prof.section(obs::ProfSection::Retire).calls, prof.frames());
    EXPECT_EQ(prof.frames(),
              (r.cycles + obs::HostProfiler::kFrameStride - 1) /
                  obs::HostProfiler::kFrameStride);
    const std::uint64_t probes =
        prof.section(obs::ProfSection::MemProbe).calls;
    EXPECT_GT(probes, 0u);
    EXPECT_LT(probes * 4, r.loads_retired + r.stores_retired);
}
