/**
 * @file
 * Host-fault injection harness for the crash-safe campaign engine.
 *
 * Proves the PR's central claim: for any interleaving of crashes and
 * resumes, a journaled campaign converges to the byte-identical result
 * JSON of an uninterrupted run. The harness attacks every durability
 * boundary:
 *
 *  - a truncation sweep chops the journal at every line boundary AND
 *    mid-line (torn tail), then resumes;
 *  - JournalHooks make a chosen append torn (half-written, fsync'd) —
 *    the crash-mid-append case — with the journal dead afterwards;
 *  - fork()ed children _exit(137) at exact post-append points (the
 *    crash-between-jobs case, SIGKILL-grade: no destructors run);
 *  - a fork()ed child dies between the durable tmp file and the
 *    rename inside writeFileAtomic (crash-mid-final-write);
 *  - quarantined failures (fatal and timeout) rehydrate from the
 *    journal instead of re-running.
 *
 * Everything runs on synthetic pure-function jobs except the deadline
 * test, which drives a real OooCore into JobTimeout.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "campaign/campaign.hh"
#include "campaign/journal.hh"
#include "campaign/result_sink.hh"
#include "driver/runner.hh"
#include "prog/builder.hh"
#include "sim/logging.hh"

using namespace slf;
using namespace slf::campaign;

namespace
{

std::string
tmpPath(const std::string &leaf)
{
    return ::testing::TempDir() + "slfwd_crash_" + leaf;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

void
spit(const std::string &path, const std::string &content)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << content;
}

/** A synthetic but fully populated result: counters, an exactly-
 *  representable-but-ugly ipc, occupancy distributions, CPI stack and
 *  blame records, so the journal round-trip is exercised end to end. */
SimResult
syntheticResult(std::size_t i)
{
    SimResult r;
    r.workload = "wl" + std::to_string(i);
    r.cls = i % 2 ? WorkloadClass::Fp : WorkloadClass::Int;
    r.cycles = 1000 + i * 37;
    r.insts = 2000 + i * 91;
    r.ipc = double(r.insts) / double(r.cycles);
    r.loads_retired = 100 + i;
    r.stores_retired = 50 + i * 3;
    r.branches_retired = 30 + i * 7;
    r.mispredicts = i;
    r.replays = i * 2;
    r.load_replays_sfc_partial = i % 3;
    r.viol_true = i % 2;
    r.flushes_true = i % 2;
    r.sfc_forwards = 40 + i;
    r.lsq_forwards = 11 * i;
    r.cam_entries_examined = 500 + i;
    r.mdt_accesses = 60 + i;
    r.sfc_accesses = 70 + i;
    r.checker_enabled = true;
    r.checker_clean = true;
    r.check_retirements = r.insts;

    r.occ.setEnabled(true);
    for (std::uint64_t v = 0; v < 5 + i; ++v) {
        r.occ.sample(obs::OccStat::Rob, v * 3 + i);
        r.occ.sample(obs::OccStat::Sched, v + i);
    }

    r.cpi.add(obs::CpiComponent::Base, r.insts);
    r.cpi.add(obs::CpiComponent::MemLatency, 300 + i * 5);
    r.cpi.add(obs::CpiComponent::FlushBranch, 20 + i);

    r.blame.recordFlush(obs::FlushCause::Branch, 10 + i);
    r.blame.addRefetchCycle(obs::FlushCause::Branch);
    r.blame.recordFlush(obs::FlushCause::MemDepTrue, i);
    return r;
}

constexpr std::size_t kJobs = 6;
constexpr std::size_t kFatalJob = 3;  ///< exhausts retries every run

/**
 * The harness campaign: six pure-function jobs across two configs;
 * job 3 always dies on fatal() so failure quarantine and rehydration
 * are part of every golden comparison. Jobs run on the Synthetic
 * backend; install crashRunner() before Campaign::run.
 */
Campaign
makeCrashCampaign()
{
    Campaign c("crash_harness");
    for (std::size_t i = 0; i < kJobs; ++i) {
        JobSpec spec;
        spec.config_name = i % 2 ? "cfg_b" : "cfg_a";
        spec.workload = "wl" + std::to_string(i);
        spec.cfg.width = i % 2 ? 8 : 4;  // differentiates spec digests
        spec.derive_seeds = true;
        spec.backend = BackendKind::Synthetic;
        c.addJob(std::move(spec));
    }
    return c;
}

/**
 * The Synthetic-backend function for the harness campaign: dispatches
 * on the workload label. @p calls (optional) counts invocations, i.e.
 * jobs actually re-run rather than rehydrated.
 */
ScopedSyntheticBackend::Fn
crashRunner(std::shared_ptr<std::atomic<int>> calls = nullptr)
{
    return [calls](const JobSpec &spec, const CoreConfig &, unsigned) {
        if (calls)
            calls->fetch_add(1);
        const std::size_t i = std::stoul(spec.workload.substr(2));
        if (i == kFatalJob)
            fatal("synthetic wedge in job " + std::to_string(i));
        return syntheticResult(i);
    };
}

CampaignOptions
harnessOptions()
{
    CampaignOptions opts;
    opts.jobs = 1;  // deterministic journal record order
    opts.max_retries = 1;
    opts.retry_backoff_ms = 1;
    opts.progress = false;
    return opts;
}

/** The uninterrupted run's JSON: the convergence target everywhere. */
std::string
goldenJson()
{
    const ScopedSyntheticBackend synthetic(crashRunner());
    const Campaign c = makeCrashCampaign();
    const CampaignOptions opts = harnessOptions();
    return ResultSink::toJson(c.name(), opts.root_seed, c.run(opts));
}

std::string
resumeJson(const std::string &journal,
           std::shared_ptr<std::atomic<int>> calls = nullptr)
{
    const ScopedSyntheticBackend synthetic(crashRunner(calls));
    const Campaign c = makeCrashCampaign();
    CampaignOptions opts = harnessOptions();
    opts.journal_path = journal;
    opts.resume = true;
    return ResultSink::toJson(c.name(), opts.root_seed, c.run(opts));
}

} // namespace

// ---------------------------------------------------------------------
// Journal record round-trip
// ---------------------------------------------------------------------

TEST(CrashRecovery, JournalRoundTripsEveryRenderedField)
{
    const std::string path = tmpPath("roundtrip.jsonl");
    const ScopedSyntheticBackend synthetic(crashRunner());
    const Campaign c = makeCrashCampaign();
    const CampaignOptions opts = harnessOptions();
    const std::vector<JobResult> results = c.run(opts);

    {
        JobJournal j(path, c.name(), opts.root_seed, kJobs, false);
        for (const JobResult &jr : results)
            j.append(jr, JobJournal::specDigest(c.jobs()[jr.index],
                                                jr.index,
                                                opts.root_seed));
        EXPECT_EQ(j.appended(), kJobs);
    }

    JobJournal::LoadStats st;
    const auto loaded =
        JobJournal::load(path, c.name(), opts.root_seed, c.jobs(), &st);
    EXPECT_TRUE(st.header_valid);
    EXPECT_EQ(st.records, kJobs);
    EXPECT_EQ(st.dropped, 0u);

    // The strongest equality we have: both render byte-identically.
    std::vector<JobResult> rehydrated;
    for (const auto &slot : loaded) {
        ASSERT_TRUE(slot.has_value());
        EXPECT_TRUE(slot->rehydrated);
        rehydrated.push_back(*slot);
    }
    EXPECT_EQ(ResultSink::toJson(c.name(), opts.root_seed, rehydrated),
              ResultSink::toJson(c.name(), opts.root_seed, results));

    // Spot-check exact field recovery, including the double.
    const SimResult &orig = results[0].result;
    const SimResult &back = loaded[0]->result;
    EXPECT_EQ(back.cycles, orig.cycles);
    EXPECT_EQ(back.ipc, orig.ipc);  // bit-exact via %.17g
    EXPECT_EQ(back.occ.dist(obs::OccStat::Rob).sum(),
              orig.occ.dist(obs::OccStat::Rob).sum());
    EXPECT_EQ(back.cpi.value(obs::CpiComponent::MemLatency),
              orig.cpi.value(obs::CpiComponent::MemLatency));
    EXPECT_EQ(back.blame.record(obs::FlushCause::Branch).flushes,
              orig.blame.record(obs::FlushCause::Branch).flushes);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Pinned journal record: the on-disk line format, byte for byte
// ---------------------------------------------------------------------

namespace
{

/** A record in which every journaled field is non-default, and every
 *  number is distinct, so a field written under the wrong key or read
 *  into the wrong member cannot go unnoticed. The strings carry every
 *  escape class the journal emits. */
JobResult
pinnedJobResult()
{
    JobResult jr;
    jr.index = 7;
    jr.status = JobStatus::Timeout;
    jr.attempts = 3;
    jr.error = "deadline \"exceeded\"\\\n\r\t\x01";
    jr.backend = BackendKind::FuncBatch;
    jr.core_seed = 0x1111222233334444ull;
    jr.fault_seed = 0x5555666677778888ull;
    jr.wall_ms = 4321;

    SimResult &r = jr.result;
    r.workload = "wl \"pin\"\\\t\x1f";
    r.cls = WorkloadClass::Fp;
    r.cycles = 90001;
    r.insts = 170003;
    r.ipc = double(r.insts) / double(r.cycles);

    std::uint64_t next = 1001;
#define SLF_PIN_COUNTER(name) r.name = next++;
    SLF_SIM_COUNTERS(SLF_PIN_COUNTER)
#undef SLF_PIN_COUNTER

    r.checker_enabled = true;
    r.checker_clean = false;
    r.check_retirements = 2001;
    r.check_failures = 2002;
    r.check_store_commit_failures = 2003;

    r.occ.setEnabled(true);
    for (std::size_t i = 0; i < obs::kOccStatCount; ++i)
        r.occ.restoreDist(static_cast<obs::OccStat>(i),
                          Distribution::fromParts(3001 + 10 * i,
                                                  3002 + 10 * i,
                                                  3003 + 10 * i,
                                                  3004 + 10 * i));
    for (std::size_t i = 0; i < obs::kCpiComponentCount; ++i)
        r.cpi.add(static_cast<obs::CpiComponent>(i), 4001 + i);
    for (std::size_t i = 0; i < obs::kFlushCauseCount; ++i)
        r.blame.restoreRecord(static_cast<obs::FlushCause>(i),
                              obs::BlameRecord{5001 + 10 * i,
                                               5002 + 10 * i,
                                               5003 + 10 * i});
    return jr;
}

/** Fixed digest for the golden line (independent of CoreConfig
 *  defaults, which the spec digest hashes). */
constexpr std::uint64_t kPinnedDigest = 0x0123456789abcdefull;

std::string
pinnedGoldenPath()
{
    return std::string(SLF_TEST_GOLDEN_DIR) + "/journal_record.jsonl";
}

} // namespace

TEST(CrashRecovery, JournalRecordMatchesPinnedGoldenAndRoundTrips)
{
    const std::string line =
        JobJournal::recordLine(pinnedJobResult(), kPinnedDigest) + "\n";
    if (std::getenv("SLFWD_REGEN_GOLDEN") != nullptr)
        spit(pinnedGoldenPath(), line);
    const std::string golden = slurp(pinnedGoldenPath());
    ASSERT_FALSE(golden.empty())
        << "golden " << pinnedGoldenPath()
        << " missing; regenerate with SLFWD_REGEN_GOLDEN=1";
    EXPECT_EQ(line, golden);

    // The same record survives append + load: re-rendering what load()
    // rehydrated reproduces the golden line exactly.
    const std::string path = tmpPath("pinned.jsonl");
    std::vector<JobSpec> jobs(8);
    for (JobSpec &s : jobs)
        s.backend = BackendKind::FuncBatch;
    const std::uint64_t seed = 99;
    {
        JobJournal j(path, "pinned", seed, jobs.size(), false);
        j.append(pinnedJobResult(),
                 JobJournal::specDigest(jobs[7], 7, seed));
    }
    JobJournal::LoadStats st;
    const auto loaded = JobJournal::load(path, "pinned", seed, jobs, &st);
    EXPECT_EQ(st.records, 1u);
    ASSERT_TRUE(loaded[7].has_value());
    EXPECT_EQ(JobJournal::recordLine(*loaded[7], kPinnedDigest) + "\n",
              golden);
    std::remove(path.c_str());

    // Every listed counter is rendered into the result JSON too.
    const JobResult jr = pinnedJobResult();
    const std::string json = ResultSink::toJson("pinned", seed, {jr});
#define SLF_EXPECT_RENDERED(name)                                       \
    EXPECT_NE(json.find("\"" #name "\": " +                             \
                        std::to_string(jr.result.name) + ",\n"),        \
              std::string::npos)                                        \
        << #name;
    SLF_SIM_COUNTERS(SLF_EXPECT_RENDERED)
#undef SLF_EXPECT_RENDERED
}

// ---------------------------------------------------------------------
// The reader accepts exactly the writer's grammar
// ---------------------------------------------------------------------

namespace
{

/** CRC-32 (IEEE 802.3), bitwise: an independent re-implementation, so
 *  the tests can seal hand-made lines without the journal's own code. */
std::uint32_t
testCrc32(const std::string &s)
{
    std::uint32_t c = 0xffffffffu;
    for (const unsigned char b : s) {
        c ^= b;
        for (int k = 0; k < 8; ++k)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    return ~c;
}

/** The seal every journal line ends with: `,"crc":"xxxxxxxx"}`. */
constexpr std::size_t kSealBytes = 18;

/** @p body closed with a correct seal, so only the reader can reject
 *  it. */
std::string
reseal(const std::string &body)
{
    char seal[kSealBytes + 1];
    std::snprintf(seal, sizeof(seal), ",\"crc\":\"%08x\"}",
                  testCrc32(body));
    return body + seal;
}

/** A fresh journal holding only the header of campaign "pinned". */
std::string
pinnedHeader(const std::vector<JobSpec> &jobs, std::uint64_t seed)
{
    const std::string path = tmpPath("pinned_header.jsonl");
    {
        const JobJournal j(path, "pinned", seed, jobs.size(), false);
    }
    const std::string header = slurp(path);
    std::remove(path.c_str());
    return header;
}

std::vector<JobSpec>
pinnedJobs()
{
    std::vector<JobSpec> jobs(8);
    for (JobSpec &s : jobs)
        s.backend = BackendKind::FuncBatch;
    return jobs;
}

} // namespace

TEST(CrashRecovery, IncompleteRecordIsNotRehydrated)
{
    // A CRC-valid record that lacks one counter must not rehydrate with
    // that counter silently 0: it is dropped, and the job re-runs.
    const std::vector<JobSpec> jobs = pinnedJobs();
    const std::uint64_t seed = 99;
    const std::string line = JobJournal::recordLine(
        pinnedJobResult(), JobJournal::specDigest(jobs[7], 7, seed));
    std::string body = line.substr(0, line.size() - kSealBytes);
    ASSERT_EQ(reseal(body), line);  // the test CRC is the journal's
    const std::string field =
        ",\"head_bypasses\":" +
        std::to_string(pinnedJobResult().result.head_bypasses);
    const std::size_t at = body.find(field);
    ASSERT_NE(at, std::string::npos);
    body.erase(at, field.size());

    const std::string path = tmpPath("incomplete.jsonl");
    spit(path, pinnedHeader(jobs, seed) + reseal(body) + "\n");
    JobJournal::LoadStats st;
    const auto loaded = JobJournal::load(path, "pinned", seed, jobs, &st);
    EXPECT_TRUE(st.header_valid);
    EXPECT_EQ(st.records, 0u);
    EXPECT_EQ(st.dropped, 1u);
    EXPECT_FALSE(loaded[7].has_value());
    std::remove(path.c_str());
}

TEST(CrashRecovery, MutatedRecordsRehydrateOnlyVerbatim)
{
    // Mutation fuzz: thousands of seeded byte-level mutants of a sealed
    // record, each re-sealed with a correct CRC so the reader alone
    // decides. A mutant either does not rehydrate, or rehydrates into a
    // result that re-renders to the mutant byte for byte — the reader
    // never accepts a spelling the writer would not produce (a space
    // after a colon, a leading zero, an upper-case escape, a missing or
    // duplicated field).
    const std::vector<JobSpec> jobs = pinnedJobs();
    const std::uint64_t seed = 99;
    const std::string header = pinnedHeader(jobs, seed);
    const std::string line = JobJournal::recordLine(
        pinnedJobResult(), JobJournal::specDigest(jobs[7], 7, seed));
    const std::string body = line.substr(0, line.size() - kSealBytes);
    const std::string path = tmpPath("mutant.jsonl");

    static const char kBytes[] = " \t\n,:{}[]\"\\0123456789-+.eEuabcdef";
    std::mt19937_64 rng(20051112);
    const auto pick = [&rng](std::size_t n) {
        return n ? std::size_t(rng() % n) : 0;
    };
    std::size_t accepted = 0, rejected = 0;
    for (int m = 0; m < 2000; ++m) {
        std::string mutant = body;
        for (int edits = 1 + int(pick(2)); edits > 0; --edits) {
            const std::size_t at = pick(mutant.size());
            const std::size_t len = 1 + pick(8);
            switch (pick(5)) {
              case 0:  // byte flip
                if (at < mutant.size())
                    mutant[at] = char(mutant[at] ^ (1u << pick(8)));
                break;
              case 1:  // delete
                mutant.erase(at, len);
                break;
              case 2: {  // insert, often right after a structural byte
                std::size_t pos = at;
                if (pick(2) != 0) {
                    const std::size_t s = mutant.find_first_of(":,[{", at);
                    pos = s == std::string::npos ? at : s + 1;
                }
                mutant.insert(pos, 1, kBytes[pick(sizeof(kBytes) - 1)]);
                break;
              }
              case 3:  // duplicate a span
                mutant.insert(pick(mutant.size()), mutant.substr(at, len));
                break;
              default:  // truncate
                mutant.resize(at);
                break;
            }
        }
        const std::string sealed = reseal(mutant);
        spit(path, header + sealed + "\n");
        const auto loaded = JobJournal::load(path, "pinned", seed, jobs);
        bool any = false;
        for (std::size_t i = 0; i < loaded.size(); ++i) {
            if (!loaded[i])
                continue;
            any = true;
            EXPECT_EQ(JobJournal::recordLine(
                          *loaded[i],
                          JobJournal::specDigest(jobs[i], i, seed)),
                      sealed)
                << "mutant " << m << " rehydrated non-verbatim";
        }
        ++(any ? accepted : rejected);
    }
    // Both outcomes occur, so neither branch is vacuous.
    EXPECT_GT(accepted, 0u);
    EXPECT_GT(rejected, 0u);
    std::remove(path.c_str());
}

TEST(CrashRecovery, SpecDigestDistinguishesJobs)
{
    const Campaign c = makeCrashCampaign();
    const std::uint64_t d0 = JobJournal::specDigest(c.jobs()[0], 0, 1);
    // Same spec, different index or root seed: different digest.
    EXPECT_NE(d0, JobJournal::specDigest(c.jobs()[0], 1, 1));
    EXPECT_NE(d0, JobJournal::specDigest(c.jobs()[0], 0, 2));
    // Different config geometry: different digest.
    JobSpec mutated = c.jobs()[0];
    mutated.cfg.rob_entries += 1;
    EXPECT_NE(d0, JobJournal::specDigest(mutated, 0, 1));
    // Determinism.
    EXPECT_EQ(d0, JobJournal::specDigest(c.jobs()[0], 0, 1));
}

TEST(CrashRecovery, SpecDigestCoversEveryOverrideKey)
{
    // A non-default value for every override key. A key added to
    // knownOverrideKeys() without an entry here fails the test, so a
    // new knob cannot slip past the digest and let --resume rehydrate
    // a record simulated under a different configuration.
    const std::vector<std::pair<std::string, std::string>> values = {
        {"check.abort", "0"},
        {"deadline_ms", "12345"},
        {"fault.fifo_payload", "0.25"},
        {"fault.mdt_evict", "0.25"},
        {"fault.sfc_data", "0.25"},
        {"fault.sfc_mask", "0.25"},
        {"fault.seed", "99"},
        {"fus", "3"},
        {"lsq.lq", "17"},
        {"lsq.sq", "13"},
        {"max_cycles", "777"},
        {"max_insts", "4242"},
        {"mdt.assoc", "4"},
        {"mdt.granularity", "4"},
        {"mdt.sets", "64"},
        {"mdt.tagged", "0"},
        {"memdep.mode", "lsq"},
        {"obs.occupancy", "1"},
        {"optimized_true_recovery", "1"},
        {"oracle_fix_prob", "0.5"},
        {"output_dep_marks_corrupt", "1"},
        {"partial_match_merges", "0"},
        {"rob", "64"},
        {"sched", "32"},
        {"seed", "5"},
        {"sfc.assoc", "4"},
        {"sfc.flush_endpoints", "1"},
        {"sfc.max_flush_ranges", "1"},
        {"sfc.sets", "64"},
        {"stall_bits", "0"},
        {"subsys", "lsq"},
        {"validate", "0"},
        {"value_replay_filtered", "0"},
        {"watchdog.max_cycles", "1000000"},
        {"watchdog.retire_cycles", "999"},
        {"width", "2"},
    };
    std::vector<std::string> covered;
    for (const auto &[key, value] : values)
        covered.push_back(key);
    std::sort(covered.begin(), covered.end());
    EXPECT_EQ(covered, knownOverrideKeys());

    JobSpec base;
    base.config_name = "cfg";
    base.workload = "wl";
    base.cfg = CoreConfig::baseline();
    const std::uint64_t d0 = JobJournal::specDigest(base, 0, 1);
    for (const auto &[key, value] : values) {
        Config ov;
        ov.set(key, value);
        JobSpec mutated = base;
        applyOverrides(mutated.cfg, ov);
        ASSERT_FALSE(mutated.cfg == base.cfg)
            << key << "=" << value << " is the default";
        EXPECT_NE(JobJournal::specDigest(mutated, 0, 1), d0) << key;
    }

    // Fields no override reaches are covered too.
    const std::vector<void (*)(CoreConfig &)> edits = {
        [](CoreConfig &c) { c.load_latency += 1; },
        [](CoreConfig &c) { c.replay_delay += 1; },
        [](CoreConfig &c) { c.gshare_bits *= 2; },
        [](CoreConfig &c) { c.fetch_queue_entries += 1; },
        [](CoreConfig &c) { c.memdep.num_tags += 1; },
        [](CoreConfig &c) { c.sfc_store_extra_cycle = false; },
        [](CoreConfig &c) { c.mdt_violation_extra_penalty += 1; },
        [](CoreConfig &c) { c.l1d.size_bytes *= 2; },
        [](CoreConfig &c) { c.l2.miss_penalty += 1; },
    };
    for (std::size_t i = 0; i < edits.size(); ++i) {
        JobSpec mutated = base;
        edits[i](mutated.cfg);
        EXPECT_NE(JobJournal::specDigest(mutated, 0, 1), d0)
            << "edit " << i;
    }
}

// ---------------------------------------------------------------------
// Truncation sweep: the journal chopped at every boundary
// ---------------------------------------------------------------------

TEST(CrashRecovery, ResumeConvergesFromEveryTruncationPoint)
{
    const std::string full = tmpPath("trunc_full.jsonl");
    const std::string cut = tmpPath("trunc_cut.jsonl");
    const std::string golden = goldenJson();

    {
        const ScopedSyntheticBackend synthetic(crashRunner());
        const Campaign c = makeCrashCampaign();
        CampaignOptions opts = harnessOptions();
        opts.journal_path = full;
        const auto results = c.run(opts);
        EXPECT_EQ(ResultSink::toJson(c.name(), opts.root_seed, results),
                  golden);
    }
    const std::string content = slurp(full);
    ASSERT_FALSE(content.empty());

    // Every line boundary (the crash-between-appends points) plus the
    // middle of every line (torn-tail points).
    std::vector<std::size_t> cuts{0};
    std::size_t start = 0;
    while (start < content.size()) {
        const std::size_t nl = content.find('\n', start);
        if (nl == std::string::npos)
            break;
        cuts.push_back(start + (nl - start) / 2);  // mid-line tear
        cuts.push_back(nl + 1);                    // clean boundary
        start = nl + 1;
    }

    for (std::size_t n : cuts) {
        spit(cut, content.substr(0, n));
        auto calls = std::make_shared<std::atomic<int>>(0);
        EXPECT_EQ(resumeJson(cut, calls), golden)
            << "diverged resuming from a journal truncated at byte "
            << n;
        EXPECT_LE(calls->load(), int(kJobs + 1))
            << "truncated at byte " << n;
    }
    std::remove(full.c_str());
    std::remove(cut.c_str());
}

// ---------------------------------------------------------------------
// Torn append via hooks (crash mid-append, journal dead after)
// ---------------------------------------------------------------------

TEST(CrashRecovery, TornAppendLosesOnlyTheSuffix)
{
    const std::string path = tmpPath("torn.jsonl");
    const std::string golden = goldenJson();

    for (std::size_t tear_at = 0; tear_at < kJobs; ++tear_at) {
        std::remove(path.c_str());
        JournalHooks hooks;
        hooks.torn_append = [tear_at](std::size_t n) {
            return n == tear_at;
        };

        const ScopedSyntheticBackend synthetic(crashRunner());
        const Campaign c = makeCrashCampaign();
        CampaignOptions opts = harnessOptions();
        opts.journal_path = path;
        opts.journal_hooks = &hooks;
        c.run(opts);

        // The journal holds exactly the records before the tear; resume
        // re-runs the rest and still converges.
        JobJournal::LoadStats st;
        JobJournal::load(path, c.name(), opts.root_seed, c.jobs(), &st);
        EXPECT_EQ(st.records, tear_at) << "tear at " << tear_at;
        EXPECT_GE(st.dropped, 1u);

        auto calls = std::make_shared<std::atomic<int>>(0);
        EXPECT_EQ(resumeJson(path, calls), golden)
            << "tear at " << tear_at;
        EXPECT_GT(calls->load(), 0);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// SIGKILL-grade death at exact journal boundaries (fork harness)
// ---------------------------------------------------------------------

TEST(CrashRecovery, SigkillBetweenJobsThenResumeIsByteIdentical)
{
    const std::string golden = goldenJson();

    for (std::size_t kill_at = 0; kill_at < kJobs; ++kill_at) {
        const std::string path =
            tmpPath("kill_" + std::to_string(kill_at) + ".jsonl");
        std::remove(path.c_str());

        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            // Child: run the campaign and die, no destructors, the
            // instant record kill_at is durable.
            JournalHooks hooks;
            hooks.after_append = [kill_at](std::size_t n) {
                if (n == kill_at)
                    ::_exit(137);
            };
            const ScopedSyntheticBackend synthetic(crashRunner());
            const Campaign c = makeCrashCampaign();
            CampaignOptions opts = harnessOptions();
            opts.journal_path = path;
            opts.journal_hooks = &hooks;
            c.run(opts);
            ::_exit(0);  // only reached when kill_at was never hit
        }

        int wstatus = 0;
        ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
        ASSERT_TRUE(WIFEXITED(wstatus));
        ASSERT_EQ(WEXITSTATUS(wstatus), 137);

        // The dead child journaled exactly kill_at + 1 records.
        JobJournal::LoadStats st;
        const Campaign c = makeCrashCampaign();
        JobJournal::load(path, c.name(), harnessOptions().root_seed,
                         c.jobs(), &st);
        EXPECT_EQ(st.records, kill_at + 1) << "killed at " << kill_at;

        auto calls = std::make_shared<std::atomic<int>>(0);
        EXPECT_EQ(resumeJson(path, calls), golden)
            << "killed at " << kill_at;
        // Only the unjournaled suffix re-ran (the fatal job makes 2
        // runner calls when it is part of the suffix).
        EXPECT_LT(calls->load(), int(2 * kJobs)) << "killed at "
                                                 << kill_at;
    }
}

// ---------------------------------------------------------------------
// Crash mid-final-write (writeFileAtomic durability seam)
// ---------------------------------------------------------------------

TEST(CrashRecovery, KillBeforeRenameLeavesTargetIntact)
{
    const std::string target = tmpPath("final.json");
    ResultSink::writeFileAtomic(target, "old contents\n");

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
        ::setenv("SLFWD_SINK_KILL_BEFORE_RENAME", "1", 1);
        ResultSink::writeFileAtomic(target, "new contents\n");
        ::_exit(0);  // unreachable: the seam _exits(137)
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus));
    ASSERT_EQ(WEXITSTATUS(wstatus), 137);

    // The crash fell between the durable tmp and the rename: the old
    // target is untouched (atomicity), and re-running the write
    // completes it (the tmp name is pid-scoped, so the dead child's
    // dropping cannot collide).
    EXPECT_EQ(slurp(target), "old contents\n");
    ResultSink::writeFileAtomic(target, "new contents\n");
    EXPECT_EQ(slurp(target), "new contents\n");
    std::remove(target.c_str());
    std::remove((target + ".tmp." + std::to_string(pid)).c_str());
}

TEST(CrashRecovery, FifoTargetIsWrittenInPlace)
{
    // `--out /dev/null` or `--out <fifo>` must stream into the node,
    // not rename a regular file over it.
    const std::string fifo = tmpPath("out.fifo");
    std::remove(fifo.c_str());
    ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);

    // Open the read end first (non-blocking, then switch to blocking)
    // and hold a spare write end, so the reader sees EOF only once the
    // test closes it, whether or not the sink ever opened the FIFO.
    const int rfd = ::open(fifo.c_str(), O_RDONLY | O_NONBLOCK);
    ASSERT_GE(rfd, 0);
    ASSERT_EQ(::fcntl(rfd, F_SETFL, 0), 0);
    const int keep = ::open(fifo.c_str(), O_WRONLY);
    ASSERT_GE(keep, 0);

    std::string got;
    std::thread reader([&] {
        char buf[4096];
        ssize_t n;
        while ((n = ::read(rfd, buf, sizeof(buf))) > 0)
            got.append(buf, std::size_t(n));
    });

    // Larger than a pipe buffer: the write only finishes if the reader
    // drains it concurrently.
    const std::string content(256 * 1024, 'x');
    bool threw = false;
    try {
        ResultSink::writeFileAtomic(fifo, content);
    } catch (const FatalError &) {
        threw = true;
    }
    ::close(keep);
    reader.join();
    ::close(rfd);

    EXPECT_FALSE(threw);
    EXPECT_EQ(got.size(), content.size());
    EXPECT_TRUE(got == content);
    struct stat st;
    ASSERT_EQ(::stat(fifo.c_str(), &st), 0);
    EXPECT_TRUE(S_ISFIFO(st.st_mode));
    std::remove(fifo.c_str());
}

// ---------------------------------------------------------------------
// Journal identity and corruption handling
// ---------------------------------------------------------------------

TEST(CrashRecovery, MismatchedCampaignIdentityIsFatal)
{
    const std::string path = tmpPath("identity.jsonl");
    const Campaign c = makeCrashCampaign();
    {
        JobJournal j(path, c.name(), 1, kJobs, false);
    }
    // Same file, wrong campaign name / root seed / job count: loading
    // must refuse rather than silently mix campaigns.
    EXPECT_THROW(JobJournal::load(path, "other", 1, c.jobs()),
                 FatalError);
    EXPECT_THROW(JobJournal::load(path, c.name(), 2, c.jobs()),
                 FatalError);
    std::vector<JobSpec> fewer(c.jobs().begin(), c.jobs().end() - 1);
    EXPECT_THROW(JobJournal::load(path, c.name(), 1, fewer), FatalError);
    // The matching identity loads fine (and has no records).
    JobJournal::LoadStats st;
    JobJournal::load(path, c.name(), 1, c.jobs(), &st);
    EXPECT_TRUE(st.header_valid);
    EXPECT_EQ(st.records, 0u);
    std::remove(path.c_str());
}

TEST(CrashRecovery, CorruptHeaderStartsFresh)
{
    const std::string path = tmpPath("garbage.jsonl");
    spit(path, "this is not a journal\nat all\n");

    const Campaign c = makeCrashCampaign();
    JobJournal::LoadStats st;
    const auto loaded = JobJournal::load(path, c.name(), 1, c.jobs(), &st);
    EXPECT_FALSE(st.header_valid);
    for (const auto &slot : loaded)
        EXPECT_FALSE(slot.has_value());

    // A resume run over the garbage file truncates it and proceeds as
    // a fresh journal — and still converges.
    EXPECT_EQ(resumeJson(path), goldenJson());
    JobJournal::load(path, c.name(), harnessOptions().root_seed,
                     c.jobs(), &st);
    EXPECT_TRUE(st.header_valid);
    EXPECT_EQ(st.records, kJobs);
    std::remove(path.c_str());
}

TEST(CrashRecovery, StaleDigestRecordsAreIgnoredAndReRun)
{
    const std::string path = tmpPath("stale.jsonl");
    {
        const ScopedSyntheticBackend synthetic(crashRunner());
        const Campaign c = makeCrashCampaign();
        CampaignOptions opts = harnessOptions();
        opts.journal_path = path;
        c.run(opts);
    }

    // The same campaign with different config geometry: every journaled
    // digest is stale, so nothing rehydrates and everything re-runs.
    Campaign changed("crash_harness");
    {
        const Campaign base = makeCrashCampaign();
        for (const JobSpec &s : base.jobs()) {
            JobSpec mutated = s;
            mutated.cfg.rob_entries += 64;
            changed.addJob(std::move(mutated));
        }
    }
    JobJournal::LoadStats st;
    const auto loaded =
        JobJournal::load(path, changed.name(),
                         harnessOptions().root_seed, changed.jobs(), &st);
    EXPECT_TRUE(st.header_valid);
    EXPECT_EQ(st.records, 0u);
    EXPECT_EQ(st.mismatched, kJobs);
    for (const auto &slot : loaded)
        EXPECT_FALSE(slot.has_value());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Journal compaction on many-times-resumed campaigns
// ---------------------------------------------------------------------

namespace
{

/** The harness campaign with generation-@p gen config geometry: every
 *  journaled record of any other generation is digest-stale. */
Campaign
generationCampaign(std::size_t gen)
{
    Campaign c("crash_harness");
    const Campaign base = makeCrashCampaign();
    for (const JobSpec &s : base.jobs()) {
        JobSpec m = s;
        m.cfg.rob_entries += unsigned(64 * gen);
        c.addJob(std::move(m));
    }
    return c;
}

std::size_t
lineCount(const std::string &content)
{
    std::size_t n = 0;
    for (char ch : content)
        if (ch == '\n')
            ++n;
    return n;
}

} // namespace

TEST(CrashRecovery, CompactionBoundsAManyTimesResumedJournal)
{
    const std::string path = tmpPath("compact.jsonl");
    std::remove(path.c_str());
    const ScopedSyntheticBackend synthetic(crashRunner());

    // Each generation edits the specs (rob geometry), so on resume every
    // record of the previous generation is stale. Without compaction the
    // journal grows by kJobs records per generation forever; with it,
    // the stale majority triggers an atomic rewrite and the file stays
    // at header + live records.
    constexpr std::size_t kGenerations = 6;
    for (std::size_t gen = 0; gen < kGenerations; ++gen) {
        const Campaign c = generationCampaign(gen);
        CampaignOptions opts = harnessOptions();
        opts.journal_path = path;
        opts.resume = gen > 0;
        c.run(opts);
        EXPECT_LE(lineCount(slurp(path)), 1 + kJobs)
            << "journal grew unboundedly by generation " << gen;
    }

    // The compacted journal still serves its purpose: resuming the
    // last generation re-runs nothing and converges byte-identically
    // to that generation's uninterrupted run.
    const Campaign last = generationCampaign(kGenerations - 1);
    const std::string golden = ResultSink::toJson(
        last.name(), harnessOptions().root_seed,
        last.run(harnessOptions()));

    auto calls = std::make_shared<std::atomic<int>>(0);
    {
        const ScopedSyntheticBackend counted(crashRunner(calls));
        CampaignOptions opts = harnessOptions();
        opts.journal_path = path;
        opts.resume = true;
        EXPECT_EQ(ResultSink::toJson(last.name(), opts.root_seed,
                                     last.run(opts)),
                  golden);
    }
    EXPECT_EQ(calls->load(), 0);

    // And the journal header survived every compaction round intact.
    JobJournal::LoadStats st;
    JobJournal::load(path, last.name(), harnessOptions().root_seed,
                     last.jobs(), &st);
    EXPECT_TRUE(st.header_valid);
    EXPECT_EQ(st.records, kJobs);
    EXPECT_EQ(st.mismatched, 0u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Failure quarantine rehydration
// ---------------------------------------------------------------------

TEST(CrashRecovery, QuarantinedFailuresRehydrateWithoutReRunning)
{
    const std::string path = tmpPath("failures.jsonl");
    std::remove(path.c_str());
    const std::string golden = goldenJson();

    {
        const ScopedSyntheticBackend synthetic(crashRunner());
        const Campaign c = makeCrashCampaign();
        CampaignOptions opts = harnessOptions();
        opts.journal_path = path;
        c.run(opts);
    }

    // A full journal resumes with ZERO runner calls: even the fatal
    // job is rehydrated (re-running a deterministic failure buys
    // nothing and re-running a timeout would break byte-identity).
    auto calls = std::make_shared<std::atomic<int>>(0);
    const std::string resumed = resumeJson(path, calls);
    EXPECT_EQ(calls->load(), 0);
    EXPECT_EQ(resumed, golden);

    // And the quarantine manifest actually made it into the JSON.
    EXPECT_NE(resumed.find("\"failures\": ["), std::string::npos);
    EXPECT_NE(resumed.find("\"schema_version\": 4"), std::string::npos);
    EXPECT_NE(resumed.find("synthetic wedge in job 3"),
              std::string::npos);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Deadline watchdog: a real core against a host wall-clock budget
// ---------------------------------------------------------------------

namespace
{

/** A long-running but well-formed program: a tight counted loop whose
 *  body mixes ALU and memory work, sized to simulate for far longer
 *  than the 1 ms deadline the test arms. */
Program
longLoopProgram()
{
    ProgramBuilder b("long_loop", WorkloadClass::Int);
    b.movi(1, 0x0060'0000);
    b.poke64(0x0060'0000, 42);
    b.movi(10, 0);
    b.movi(11, 2'000'000);
    Label top = b.newLabel();
    b.bind(top);
    b.ld8(2, 1, 0);
    b.add(3, 3, 2);
    b.st8(3, 1, 0);
    b.addi(10, 10, 1);
    b.blt(10, 11, top);
    b.halt();
    return b.build();
}

} // namespace

TEST(CrashRecovery, DeadlineExpiryIsTimeoutNotFatal)
{
    Campaign c("deadline");
    JobSpec spec;
    spec.config_name = "slow";
    spec.workload = "long_loop";
    spec.cfg = CoreConfig::baseline();
    spec.cfg.max_insts = 100'000'000;
    spec.cfg.validate = false;  // maximize sim speed; still >> 1 ms
    spec.make_prog = [] { return longLoopProgram(); };
    c.addJob(std::move(spec));

    CampaignOptions opts;
    opts.jobs = 1;
    opts.max_retries = 1;
    opts.retry_backoff_ms = 1;
    opts.progress = false;
    opts.job_timeout_ms = 1;

    const auto results = c.run(opts);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].status, JobStatus::Timeout);
    EXPECT_EQ(results[0].attempts, 2u);  // expiry escalates to retry
    EXPECT_NE(results[0].error.find("deadline"), std::string::npos);
    // Retries salted the seeds; the manifest records the last attempt.
    EXPECT_EQ(results[0].core_seed,
              jobSeed(opts.root_seed, 0, SeedStream::Core, 1));

    // Renders as "timeout", distinct from "fatal", in the manifest.
    const std::string json =
        ResultSink::toJson(c.name(), opts.root_seed, results);
    EXPECT_NE(json.find("\"status\": \"timeout\""), std::string::npos);
    EXPECT_EQ(json.find("\"status\": \"fatal\""), std::string::npos);
    EXPECT_NE(json.find("\"failures\": ["), std::string::npos);
}

TEST(CrashRecovery, NoDeadlineMeansNoTimeout)
{
    // The same core config without a deadline completes normally well
    // within max_insts (sanity check that the poll is inert when off).
    CoreConfig cfg = CoreConfig::baseline();
    cfg.max_insts = 20'000;
    cfg.validate = false;
    ASSERT_EQ(cfg.deadline_ms, 0u);
    const SimResult r = runWorkload(cfg, longLoopProgram());
    EXPECT_GT(r.insts, 0u);
}
