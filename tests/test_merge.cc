/**
 * @file
 * Property tests for shard merging: Distribution::mergeFrom,
 * StatGroup::mergeFrom and SimResult::mergeFrom must behave like the
 * shards were one combined run — merging K shards equals the combined
 * whole, and the fold is associative and order-independent. These are
 * the invariants the campaign ResultSink aggregates rely on.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <vector>

#include "sim/rng.hh"
#include "sim/stats.hh"
#include "verify/sim_result.hh"

using namespace slf;

namespace
{

/** Flatten every counter-valued SimResult field for comparison. */
std::vector<std::uint64_t>
counters(const SimResult &r)
{
    std::vector<std::uint64_t> out{r.cycles, r.insts};
#define SLF_FLATTEN(name) out.push_back(r.name);
    SLF_SIM_COUNTERS(SLF_FLATTEN)
#undef SLF_FLATTEN
    out.push_back(r.check_retirements);
    out.push_back(r.check_failures);
    out.push_back(r.check_store_commit_failures);
    return out;
}

/** A SimResult with every counter field drawn from @p rng. */
SimResult
randomResult(Rng &rng)
{
    SimResult r;
    r.cycles = rng.below(10000) + 1;
    r.insts = rng.below(10000) + 1;
    r.ipc = double(r.insts) / double(r.cycles);
#define SLF_RANDOM_FILL(name) r.name = rng.below(10000);
    SLF_SIM_COUNTERS(SLF_RANDOM_FILL)
#undef SLF_RANDOM_FILL
    r.checker_enabled = true;
    r.check_retirements = r.insts;
    r.check_failures = rng.below(4);
    r.checker_clean = r.check_failures == 0;
    r.check_store_commit_failures = rng.below(r.check_failures + 1);
    return r;
}

} // namespace

// ---------------------------------------------------------------------
// Distribution
// ---------------------------------------------------------------------

TEST(DistributionMerge, KShardsEqualCombined)
{
    Rng rng(0xd157);
    // One sample stream, split round-robin across 4 shards.
    Distribution combined;
    Distribution shards[4];
    for (unsigned i = 0; i < 1000; ++i) {
        const std::uint64_t v = rng.below(1u << 20);
        combined.sample(v);
        shards[i % 4].sample(v);
    }
    Distribution merged;
    for (const Distribution &s : shards)
        merged.mergeFrom(s);

    EXPECT_EQ(merged.count(), combined.count());
    EXPECT_EQ(merged.sum(), combined.sum());
    EXPECT_EQ(merged.min(), combined.min());
    EXPECT_EQ(merged.max(), combined.max());
    EXPECT_DOUBLE_EQ(merged.mean(), combined.mean());
}

TEST(DistributionMerge, OrderIndependentAndEmptyIsIdentity)
{
    Distribution a, b, empty;
    a.sample(3);
    a.sample(100);
    b.sample(7);

    Distribution ab = a;
    ab.mergeFrom(b);
    Distribution ba = b;
    ba.mergeFrom(a);
    EXPECT_EQ(ab.count(), ba.count());
    EXPECT_EQ(ab.sum(), ba.sum());
    EXPECT_EQ(ab.min(), ba.min());
    EXPECT_EQ(ab.max(), ba.max());

    Distribution a2 = a;
    a2.mergeFrom(empty);
    EXPECT_EQ(a2.count(), a.count());
    EXPECT_EQ(a2.min(), a.min());
    EXPECT_EQ(a2.max(), a.max());

    Distribution e2 = empty;
    e2.mergeFrom(a);
    EXPECT_EQ(e2.count(), a.count());
    EXPECT_EQ(e2.min(), 3u);
    EXPECT_EQ(e2.max(), 100u);
}

// ---------------------------------------------------------------------
// StatGroup
// ---------------------------------------------------------------------

TEST(StatGroupMerge, KShardsEqualCombined)
{
    Rng rng(0x57a7);
    const char *names[] = {"hits", "misses", "replays", "forwards"};

    StatGroup combined("combined");
    std::vector<StatGroup> shards;
    for (unsigned s = 0; s < 3; ++s)
        shards.emplace_back("shard" + std::to_string(s));

    for (unsigned i = 0; i < 500; ++i) {
        const char *name = names[rng.below(4)];
        const std::uint64_t n = rng.below(10) + 1;
        combined.counter(name) += n;
        shards[i % 3].counter(name) += n;
        const std::uint64_t v = rng.below(1000);
        combined.distribution("occupancy").sample(v);
        shards[i % 3].distribution("occupancy").sample(v);
    }

    StatGroup merged("merged");
    for (const StatGroup &s : shards)
        merged.mergeFrom(s);

    for (const char *name : names)
        EXPECT_EQ(merged.counterValue(name), combined.counterValue(name))
            << name;
    EXPECT_EQ(merged.distribution("occupancy").count(),
              combined.distribution("occupancy").count());
    EXPECT_EQ(merged.distribution("occupancy").sum(),
              combined.distribution("occupancy").sum());
    EXPECT_EQ(merged.distribution("occupancy").min(),
              combined.distribution("occupancy").min());
    EXPECT_EQ(merged.distribution("occupancy").max(),
              combined.distribution("occupancy").max());
}

TEST(StatGroupMerge, CreatesAbsentMembers)
{
    StatGroup a("a"), b("b");
    a.counter("only_in_a") += 5;
    b.counter("only_in_b") += 7;
    b.distribution("dist_b").sample(42);

    a.mergeFrom(b);
    EXPECT_EQ(a.counterValue("only_in_a"), 5u);
    EXPECT_EQ(a.counterValue("only_in_b"), 7u);
    EXPECT_EQ(a.distribution("dist_b").count(), 1u);
    EXPECT_EQ(a.distribution("dist_b").sum(), 42u);
}

TEST(StatGroupMerge, AssociativeOnRandomGroups)
{
    Rng rng(0xa550);
    auto make = [&rng](const std::string &name) {
        StatGroup g(name);
        const char *names[] = {"x", "y", "z"};
        for (unsigned i = 0; i < 20; ++i)
            g.counter(names[rng.below(3)]) += rng.below(100);
        return g;
    };
    const StatGroup a = make("a"), b = make("b"), c = make("c");

    StatGroup left = a;          // (a + b) + c
    left.mergeFrom(b);
    left.mergeFrom(c);

    StatGroup bc = b;            // a + (b + c)
    bc.mergeFrom(c);
    StatGroup right = a;
    right.mergeFrom(bc);

    for (const char *name : {"x", "y", "z"})
        EXPECT_EQ(left.counterValue(name), right.counterValue(name))
            << name;
}

// ---------------------------------------------------------------------
// SimResult
// ---------------------------------------------------------------------

TEST(SimResultMerge, KShardsEqualCombinedTotals)
{
    Rng rng(0x5e5d);
    std::vector<SimResult> shards;
    for (unsigned i = 0; i < 5; ++i)
        shards.push_back(randomResult(rng));

    // Expected totals: elementwise sum of every counter field.
    std::vector<std::uint64_t> expected(counters(shards[0]).size(), 0);
    for (const SimResult &s : shards) {
        const auto c = counters(s);
        for (std::size_t i = 0; i < c.size(); ++i)
            expected[i] += c[i];
    }

    SimResult merged = shards[0];
    for (unsigned i = 1; i < 5; ++i)
        merged.mergeFrom(shards[i]);

    EXPECT_EQ(counters(merged), expected);
    // ipc is recomputed from merged totals, not averaged.
    EXPECT_DOUBLE_EQ(merged.ipc,
                     double(merged.insts) / double(merged.cycles));
}

TEST(SimResultMerge, OrderIndependent)
{
    Rng rng(0x0bde);
    std::vector<SimResult> shards;
    for (unsigned i = 0; i < 4; ++i)
        shards.push_back(randomResult(rng));

    SimResult fwd = shards[0];
    for (unsigned i = 1; i < 4; ++i)
        fwd.mergeFrom(shards[i]);

    SimResult rev = shards[3];
    for (int i = 2; i >= 0; --i)
        rev.mergeFrom(shards[unsigned(i)]);

    EXPECT_EQ(counters(fwd), counters(rev));
    EXPECT_DOUBLE_EQ(fwd.ipc, rev.ipc);
    EXPECT_EQ(fwd.checker_clean, rev.checker_clean);
    EXPECT_EQ(fwd.checker_enabled, rev.checker_enabled);
}

TEST(SimResultMerge, Associative)
{
    Rng rng(0xacc0);
    const SimResult a = randomResult(rng);
    const SimResult b = randomResult(rng);
    const SimResult c = randomResult(rng);

    SimResult left = a;          // (a + b) + c
    left.mergeFrom(b);
    left.mergeFrom(c);

    SimResult bc = b;            // a + (b + c)
    bc.mergeFrom(c);
    SimResult right = a;
    right.mergeFrom(bc);

    EXPECT_EQ(counters(left), counters(right));
    EXPECT_DOUBLE_EQ(left.ipc, right.ipc);
}

TEST(SimResultMerge, CheckerFlagsAndReports)
{
    SimResult clean;
    clean.checker_enabled = true;
    clean.checker_clean = true;

    SimResult dirty;
    dirty.checker_enabled = true;
    dirty.checker_clean = false;
    dirty.check_failures = 3;
    CheckFailure f;
    f.kind = CheckFailure::Kind::StoreCommit;
    f.seq = 17;
    dirty.check_reports.push_back(f);

    SimResult merged = clean;
    merged.mergeFrom(dirty);
    EXPECT_TRUE(merged.checker_enabled);
    EXPECT_FALSE(merged.checker_clean);   // any dirty shard taints all
    EXPECT_EQ(merged.check_failures, 3u);
    ASSERT_EQ(merged.check_reports.size(), 1u);
    EXPECT_EQ(merged.check_reports[0].seq, SeqNum(17));
}

TEST(SimResultMerge, ReportsCappedAtCheckerLimit)
{
    SimResult a, b;
    for (unsigned i = 0; i < GoldenChecker::kMaxReports; ++i) {
        CheckFailure f;
        f.seq = i;
        a.check_reports.push_back(f);
        f.seq = 1000 + i;
        b.check_reports.push_back(f);
    }
    a.check_failures = b.check_failures = GoldenChecker::kMaxReports;

    SimResult merged = a;
    merged.mergeFrom(b);
    // Counters keep the true total; the report list stays capped.
    EXPECT_EQ(merged.check_failures, 2 * GoldenChecker::kMaxReports);
    EXPECT_EQ(merged.check_reports.size(), GoldenChecker::kMaxReports);
}

TEST(SimResultMerge, WorkloadNameKeptWhenPresent)
{
    SimResult named;
    named.workload = "bzip2";
    SimResult anon;

    SimResult m1 = named;
    m1.mergeFrom(anon);
    EXPECT_EQ(m1.workload, "bzip2");

    SimResult m2 = anon;
    m2.mergeFrom(named);
    EXPECT_EQ(m2.workload, "bzip2");
}
