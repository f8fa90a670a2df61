/**
 * @file
 * Differential random-program fuzzing.
 *
 * Seeded random programs are generated through prog/builder with
 * deliberately aliasing 8-byte-granular addresses (a handful of hot
 * slots shared by stores and loads of mixed sizes, plus stores hidden
 * behind poorly-predictable branches — the Store-to-Leak-style
 * wrong-path aliasing patterns). Each program runs on the MDT/SFC
 * subsystem, the idealized LSQ and (spot-checked) the value-replay
 * unit, all in lockstep with the functional simulator via the
 * GoldenChecker; any divergence in the retirement stream, committed
 * store bytes or final memory image fails the test with a structured
 * report.
 *
 * The seed corpus is fixed so a failure reproduces byte-for-byte:
 * re-run with --gtest_filter=FuzzDifferential.* and the seed printed
 * in the failure message.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include "block_step_check.hh"
#include "cpu/config_preset.hh"
#include "cpu/ooo_core.hh"
#include "driver/runner.hh"
#include "prog/builder.hh"
#include "sim/rng.hh"
#include "workloads/micro_corpus.hh"
#include "workloads/workloads.hh"

using namespace slf;

namespace
{

/**
 * The fixed reproduction corpus. Append only: tests below index into
 * this table, so reordering or removing entries silently changes what
 * they cover. Entries 12..15 feed the squash-at-boundary-biased
 * generator (and the plain one) — they were picked so the alternating
 * guard pattern lands squashes exactly at store/flush seq endpoints.
 * Entries 16..19 feed the fence/sync-idiom + partial-overlap generator
 * (syncOverlapProgram), picked so acquire-flag branches mispredict and
 * misaligned mixed-size overlaps hit every partial-forward shape.
 */
const std::vector<std::uint64_t> kSeedCorpus = {
    0x1,    0x2a,        0xdead,     0xbeef,       0xc0ffee,
    0x1234, 0x9e3779b9,  0xfeedface, 0x5ca1ab1e,   0x7,
    0x77,   0x777,
    // Squash-at-boundary-biased additions (see squashBiasedProgram).
    0xba5eba11, 0xf1005eed, 0xa55e55ed, 0x0ddb0a7,
    // Fence/sync-idiom + partial-overlap additions (syncOverlapProgram).
    0xfaceb00c, 0x0babb1e5, 0xdeadfa11, 0x0b5e55ed,
};

constexpr std::int64_t kBase = 0x0050'0000;  ///< fuzz data segment
constexpr unsigned kSlots = 8;               ///< aliasing 8-byte slots

/**
 * Loop iterations per fuzz program. The default keeps the ctest run
 * fast; CI's soak job sets SLFWD_FUZZ_ITERS to push the same corpus
 * through far more dynamic instructions.
 */
std::uint64_t
fuzzIterations()
{
    if (const char *e = std::getenv("SLFWD_FUZZ_ITERS"))
        return std::strtoull(e, nullptr, 10);
    return 150;
}

/**
 * Generate a deterministic random program: a counted loop whose body
 * is a random mix of aliasing stores/loads (8-byte granularity, mixed
 * access sizes within a slot), ALU dataflow between r2..r9, and
 * short forward branches guarding stores (wrong-path store pressure).
 * r0 stays zero; r1 holds the slot base; r10/r11 drive the loop.
 */
Program
randomProgram(std::uint64_t seed, std::uint64_t iterations)
{
    Rng rng(seed);
    ProgramBuilder b("fuzz_" + std::to_string(seed), WorkloadClass::Int);

    b.movi(1, kBase);
    for (RegIndex r = 2; r <= 9; ++r)
        b.movi(r, static_cast<std::int64_t>(rng.next() & 0xffffff));

    // Pre-fill the slots so the first loads read defined data.
    for (unsigned s = 0; s < kSlots; ++s)
        b.poke64(static_cast<Addr>(kBase) + 8 * s, rng.next());

    b.movi(10, 0);
    b.movi(11, static_cast<std::int64_t>(iterations));
    Label top = b.newLabel();
    b.bind(top);

    const unsigned body_ops = 8 + unsigned(rng.below(16));
    for (unsigned i = 0; i < body_ops; ++i) {
        const RegIndex dst = RegIndex(2 + rng.below(8));
        const RegIndex a = RegIndex(2 + rng.below(8));
        const RegIndex c = RegIndex(2 + rng.below(8));
        const std::int64_t disp = 8 * std::int64_t(rng.below(kSlots));
        switch (rng.below(10)) {
          case 0:
          case 1:
            b.st8(a, 1, disp);
            break;
          case 2:
            // Mixed-size store into an 8-byte slot: exercises the
            // SFC's partial-match path against the same-slot ld8s.
            b.st4(a, 1, disp);
            break;
          case 3:
          case 4:
            b.ld8(dst, 1, disp);
            break;
          case 5:
            b.ld4(dst, 1, disp);
            break;
          case 6: {
            // A store guarded by a data-dependent branch: mispredicted
            // iterations execute it on the wrong path, planting the
            // Section 2.3 corruption scenario at a shared slot.
            Label skip = b.newLabel();
            b.andi(dst, a, 1);
            b.bne(dst, 0, skip);
            b.st8(c, 1, disp);
            b.bind(skip);
            break;
          }
          case 7:
            b.add(dst, a, c);
            break;
          case 8:
            b.xor_(dst, a, c);
            break;
          default:
            b.mul(dst, a, c);
            break;
        }
    }

    b.addi(10, 10, 1);
    b.blt(10, 11, top);
    b.halt();
    return b.build();
}

/**
 * A squash-heavy variant of randomProgram: most body operations are
 * stores guarded by a branch on the loop counter's low bit, so the
 * guard alternates taken/not-taken every iteration and mispredicts
 * constantly. Each mispredict squashes from the branch's successor —
 * i.e. exactly at the guarded store's sequence number — so the
 * partial-flush `from` endpoint and the store's allocation seq
 * coincide, stressing the inclusive/exclusive boundary handling in
 * Sfc::partialFlush, StoreFifo::squashFrom and the MDT scavenger.
 * Every wrong-path store aliases a slot a following load reads back.
 */
Program
squashBiasedProgram(std::uint64_t seed, std::uint64_t iterations)
{
    Rng rng(seed);
    ProgramBuilder b("fuzzsq_" + std::to_string(seed),
                     WorkloadClass::Int);

    b.movi(1, kBase);
    for (RegIndex r = 2; r <= 9; ++r)
        b.movi(r, static_cast<std::int64_t>(rng.next() & 0xffffff));
    for (unsigned s = 0; s < kSlots; ++s)
        b.poke64(static_cast<Addr>(kBase) + 8 * s, rng.next());

    b.movi(10, 0);
    b.movi(11, static_cast<std::int64_t>(iterations));
    Label top = b.newLabel();
    b.bind(top);

    const unsigned body_ops = 6 + unsigned(rng.below(8));
    for (unsigned i = 0; i < body_ops; ++i) {
        const RegIndex dst = RegIndex(2 + rng.below(8));
        const RegIndex a = RegIndex(2 + rng.below(8));
        const std::int64_t disp = 8 * std::int64_t(rng.below(kSlots));
        switch (rng.below(4)) {
          case 0: {
            // The boundary pattern: guard alternates on the counter's
            // low bit, the store is the first instruction younger than
            // the branch, and the same slot is read straight after.
            Label skip = b.newLabel();
            b.andi(dst, 10, 1);
            b.bne(dst, 0, skip);
            b.st8(a, 1, disp);
            b.bind(skip);
            b.ld8(dst, 1, disp);
            break;
          }
          case 1:
            b.st4(a, 1, disp);
            break;
          case 2:
            b.ld8(dst, 1, disp);
            break;
          default:
            b.add(dst, a, RegIndex(2 + rng.below(8)));
            break;
        }
    }

    b.addi(10, 10, 1);
    b.blt(10, 11, top);
    b.halt();
    return b.build();
}

/**
 * A fence/sync-idiom and partial-overlap-forwarding variant.
 *
 * The ISA has no fence instruction, so the generator emits the idiom a
 * fence-free machine uses instead: flag-handoff acquire. A publish
 * sequence stores a payload word then sets a one-byte flag; an acquire
 * sequence loads the flag and guards the payload load behind a
 * data-dependent branch on it, making the payload load
 * control-dependent on the synchronization read. Mispredicted flag
 * branches hoist wrong-path payload loads that must be squashed and
 * re-forwarded without the stale value leaking into the retirement
 * stream.
 *
 * The rest of the body is partial-overlap pressure — the `partial`
 * stall/forward cases of a real LSU's disambiguation: narrow misaligned
 * loads inside a wide store's footprint (forwardable sub-range), wide
 * loads only partially covered by a narrow store (merge-or-stall), and
 * stores straddling an 8-byte slot boundary read back from both sides.
 */
Program
syncOverlapProgram(std::uint64_t seed, std::uint64_t iterations)
{
    Rng rng(seed);
    ProgramBuilder b("fuzzsync_" + std::to_string(seed),
                     WorkloadClass::Int);

    // Flag bytes live after the payload slots in one aliasing region.
    constexpr std::int64_t kFlagOff = 8 * kSlots;

    b.movi(1, kBase);
    for (RegIndex r = 2; r <= 9; ++r)
        b.movi(r, static_cast<std::int64_t>(rng.next() & 0xffffff));
    for (unsigned s = 0; s < kSlots; ++s) {
        b.poke64(static_cast<Addr>(kBase) + 8 * s, rng.next());
        // Pre-seed flags with both parities so acquire branches split.
        b.pokeBytes(static_cast<Addr>(kBase + kFlagOff) + s,
                    rng.next() & 1, 1);
    }

    b.movi(10, 0);
    b.movi(11, static_cast<std::int64_t>(iterations));
    Label top = b.newLabel();
    b.bind(top);

    const unsigned body_ops = 6 + unsigned(rng.below(10));
    for (unsigned i = 0; i < body_ops; ++i) {
        const RegIndex dst = RegIndex(2 + rng.below(8));
        const RegIndex a = RegIndex(2 + rng.below(8));
        const unsigned slot = unsigned(rng.below(kSlots));
        const std::int64_t disp = 8 * std::int64_t(slot);
        switch (rng.below(8)) {
          case 0:
            // Publish: payload word, then the release-side flag byte.
            b.st8(a, 1, disp);
            b.st1(a, 1, kFlagOff + std::int64_t(slot));
            break;
          case 1: {
            // Acquire: load the flag, branch on it, and only then load
            // the payload — the control dependency is the sync point.
            Label skip = b.newLabel();
            b.ld1(dst, 1, kFlagOff + std::int64_t(slot));
            b.andi(dst, dst, 1);
            b.bne(dst, 0, skip);
            b.ld8(dst, 1, disp);
            b.bind(skip);
            break;
          }
          case 2:
            // Contained partial overlap: a narrow misaligned load
            // entirely inside the preceding wide store's footprint.
            b.st8(a, 1, disp);
            b.ld2(dst, 1, disp + 1 + std::int64_t(rng.below(6)));
            break;
          case 3:
            // Covering partial overlap: a wide load only partially
            // written by the narrow store (merge from cache or stall,
            // depending on partial_match_merges).
            b.st2(a, 1, disp + std::int64_t(rng.below(7)));
            b.ld8(dst, 1, disp);
            break;
          case 4:
            // Slot-straddling store read back from both sides.
            b.st4(a, 1, disp + 6);
            b.ld8(dst, 1, disp);
            if (slot + 1 < kSlots)
                b.ld2(dst, 1, disp + 8);
            break;
          case 5:
            b.ld4(dst, 1, disp + std::int64_t(rng.below(5)));
            break;
          case 6:
            b.add(dst, a, RegIndex(2 + rng.below(8)));
            break;
          default:
            b.xor_(dst, a, RegIndex(2 + rng.below(8)));
            break;
        }
    }

    b.addi(10, 10, 1);
    b.blt(10, 11, top);
    b.halt();
    return b.build();
}

/** Run @p prog under the golden checker; fail the test on divergence. */
SimResult
runChecked(MemSubsystem subsys, const Program &prog,
           std::uint64_t seed, bool partial_match_merges = true)
{
    CoreConfig cfg = CoreConfig::baseline();
    cfg.subsys = subsys;
    cfg.partial_match_merges = partial_match_merges;
    cfg.memdep.mode = subsys == MemSubsystem::MdtSfc
                          ? MemDepMode::EnforceAll
                          : MemDepMode::LsqStoreSet;
    cfg.validate = true;
    cfg.check_abort = false;   // record, so failures print structured
    const SimResult r = runWorkload(cfg, prog);

    EXPECT_TRUE(r.checker_enabled);
    EXPECT_TRUE(r.checker_clean)
        << "seed 0x" << std::hex << seed << std::dec << ": "
        << r.check_failures << " divergences; first: "
        << (r.check_reports.empty() ? std::string("<none>")
                                    : r.check_reports[0].toString());
    EXPECT_EQ(r.check_failures, 0u);
    EXPECT_GT(r.insts, 0u);
    return r;
}

/** Corpus entry @p i through the generator the tests below use for it:
 *  0..11 plain, 12..15 squash-biased, 16..19 fence/sync + overlap. */
Program
corpusProgram(std::size_t i, std::uint64_t iterations)
{
    const std::uint64_t seed = kSeedCorpus[i];
    if (i < 12)
        return randomProgram(seed, iterations);
    if (i < 16)
        return squashBiasedProgram(seed, iterations);
    return syncOverlapProgram(seed, iterations);
}

/** Tick @p prog to completion on @p cfg, asserting the core's window
 *  and scheduler invariants after every single cycle. */
void
tickWithInvariants(const CoreConfig &cfg, const Program &prog,
                   const std::string &what)
{
    OooCore core(cfg, prog);
    std::string why;
    while (core.tick()) {
        ASSERT_TRUE(core.checkInvariants(&why))
            << what << ": " << why << " at cycle " << core.cycles();
    }
    ASSERT_TRUE(core.checkInvariants(&why)) << what << ": " << why;
    EXPECT_TRUE(core.finished()) << what;
}

} // namespace

TEST(FuzzDifferential, MdtSfcAndLsqMatchFunctionalSim)
{
    for (std::uint64_t seed : kSeedCorpus) {
        const Program prog = randomProgram(seed, fuzzIterations());

        const SimResult mdtsfc =
            runChecked(MemSubsystem::MdtSfc, prog, seed);
        const SimResult lsq =
            runChecked(MemSubsystem::LsqBaseline, prog, seed);

        // Identical retirement streams: both subsystems retire the
        // same dynamic instruction sequence, so every retirement
        // census must agree (the per-retirement values were already
        // cross-checked against the functional simulator above).
        EXPECT_EQ(mdtsfc.insts, lsq.insts) << "seed 0x" << std::hex
                                           << seed;
        EXPECT_EQ(mdtsfc.loads_retired, lsq.loads_retired);
        EXPECT_EQ(mdtsfc.stores_retired, lsq.stores_retired);
        EXPECT_EQ(mdtsfc.branches_retired, lsq.branches_retired);
        EXPECT_EQ(mdtsfc.check_retirements, lsq.check_retirements);
    }
}

TEST(FuzzDifferential, SquashAtBoundaryBiasedSeeds)
{
    // Corpus entries 12..15 drive the squash-heavy generator:
    // alternating guarded stores make every other iteration squash at
    // the store's own sequence number, so flush `from` endpoints land
    // exactly on allocated-store seqs.
    for (std::size_t i = 12; i < 16; ++i) {
        const std::uint64_t seed = kSeedCorpus[i];
        const Program prog = squashBiasedProgram(seed, fuzzIterations());

        const SimResult mdtsfc =
            runChecked(MemSubsystem::MdtSfc, prog, seed);
        const SimResult lsq =
            runChecked(MemSubsystem::LsqBaseline, prog, seed);

        EXPECT_EQ(mdtsfc.insts, lsq.insts) << "seed 0x" << std::hex
                                           << seed;
        EXPECT_EQ(mdtsfc.loads_retired, lsq.loads_retired);
        EXPECT_EQ(mdtsfc.stores_retired, lsq.stores_retired);
        EXPECT_EQ(mdtsfc.check_retirements, lsq.check_retirements);
        // The generator only earns its name if wrong paths actually
        // happen: every mispredict squashes from the guarded store.
        EXPECT_GT(mdtsfc.mispredicts, 0u) << "seed 0x" << std::hex
                                          << seed;
    }
}

TEST(FuzzDifferential, FenceSyncAndPartialOverlapSeeds)
{
    // Corpus entries 16..19 drive the fence/sync-idiom +
    // partial-overlap generator. The SFC's partial-match policy is the
    // knob under test, so each seed runs the MDT/SFC subsystem both
    // ways — merge missing bytes from the cache, and decline the
    // forward — and both must match the functional simulator and the
    // idealized LSQ exactly.
    const std::size_t n = kSeedCorpus.size();
    for (std::size_t i = n - 4; i < n; ++i) {
        const std::uint64_t seed = kSeedCorpus[i];
        const Program prog = syncOverlapProgram(seed, fuzzIterations());

        const SimResult lsq =
            runChecked(MemSubsystem::LsqBaseline, prog, seed);
        for (bool merges : {true, false}) {
            const SimResult mdtsfc = runChecked(
                MemSubsystem::MdtSfc, prog, seed, merges);
            EXPECT_EQ(mdtsfc.insts, lsq.insts)
                << "seed 0x" << std::hex << seed << std::dec
                << " merges=" << merges;
            EXPECT_EQ(mdtsfc.loads_retired, lsq.loads_retired);
            EXPECT_EQ(mdtsfc.stores_retired, lsq.stores_retired);
            EXPECT_EQ(mdtsfc.check_retirements, lsq.check_retirements);
        }
        // The acquire idiom only stresses wrong-path loads if the flag
        // branches actually mispredict.
        const SimResult probe =
            runChecked(MemSubsystem::MdtSfc, prog, seed);
        EXPECT_GT(probe.mispredicts, 0u)
            << "seed 0x" << std::hex << seed;
    }
}

TEST(FuzzDifferential, ValueReplaySpotCheck)
{
    // The value-replay unit is slower per retirement; spot-check a
    // subset of the corpus rather than the whole set.
    for (std::uint64_t seed :
         {kSeedCorpus[0], kSeedCorpus[3], kSeedCorpus[8]}) {
        const Program prog = randomProgram(seed, fuzzIterations());
        const SimResult vr =
            runChecked(MemSubsystem::ValueReplay, prog, seed);
        const SimResult lsq =
            runChecked(MemSubsystem::LsqBaseline, prog, seed);
        EXPECT_EQ(vr.insts, lsq.insts) << "seed 0x" << std::hex << seed;
        EXPECT_EQ(vr.stores_retired, lsq.stores_retired);
    }
}

TEST(FuzzDifferential, BlockSizesGiveIdenticalFunctionalRecords)
{
    for (std::size_t i = 0; i < kSeedCorpus.size(); ++i) {
        std::ostringstream what;
        what << "corpus entry " << i << " (seed 0x" << std::hex
             << kSeedCorpus[i] << ")";
        expectBlockSizesAgree(corpusProgram(i, fuzzIterations()),
                              ~std::uint64_t{0}, what.str());
    }
}

TEST(FuzzDifferential, GeneratorIsDeterministic)
{
    for (std::uint64_t seed : {kSeedCorpus[0], kSeedCorpus[5]}) {
        const Program a = randomProgram(seed, 20);
        const Program b = randomProgram(seed, 20);
        ASSERT_EQ(a.size(), b.size());
        const SimResult ra =
            runChecked(MemSubsystem::MdtSfc, a, seed);
        const SimResult rb =
            runChecked(MemSubsystem::MdtSfc, b, seed);
        EXPECT_EQ(ra.cycles, rb.cycles);
        EXPECT_EQ(ra.insts, rb.insts);
    }
}

TEST(FuzzDifferential, SchedulerInvariantsHoldEveryCycle)
{
    // The whole fuzz corpus and every directed `.s` test, on the
    // baseline and both aggressive cores, with checkInvariants() after
    // every tick. The oracle is off (as in the micro sweep) so wrong
    // paths really execute and squash scheduler residents.
    const std::vector<MicroTest> micro = loadMicroCorpus(SLF_TEST_MICRO_DIR);
    ASSERT_FALSE(micro.empty());
    for (const char *preset : {"enf", "agg_enf", "agg_lsq120x80"}) {
        CoreConfig cfg = presetByName(preset);
        cfg.oracle_fix_prob = 0.0;
        for (std::size_t i = 0; i < kSeedCorpus.size(); ++i) {
            std::ostringstream what;
            what << preset << " seed 0x" << std::hex << kSeedCorpus[i];
            tickWithInvariants(cfg, corpusProgram(i, fuzzIterations()),
                               what.str());
        }
        for (const MicroTest &t : micro)
            tickWithInvariants(cfg, t.unit.prog,
                               std::string(preset) + " " + t.name);
    }
}
