/**
 * @file
 * Golden-checker and fault-injection tests: the structure-level fault
 * hooks, the absorption guarantee for SFC faults (the defended class),
 * detection of store-FIFO payload corruption, and both progress
 * watchdogs.
 */

#include <gtest/gtest.h>

#include "core/mdt.hh"
#include "core/sfc.hh"
#include "core/store_fifo.hh"
#include "cpu/ooo_core.hh"
#include "driver/runner.hh"
#include "sim/logging.hh"
#include "sim/rng.hh"
#include "workloads/workloads.hh"

using namespace slf;

namespace
{

CoreConfig
faultCfg()
{
    CoreConfig cfg = CoreConfig::baseline();
    cfg.subsys = MemSubsystem::MdtSfc;
    // Record divergences instead of panicking so campaigns can count.
    cfg.check_abort = false;
    return cfg;
}

} // namespace

// ---------------------------------------------------------------------
// Structure-level fault hooks
// ---------------------------------------------------------------------

TEST(SfcFaultHooks, InjectOnEmptySfcDoesNothing)
{
    Sfc sfc(SfcParams{});
    Rng rng(1);
    EXPECT_FALSE(sfc.injectCorruptMask(rng));
    EXPECT_FALSE(sfc.injectDataClobber(rng, 0xa5));
}

TEST(SfcFaultHooks, CorruptMaskPoisoningForcesLoadReplay)
{
    Sfc sfc(SfcParams{});
    Rng rng(1);
    ASSERT_EQ(sfc.storeWrite(0x1000, 8, 0x1122334455667788ull, 10),
              SfcStoreResult::Ok);
    ASSERT_EQ(sfc.loadRead(0x1000, 8).status, SfcLoadResult::Status::Full);

    EXPECT_TRUE(sfc.injectCorruptMask(rng));
    // Every in-flight byte is now flagged corrupt: the load must replay.
    EXPECT_EQ(sfc.loadRead(0x1000, 8).status,
              SfcLoadResult::Status::Corrupt);
}

TEST(SfcFaultHooks, DataClobberSetsTheCorruptBit)
{
    Sfc sfc(SfcParams{});
    Rng rng(7);
    ASSERT_EQ(sfc.storeWrite(0x2000, 8, 0, 20), SfcStoreResult::Ok);

    EXPECT_TRUE(sfc.injectDataClobber(rng, 0x5a));
    // The clobbered byte carries its corrupt bit, so any load covering
    // it replays rather than consuming the wrong data.
    EXPECT_EQ(sfc.loadRead(0x2000, 8).status,
              SfcLoadResult::Status::Corrupt);
}

TEST(MdtFaultHooks, InjectEvictionFreesOneEntry)
{
    Mdt mdt(MdtParams{});
    Rng rng(3);
    EXPECT_FALSE(mdt.injectEviction(rng));

    mdt.accessStore(0x1000, 8, 5, 100);
    mdt.accessLoad(0x2000, 8, 6, 101);
    ASSERT_EQ(mdt.validEntries(), 2u);

    EXPECT_TRUE(mdt.injectEviction(rng));
    EXPECT_EQ(mdt.validEntries(), 1u);
    EXPECT_TRUE(mdt.injectEviction(rng));
    EXPECT_EQ(mdt.validEntries(), 0u);
    EXPECT_FALSE(mdt.injectEviction(rng));
}

TEST(StoreFifoFaultHooks, CorruptHeadPayloadFlipsTheValue)
{
    StoreFifo fifo(4);
    EXPECT_FALSE(fifo.corruptHeadPayload(1));   // empty

    ASSERT_TRUE(fifo.allocate(1));
    EXPECT_FALSE(fifo.corruptHeadPayload(1));   // allocated but not filled

    fifo.fill(1, 0x3000, 8, 0xdeadbeefull);
    EXPECT_TRUE(fifo.corruptHeadPayload(0xf1));
    EXPECT_EQ(fifo.head().value, 0xdeadbeefull ^ 0xf1);
    EXPECT_EQ(fifo.stats().counterValue("payload_faults"), 1u);

    const StoreFifo::Slot slot = fifo.retireHead(1);
    EXPECT_EQ(slot.value, 0xdeadbeefull ^ 0xf1);
}

TEST(FaultInjectorTest, StoreRetireMaskAlwaysChangesTheValue)
{
    FaultInjectParams p;
    p.fifo_payload_rate = 1.0;
    FaultInjector fi(p);
    for (unsigned size = 1; size <= 8; ++size) {
        const std::uint64_t mask = fi.onStoreRetire(size);
        EXPECT_EQ(mask & 1, 1u) << "bit 0 must be set (size " << size << ")";
        if (size < 8) {
            EXPECT_EQ(mask >> (8 * size), 0u) << "mask exceeds store width";
        }
    }
    EXPECT_EQ(fi.fifoPayloadFaults(), 8u);

    FaultInjectParams off;
    FaultInjector none(off);
    EXPECT_EQ(none.onStoreRetire(8), 0u);
}

// ---------------------------------------------------------------------
// Campaign phases as unit tests
// ---------------------------------------------------------------------

TEST(GoldenCheckerCampaign, CleanRunChecksEveryRetirementAndFinalMemory)
{
    CoreConfig cfg = faultCfg();
    const Program prog = workloads::microForwardChain(2000);
    const SimResult r = runWorkload(cfg, prog);

    EXPECT_TRUE(r.checker_enabled);
    EXPECT_TRUE(r.checker_clean);
    EXPECT_EQ(r.check_failures, 0u);
    EXPECT_EQ(r.check_retirements, r.insts);
    EXPECT_TRUE(r.check_reports.empty());
}

TEST(GoldenCheckerCampaign, SfcFaultsAreAbsorbedByTheCorruptionMachinery)
{
    // Corrupt-mask poisoning and data clobbers model the fault class the
    // paper's design defends against (canceled-store corruption): the
    // per-byte corrupt check must turn every one into a replay, never an
    // architectural divergence.
    CoreConfig cfg = faultCfg();
    cfg.fault.sfc_mask_rate = 0.01;
    cfg.fault.sfc_data_rate = 0.01;
    const Program prog = workloads::microForwardChain(4000);
    const SimResult r = runWorkload(cfg, prog);

    EXPECT_GT(r.faults_sfc_mask + r.faults_sfc_data, 0u);
    EXPECT_EQ(r.check_failures, 0u)
        << "SFC fault escaped the corruption machinery";
    EXPECT_GT(r.load_replays_sfc_corrupt, 0u)
        << "injected corruption never exercised the replay path";
}

TEST(GoldenCheckerCampaign, FifoPayloadFaultsAreAllDetected)
{
    CoreConfig cfg = faultCfg();
    cfg.fault.fifo_payload_rate = 0.01;
    const Program prog = workloads::microStreaming(2000);
    const SimResult r = runWorkload(cfg, prog);

    ASSERT_GT(r.faults_fifo_payload, 0u);
    // Every drained-slot corruption commits wrong bytes; the committed-
    // store cross-check catches each one at that store's retirement.
    EXPECT_GE(r.check_store_commit_failures, r.faults_fifo_payload);
    EXPECT_GE(r.check_failures, r.check_store_commit_failures);
    EXPECT_FALSE(r.checker_clean);
    ASSERT_FALSE(r.check_reports.empty());

    const CheckFailure &f = r.check_reports.front();
    EXPECT_EQ(f.kind, CheckFailure::Kind::StoreCommit);
    EXPECT_NE(f.expected, f.actual);
    EXPECT_FALSE(f.golden_state.empty());
    EXPECT_FALSE(f.toString().empty());
}

TEST(GoldenCheckerCampaign, MdtEvictionFaultsRunToCompletion)
{
    // Early MDT evictions erase ordering records; escapes (if the window
    // timing lines up) surface as checker divergences rather than silent
    // corruption. Either way the run must terminate and be counted.
    CoreConfig cfg = faultCfg();
    cfg.fault.mdt_evict_rate = 0.01;
    const Program prog = workloads::microTrueViolations(1000);
    const SimResult r = runWorkload(cfg, prog);

    EXPECT_GT(r.faults_mdt_evict, 0u);
    EXPECT_EQ(r.check_retirements, r.insts);
}

TEST(GoldenCheckerCampaign, FaultCampaignIsDeterministic)
{
    CoreConfig cfg = faultCfg();
    cfg.fault.fifo_payload_rate = 0.005;
    cfg.fault.sfc_mask_rate = 0.005;
    const Program prog = workloads::microStreaming(1000);
    const SimResult a = runWorkload(cfg, prog);
    const SimResult b = runWorkload(cfg, prog);
    EXPECT_EQ(a.check_failures, b.check_failures);
    EXPECT_EQ(a.faults_fifo_payload, b.faults_fifo_payload);
    EXPECT_EQ(a.faults_sfc_mask, b.faults_sfc_mask);
    EXPECT_EQ(a.cycles, b.cycles);
}

TEST(GoldenCheckerCampaign, DivergenceReportTextIsPinned)
{
    // The full report text of injected divergences, `golden:` state line
    // and squash history included, byte for byte: the golden-model state
    // must be the architectural state right after the diverging
    // instruction, however the checker obtains it.
    CoreConfig cfg = faultCfg();
    cfg.fault.mdt_evict_rate = 0.01;
    const SimResult mdt =
        runWorkload(cfg, workloads::microCorruptionExample(300));
    EXPECT_EQ(mdt.check_failures, 739u);
    ASSERT_EQ(mdt.check_reports.size(), GoldenChecker::kMaxReports);
    EXPECT_EQ(mdt.check_reports.front().toString(),
              "golden-model divergence (result): seq 30 pc 0xc cycle 238 "
              "(ld8 r3, 0(r2)) expected 0x14353 actual 0xa1a1 addr "
              "0x20b000\n"
              "  golden: pc=0xd retired=30 r1=0x154e24a0a456e968 "
              "r2=0x20b000 r3=0x14353 r4=0x1 r5=0x14353 r6=0xb2b2 "
              "r7=0xa1a1\n"
              "  recent squashes: cycle 234 branch from seq 42 (1 insts)");
    EXPECT_EQ(mdt.check_reports.back().toString(),
              "golden-model divergence (committed store data): seq 154 pc "
              "0xb cycle 317 (st8 r5, 0(r2)) expected 0xc3358 actual "
              "0x9ac90 addr 0x20b000\n"
              "  golden: pc=0xc retired=134 r1=0xd95a66b66eb8d82e "
              "r2=0x20b000 r3=0xb8095 r4=0x0 r5=0xc3358 r6=0xb2b2 "
              "r7=0xb2b2\n"
              "  recent squashes: cycle 234 branch from seq 42 (1 insts); "
              "cycle 250 branch from seq 61 (1 insts); cycle 253 branch "
              "from seq 55 (6 insts); cycle 267 mem-violation from seq 72 "
              "(11 insts); cycle 298 branch from seq 149 (1 insts)");

    cfg.fault.mdt_evict_rate = 0;
    cfg.fault.fifo_payload_rate = 0.01;
    const SimResult fifo = runWorkload(cfg, workloads::microStreaming(300));
    EXPECT_EQ(fifo.check_failures, 5u);
    ASSERT_FALSE(fifo.check_reports.empty());
    EXPECT_EQ(fifo.check_reports.front().toString(),
              "golden-model divergence (committed store data): seq 54 pc "
              "0x8 cycle 240 (st8 r4, 0(r3)) expected 0x0 actual "
              "0x8339fc6ff338e749 addr 0x1100020\n"
              "  golden: pc=0x9 retired=53 r1=0x20 r2=0x1000020 "
              "r3=0x1100020 r4=0x0 r5=0x0 r6=0x0 r7=0x0\n"
              "  recent squashes: cycle 126 branch from seq 48 (1 insts); "
              "cycle 140 branch from seq 60 (1 insts); cycle 230 branch "
              "from seq 138 (1 insts)");
}

// ---------------------------------------------------------------------
// Watchdogs
// ---------------------------------------------------------------------

TEST(WatchdogTest, CycleCapTreatsOverrunAsWedge)
{
    CoreConfig cfg = CoreConfig::baseline();
    cfg.watchdog_max_cycles = 2000;   // far below what the loop needs
    const Program prog = workloads::microAluLoop(1'000'000);
    OooCore core(cfg, prog);
    EXPECT_THROW(core.run(), FatalError);
    EXPECT_FALSE(core.finished());
}

TEST(WatchdogTest, CycleCapMessageCarriesOccupancy)
{
    CoreConfig cfg = CoreConfig::baseline();
    cfg.watchdog_max_cycles = 2000;
    const Program prog = workloads::microAluLoop(1'000'000);
    OooCore core(cfg, prog);
    try {
        core.run();
        FAIL() << "watchdog did not fire";
    } catch (const FatalError &e) {
        const std::string msg = e.what();
        EXPECT_NE(msg.find("watchdog"), std::string::npos) << msg;
        EXPECT_NE(msg.find("rob="), std::string::npos) << msg;
        EXPECT_NE(msg.find("sched="), std::string::npos) << msg;
    }
}

TEST(WatchdogTest, RetireStallBelowThresholdSurvives)
{
    // A cold L2 miss stalls retirement for ~110 cycles; a generous
    // threshold must not trip on it.
    CoreConfig cfg = CoreConfig::baseline();
    cfg.watchdog_retire_cycles = 10'000;
    const Program prog = workloads::microForwardChain(200);
    OooCore core(cfg, prog);
    EXPECT_NO_THROW(core.run());
    EXPECT_TRUE(core.finished());
}

TEST(WatchdogTest, RetireStallAboveThresholdIsFatal)
{
    // The same cold L2 miss exceeds a 20-cycle no-retirement budget, so
    // the watchdog must kill the run with a fatal() (not a panic/abort),
    // proving a wedged configuration is catchable within the cap.
    CoreConfig cfg = CoreConfig::baseline();
    cfg.watchdog_retire_cycles = 20;
    const Program prog = workloads::microForwardChain(200);
    OooCore core(cfg, prog);
    EXPECT_THROW(core.run(), FatalError);
}

TEST(WatchdogTest, MemUnitOccupancyDumpIsPopulated)
{
    CoreConfig cfg = CoreConfig::baseline();
    const Program prog = workloads::microForwardChain(10);
    OooCore core(cfg, prog);
    core.run();
    EXPECT_NE(core.memUnit().occupancyDump().find("store_fifo="),
              std::string::npos);

    cfg.subsys = MemSubsystem::LsqBaseline;
    cfg.memdep.mode = MemDepMode::LsqStoreSet;
    OooCore lsq_core(cfg, prog);
    lsq_core.run();
    EXPECT_NE(lsq_core.memUnit().occupancyDump().find("lq="),
              std::string::npos);
}
