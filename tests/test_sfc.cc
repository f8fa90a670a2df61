/** @file Unit tests for the Store Forwarding Cache. */

#include <gtest/gtest.h>

#include "core/sfc.hh"
#include "sim/logging.hh"

using namespace slf;

namespace
{

SfcParams
smallParams()
{
    SfcParams p;
    p.sets = 8;
    p.assoc = 2;
    return p;
}

} // namespace

TEST(Sfc, MissWhenEmpty)
{
    Sfc sfc(smallParams());
    const SfcLoadResult r = sfc.loadRead(0x100, 8);
    EXPECT_EQ(r.status, SfcLoadResult::Status::Miss);
}

TEST(Sfc, FullMatchForwardsStoreValue)
{
    Sfc sfc(smallParams());
    EXPECT_EQ(sfc.storeWrite(0x100, 8, 0x1122334455667788ull, 5),
              SfcStoreResult::Ok);
    const SfcLoadResult r = sfc.loadRead(0x100, 8);
    EXPECT_EQ(r.status, SfcLoadResult::Status::Full);
    EXPECT_EQ(r.value, 0x1122334455667788ull);
    EXPECT_EQ(r.valid_mask, 0xff);
}

TEST(Sfc, SubwordStoreGivesPartialMatch)
{
    Sfc sfc(smallParams());
    sfc.storeWrite(0x100, 2, 0xbeef, 5);
    const SfcLoadResult r = sfc.loadRead(0x100, 8);
    EXPECT_EQ(r.status, SfcLoadResult::Status::Partial);
    EXPECT_EQ(r.valid_mask, 0x03);
    EXPECT_EQ(r.value, 0xbeefu);
}

TEST(Sfc, SubwordLoadFullyCoveredByWiderStore)
{
    Sfc sfc(smallParams());
    sfc.storeWrite(0x100, 8, 0x1122334455667788ull, 5);
    const SfcLoadResult r = sfc.loadRead(0x104, 2);
    EXPECT_EQ(r.status, SfcLoadResult::Status::Full);
    EXPECT_EQ(r.value, 0x3344u);
}

TEST(Sfc, CumulativeValueFromMultipleStores)
{
    // The SFC keeps a single merged value per word (no renaming).
    Sfc sfc(smallParams());
    sfc.storeWrite(0x100, 4, 0xaaaaaaaa, 5);
    sfc.storeWrite(0x104, 4, 0xbbbbbbbb, 6);
    const SfcLoadResult r = sfc.loadRead(0x100, 8);
    EXPECT_EQ(r.status, SfcLoadResult::Status::Full);
    EXPECT_EQ(r.value, 0xbbbbbbbbaaaaaaaaull);
}

TEST(Sfc, YoungerStoreOverwritesInPlace)
{
    Sfc sfc(smallParams());
    sfc.storeWrite(0x100, 8, 0x1111, 5);
    sfc.storeWrite(0x100, 8, 0x2222, 7);
    const SfcLoadResult r = sfc.loadRead(0x100, 8);
    EXPECT_EQ(r.value, 0x2222u);
}

TEST(Sfc, UnalignedStoreSpansTwoWords)
{
    Sfc sfc(smallParams());
    sfc.storeWrite(0x104, 8, 0x1122334455667788ull, 5);
    const SfcLoadResult lo = sfc.loadRead(0x104, 4);
    EXPECT_EQ(lo.status, SfcLoadResult::Status::Full);
    EXPECT_EQ(lo.value, 0x55667788u);
    const SfcLoadResult hi = sfc.loadRead(0x108, 4);
    EXPECT_EQ(hi.status, SfcLoadResult::Status::Full);
    EXPECT_EQ(hi.value, 0x11223344u);
}

TEST(Sfc, PartialFlushMarksValidBytesCorrupt)
{
    Sfc sfc(smallParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 0x1234, 5);
    sfc.partialFlush();
    const SfcLoadResult r = sfc.loadRead(0x100, 8);
    EXPECT_EQ(r.status, SfcLoadResult::Status::Corrupt);
}

TEST(Sfc, StoreAfterFlushCleansItsBytes)
{
    Sfc sfc(smallParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 0x1234, 5);
    sfc.partialFlush();
    sfc.storeWrite(0x100, 4, 0x9999, 8);   // cleans bytes 0..3 only
    EXPECT_EQ(sfc.loadRead(0x100, 4).status, SfcLoadResult::Status::Full);
    EXPECT_EQ(sfc.loadRead(0x104, 4).status,
              SfcLoadResult::Status::Corrupt);
}

TEST(Sfc, CorruptBeatsPartialAndFull)
{
    Sfc sfc(smallParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 4, 0x1, 5);
    sfc.partialFlush();
    sfc.storeWrite(0x104, 4, 0x2, 6);
    // Bytes 0-3 corrupt, 4-7 valid: an 8-byte load must see Corrupt.
    EXPECT_EQ(sfc.loadRead(0x100, 8).status,
              SfcLoadResult::Status::Corrupt);
}

TEST(Sfc, FullFlushDiscardsEverything)
{
    Sfc sfc(smallParams());
    sfc.storeWrite(0x100, 8, 0x1234, 5);
    sfc.fullFlush();
    EXPECT_EQ(sfc.loadRead(0x100, 8).status, SfcLoadResult::Status::Miss);
    EXPECT_EQ(sfc.validEntries(), 0u);
}

TEST(Sfc, RetireOfYoungestWriterFreesEntry)
{
    Sfc sfc(smallParams());
    sfc.storeWrite(0x100, 8, 0x1111, 5);
    sfc.storeWrite(0x100, 8, 0x2222, 7);
    sfc.retireStore(0x100, 8, 5);   // older writer: entry must survive
    EXPECT_EQ(sfc.loadRead(0x100, 8).status, SfcLoadResult::Status::Full);
    sfc.retireStore(0x100, 8, 7);   // youngest writer: entry freed
    EXPECT_EQ(sfc.loadRead(0x100, 8).status, SfcLoadResult::Status::Miss);
}

TEST(Sfc, SetConflictWhenWaysExhausted)
{
    Sfc sfc(smallParams());   // 8 sets: words 64 bytes apart share a set
    sfc.setOldestInflight(1);
    EXPECT_EQ(sfc.storeWrite(0x000, 8, 1, 5), SfcStoreResult::Ok);
    EXPECT_EQ(sfc.storeWrite(0x040, 8, 2, 6), SfcStoreResult::Ok);
    EXPECT_EQ(sfc.storeWrite(0x080, 8, 3, 7), SfcStoreResult::Conflict);
    EXPECT_EQ(sfc.statValue(obs::SfcStat::SetConflicts), 1u);
}

TEST(Sfc, ConflictScavengesDeadEntries)
{
    Sfc sfc(smallParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x000, 8, 1, 5);
    sfc.storeWrite(0x040, 8, 2, 6);
    // Writers 5 and 6 are now gone (squashed or retired long ago).
    sfc.setOldestInflight(10);
    EXPECT_EQ(sfc.storeWrite(0x080, 8, 3, 11), SfcStoreResult::Ok);
}

TEST(Sfc, CorruptEntryClearsOnceWritersDrain)
{
    // Section 2.3's example: the corrupt entry stays corrupt while its
    // (canceled) youngest writer could still be in flight, then clears.
    Sfc sfc(smallParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0xb000, 8, 0xa1a1, 5);   // store [1]
    sfc.storeWrite(0xb000, 8, 0xb2b2, 9);   // wrong-path store [3]
    sfc.partialFlush();                     // [3] canceled
    EXPECT_EQ(sfc.loadRead(0xb000, 8).status,
              SfcLoadResult::Status::Corrupt);
    // Store [1] retires (not the youngest writer: entry stays corrupt).
    sfc.retireStore(0xb000, 8, 5);
    sfc.setOldestInflight(6);
    EXPECT_EQ(sfc.loadRead(0xb000, 8).status,
              SfcLoadResult::Status::Corrupt);
    // Once the oldest in-flight instruction passes the canceled writer,
    // the entry is provably dead and the load can go to the cache.
    sfc.setOldestInflight(10);
    EXPECT_EQ(sfc.loadRead(0xb000, 8).status, SfcLoadResult::Status::Miss);
}

TEST(Sfc, MarkCorruptPoisonsExistingEntry)
{
    Sfc sfc(smallParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 0x1234, 5);
    sfc.markCorrupt(0x100, 4);
    EXPECT_EQ(sfc.loadRead(0x100, 4).status,
              SfcLoadResult::Status::Corrupt);
    EXPECT_EQ(sfc.loadRead(0x104, 4).status, SfcLoadResult::Status::Full);
}

TEST(Sfc, MarkCorruptIgnoresAbsentEntries)
{
    Sfc sfc(smallParams());
    sfc.markCorrupt(0x500, 8);
    EXPECT_EQ(sfc.loadRead(0x500, 8).status, SfcLoadResult::Status::Miss);
}

TEST(Sfc, DisjointSubwordStoresDoNotInteract)
{
    Sfc sfc(smallParams());
    sfc.storeWrite(0x100, 1, 0xaa, 5);
    sfc.storeWrite(0x103, 1, 0xbb, 6);
    const SfcLoadResult r = sfc.loadRead(0x100, 4);
    EXPECT_EQ(r.status, SfcLoadResult::Status::Partial);
    EXPECT_EQ(r.valid_mask, 0b1001);
    EXPECT_EQ(r.value, 0xbb0000aau);
}

TEST(Sfc, LoadOfUntouchedBytesInLiveWordMisses)
{
    Sfc sfc(smallParams());
    sfc.storeWrite(0x100, 4, 0x1, 5);
    // Bytes 4..7 of the word were never stored: that's a miss.
    EXPECT_EQ(sfc.loadRead(0x104, 4).status, SfcLoadResult::Status::Miss);
}

TEST(Sfc, StatsCountEvents)
{
    Sfc sfc(smallParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 1, 5);
    sfc.loadRead(0x100, 8);
    sfc.loadRead(0x200, 8);
    sfc.storeWrite(0x100, 4, 2, 6);
    sfc.loadRead(0x104, 8);    // partial (bytes 4..7 valid from seq 5...
                               // actually full; use fresh addr)
    sfc.partialFlush();
    sfc.loadRead(0x100, 8);
    EXPECT_EQ(sfc.statValue(obs::SfcStat::StoreWrites), 2u);
    EXPECT_EQ(sfc.statValue(obs::SfcStat::LoadReads), 4u);
    EXPECT_GE(sfc.statValue(obs::SfcStat::FullMatches), 1u);
    EXPECT_EQ(sfc.statValue(obs::SfcStat::PartialFlushes), 1u);
    EXPECT_EQ(sfc.statValue(obs::SfcStat::CorruptHits), 1u);
}

TEST(Sfc, RejectsBadGeometry)
{
    SfcParams p;
    p.sets = 3;
    EXPECT_THROW(Sfc s(p), FatalError);
    p.sets = 8;
    p.assoc = 0;
    EXPECT_THROW(Sfc s(p), FatalError);
}

class SfcSizeSweep : public ::testing::TestWithParam<std::uint64_t>
{};

TEST_P(SfcSizeSweep, RoundTripAcrossWholeCapacity)
{
    SfcParams p;
    p.sets = GetParam();
    p.assoc = 2;
    Sfc sfc(p);
    const std::uint64_t entries = p.sets * p.assoc;
    for (std::uint64_t i = 0; i < entries; ++i) {
        ASSERT_EQ(sfc.storeWrite(i * 8, 8, i + 1, 100 + i),
                  SfcStoreResult::Ok);
    }
    EXPECT_EQ(sfc.validEntries(), entries);
    for (std::uint64_t i = 0; i < entries; ++i) {
        const SfcLoadResult r = sfc.loadRead(i * 8, 8);
        ASSERT_EQ(r.status, SfcLoadResult::Status::Full);
        ASSERT_EQ(r.value, i + 1);
    }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SfcSizeSweep,
                         ::testing::Values(1u, 8u, 128u, 512u));

// ---------------------------------------------------------------------
// Flush-endpoint mode (the Section 3.2 alternative to corruption bits).
// ---------------------------------------------------------------------

namespace
{

SfcParams
endpointParams()
{
    SfcParams p;
    p.sets = 8;
    p.assoc = 2;
    p.use_flush_endpoints = true;
    p.max_flush_ranges = 4;
    return p;
}

} // namespace

TEST(SfcFlushEndpoints, CanceledWriterBlocksForwarding)
{
    Sfc sfc(endpointParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 0x1234, 5);
    sfc.partialFlush(/*from*/ 4, /*to*/ 10);   // writer 5 canceled
    EXPECT_EQ(sfc.loadRead(0x100, 8).status,
              SfcLoadResult::Status::Corrupt);
}

TEST(SfcFlushEndpoints, SurvivingWriterStillForwards)
{
    Sfc sfc(endpointParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 0x1234, 5);
    sfc.partialFlush(/*from*/ 8, /*to*/ 20);   // writer 5 survives
    const SfcLoadResult r = sfc.loadRead(0x100, 8);
    EXPECT_EQ(r.status, SfcLoadResult::Status::Full);
    EXPECT_EQ(r.value, 0x1234u);
}

TEST(SfcFlushEndpoints, MidRangeCanceledWriterDetected)
{
    // An elder live store and a canceled mid-range store both wrote the
    // entry; a younger live store then rewrites some bytes. The check
    // must span the whole writer range, not just the youngest writer.
    Sfc sfc(endpointParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 0x1111, 5);    // live elder
    sfc.storeWrite(0x104, 4, 0x2222, 9);    // canceled soon
    sfc.partialFlush(/*from*/ 8, /*to*/ 12);
    sfc.storeWrite(0x100, 2, 0x33, 15);     // live younger rewrite
    EXPECT_EQ(sfc.loadRead(0x104, 4).status,
              SfcLoadResult::Status::Corrupt);
}

TEST(SfcFlushEndpoints, RangeExpiresOnceWritersDrain)
{
    Sfc sfc(endpointParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 0x1234, 5);
    sfc.partialFlush(4, 10);
    sfc.setOldestInflight(11);
    // The range expires at the next flush bookkeeping; the dead entry
    // itself is scavenged on access, so the load falls through to the
    // cache hierarchy.
    EXPECT_EQ(sfc.loadRead(0x100, 8).status, SfcLoadResult::Status::Miss);
}

TEST(SfcFlushEndpoints, RangeOverflowMergesConservatively)
{
    SfcParams p = endpointParams();
    p.max_flush_ranges = 1;
    Sfc sfc(p);
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 0x1, 50);
    sfc.partialFlush(2, 4);
    sfc.partialFlush(100, 120);   // overflow: merged to [2, 120]
    EXPECT_EQ(sfc.loadRead(0x100, 8).status,
              SfcLoadResult::Status::Corrupt);
}

TEST(SfcFlushEndpoints, FullFlushDropsRanges)
{
    Sfc sfc(endpointParams());
    sfc.setOldestInflight(1);
    sfc.partialFlush(2, 1000);
    sfc.fullFlush();
    sfc.storeWrite(0x100, 8, 0x7, 500);
    EXPECT_EQ(sfc.loadRead(0x100, 8).status, SfcLoadResult::Status::Full);
}

// ---------------------------------------------------------------------
// Flush-range boundary sequence numbers. A squash from seq S cancels
// every store with seq >= S, and the recorded range is inclusive at
// both ends: a writer whose seq lands exactly on `from` or exactly on
// `to` was canceled and must block forwarding.
// ---------------------------------------------------------------------

TEST(SfcFlushEndpoints, WriterAtRangeFromIsCanceled)
{
    Sfc sfc(endpointParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 0x1234, 5);
    sfc.partialFlush(/*from*/ 5, /*to*/ 9);   // seq == from: canceled
    EXPECT_EQ(sfc.loadRead(0x100, 8).status,
              SfcLoadResult::Status::Corrupt);
}

TEST(SfcFlushEndpoints, WriterAtRangeToIsCanceled)
{
    Sfc sfc(endpointParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 0x1234, 5);
    sfc.partialFlush(/*from*/ 2, /*to*/ 5);   // seq == to: canceled
    EXPECT_EQ(sfc.loadRead(0x100, 8).status,
              SfcLoadResult::Status::Corrupt);
}

TEST(SfcFlushEndpoints, SingleSeqRangeCancelsExactlyThatWriter)
{
    Sfc sfc(endpointParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 0x1111, 5);
    sfc.storeWrite(0x200, 8, 0x2222, 6);
    sfc.partialFlush(/*from*/ 5, /*to*/ 5);   // degenerate [5, 5] range
    EXPECT_EQ(sfc.loadRead(0x100, 8).status,
              SfcLoadResult::Status::Corrupt);
    // The adjacent-seq writer is untouched by the degenerate range.
    const SfcLoadResult r = sfc.loadRead(0x200, 8);
    EXPECT_EQ(r.status, SfcLoadResult::Status::Full);
    EXPECT_EQ(r.value, 0x2222u);
}

TEST(SfcFlushEndpoints, OneOffRangesSpareTheWriter)
{
    Sfc sfc(endpointParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 0x1234, 5);
    sfc.partialFlush(/*from*/ 6, /*to*/ 9);   // just above: survives
    sfc.partialFlush(/*from*/ 2, /*to*/ 4);   // just below: survives
    const SfcLoadResult r = sfc.loadRead(0x100, 8);
    EXPECT_EQ(r.status, SfcLoadResult::Status::Full);
    EXPECT_EQ(r.value, 0x1234u);
}

TEST(SfcFlushEndpoints, OutOfOrderWriterWidensRangeCheckDownward)
{
    // Stores execute out of order: an older store (seq 7) writes the
    // entry after a younger one (seq 10). first_store_seq must track the
    // minimum, so a flush range touching only the older writer's seq
    // still blocks forwarding.
    Sfc sfc(endpointParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 0xaaaa, 10);
    sfc.storeWrite(0x100, 4, 0xbbbb, 7);
    sfc.partialFlush(/*from*/ 7, /*to*/ 7);   // exactly the older writer
    EXPECT_EQ(sfc.loadRead(0x100, 8).status,
              SfcLoadResult::Status::Corrupt);
}

TEST(SfcFlushEndpoints, FreshEntrySeqBoundsIgnoreSentinel)
{
    // kInvalidSeqNum is 0: a freshly allocated entry must not leave a
    // zero first_store_seq behind, or the writer range would look like
    // [0, seq] and intersect every low flush range.
    Sfc sfc(endpointParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 0x1234, 100);
    sfc.partialFlush(/*from*/ 1, /*to*/ 50);   // below the only writer
    const SfcLoadResult r = sfc.loadRead(0x100, 8);
    EXPECT_EQ(r.status, SfcLoadResult::Status::Full);
    EXPECT_EQ(r.value, 0x1234u);
}

TEST(Sfc, MaskModeFlushCorruptsBoundarySeqWriters)
{
    // Corruption-mask mode takes the conservative route: a partial flush
    // poisons every valid byte, so writers sitting exactly on the squash
    // endpoints are (trivially) treated as canceled too.
    Sfc sfc(smallParams());
    sfc.setOldestInflight(1);
    sfc.storeWrite(0x100, 8, 0x1111, 5);   // seq == from
    sfc.storeWrite(0x200, 8, 0x2222, 9);   // seq == to
    sfc.partialFlush(/*from*/ 5, /*to*/ 9);
    EXPECT_EQ(sfc.loadRead(0x100, 8).status,
              SfcLoadResult::Status::Corrupt);
    EXPECT_EQ(sfc.loadRead(0x200, 8).status,
              SfcLoadResult::Status::Corrupt);
}

// ---------------------------------------------------------------------
// Sequence numbers far up the 64-bit range. SeqNums are never recycled,
// so long campaigns push them arbitrarily high; the min/max updates on
// first/last_store_seq and the scavenge compare must stay exact there.
// ---------------------------------------------------------------------

TEST(Sfc, HugeSeqNumbersTrackFirstAndLastWriters)
{
    constexpr SeqNum kBig = ~SeqNum{0} - 16;
    Sfc sfc(endpointParams());
    sfc.setOldestInflight(kBig - 8);
    sfc.storeWrite(0x100, 8, 0xaaaa, kBig + 4);
    sfc.storeWrite(0x100, 8, 0xbbbb, kBig);       // older, out of order
    // Range below both writers: forwarding must survive.
    sfc.partialFlush(kBig - 4, kBig - 1);
    EXPECT_EQ(sfc.loadRead(0x100, 8).status, SfcLoadResult::Status::Full);
    // Range clipping exactly the oldest writer: canceled.
    sfc.partialFlush(kBig, kBig);
    EXPECT_EQ(sfc.loadRead(0x100, 8).status,
              SfcLoadResult::Status::Corrupt);
}

TEST(Sfc, HugeSeqEntryScavengesOnceWritersDrain)
{
    constexpr SeqNum kBig = ~SeqNum{0} - 16;
    Sfc sfc(smallParams());
    sfc.setOldestInflight(kBig - 8);
    sfc.storeWrite(0x100, 8, 0x1234, kBig);
    EXPECT_EQ(sfc.loadRead(0x100, 8).status, SfcLoadResult::Status::Full);
    sfc.setOldestInflight(kBig + 1);   // writer is now dead
    EXPECT_EQ(sfc.loadRead(0x100, 8).status, SfcLoadResult::Status::Miss);
}
