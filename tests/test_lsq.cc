/** @file Unit tests for the idealized LSQ baseline. */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <deque>

#include "lsq/lsq.hh"
#include "mem/main_memory.hh"
#include "sim/rng.hh"

using namespace slf;

namespace
{

struct LsqFixture : ::testing::Test
{
    LsqFixture()
        : lsq({8, 8}, [this](Addr a) { return mem.read8(a); })
    {}

    MainMemory mem;
    Lsq lsq;
};

} // namespace

TEST_F(LsqFixture, ForwardFromOlderStore)
{
    lsq.dispatchStore(1, 10);
    lsq.dispatchLoad(2, 20);
    lsq.executeStore(1, 0x100, 8, 0xdead);
    const LsqLoadResult r = lsq.executeLoad(2, 0x100, 8);
    EXPECT_EQ(r.forward_mask, 0xff);
    EXPECT_EQ(r.forward_value, 0xdeadu);
}

TEST_F(LsqFixture, NoForwardFromYoungerStore)
{
    lsq.dispatchLoad(1, 10);
    lsq.dispatchStore(2, 20);
    lsq.executeStore(2, 0x100, 8, 0xdead);
    const LsqLoadResult r = lsq.executeLoad(1, 0x100, 8);
    EXPECT_EQ(r.forward_mask, 0);
}

TEST_F(LsqFixture, AgePriorityYoungestOlderStoreWins)
{
    lsq.dispatchStore(1, 10);
    lsq.dispatchStore(2, 11);
    lsq.dispatchLoad(3, 20);
    lsq.executeStore(1, 0x100, 8, 0x1111);
    lsq.executeStore(2, 0x100, 8, 0x2222);
    const LsqLoadResult r = lsq.executeLoad(3, 0x100, 8);
    EXPECT_EQ(r.forward_value, 0x2222u);
}

TEST_F(LsqFixture, ByteAccurateForwardingAcrossStores)
{
    lsq.dispatchStore(1, 10);
    lsq.dispatchStore(2, 11);
    lsq.dispatchLoad(3, 20);
    lsq.executeStore(1, 0x100, 4, 0xaaaaaaaa);
    lsq.executeStore(2, 0x102, 2, 0xbbbb);
    const LsqLoadResult r = lsq.executeLoad(3, 0x100, 4);
    EXPECT_EQ(r.forward_mask, 0x0f);
    EXPECT_EQ(r.forward_value, 0xbbbbaaaau);
}

TEST_F(LsqFixture, PartialForwardLeavesGaps)
{
    lsq.dispatchStore(1, 10);
    lsq.dispatchLoad(2, 20);
    lsq.executeStore(1, 0x102, 2, 0xbbbb);
    const LsqLoadResult r = lsq.executeLoad(2, 0x100, 8);
    EXPECT_EQ(r.forward_mask, 0b00001100);
}

TEST_F(LsqFixture, TrueViolationDetectedByValue)
{
    lsq.dispatchStore(1, 10);
    lsq.dispatchLoad(2, 20);
    // The load runs ahead, reading committed memory (zero).
    lsq.executeLoad(2, 0x100, 8);
    lsq.loadCompleted(2, 0);
    // The older store now writes a different value: violation.
    const auto v = lsq.executeStore(1, 0x100, 8, 0x1234);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->squash_from, 2u);
    EXPECT_EQ(v->store_pc, 10u);
    EXPECT_EQ(v->load_pc, 20u);
}

TEST_F(LsqFixture, SilentStoreNotFlagged)
{
    mem.writeBytes(0x100, 0x1234, 8);
    lsq.dispatchStore(1, 10);
    lsq.dispatchLoad(2, 20);
    lsq.executeLoad(2, 0x100, 8);
    lsq.loadCompleted(2, 0x1234);
    // The store writes the value the load already obtained: silent.
    const auto v = lsq.executeStore(1, 0x100, 8, 0x1234);
    EXPECT_FALSE(v.has_value());
    EXPECT_EQ(lsq.stats().counterValue("silent_store_filtered"), 1u);
}

TEST_F(LsqFixture, InterveningStoreSuppressesViolation)
{
    lsq.dispatchStore(1, 10);
    lsq.dispatchStore(2, 11);
    lsq.dispatchLoad(3, 20);
    // The younger store executes and the load correctly forwards it.
    lsq.executeStore(2, 0x100, 8, 0x2222);
    lsq.executeLoad(3, 0x100, 8);
    lsq.loadCompleted(3, 0x2222);
    // The oldest store finally executes: the load's value is still
    // correct (store 2 intervenes), so no violation.
    const auto v = lsq.executeStore(1, 0x100, 8, 0x1111);
    EXPECT_FALSE(v.has_value());
}

TEST_F(LsqFixture, ViolationReportsEarliestConflictingLoad)
{
    lsq.dispatchStore(1, 10);
    lsq.dispatchLoad(2, 20);
    lsq.dispatchLoad(3, 21);
    lsq.executeLoad(2, 0x100, 8);
    lsq.loadCompleted(2, 0);
    lsq.executeLoad(3, 0x100, 8);
    lsq.loadCompleted(3, 0);
    const auto v = lsq.executeStore(1, 0x100, 8, 0x7);
    ASSERT_TRUE(v.has_value());
    EXPECT_EQ(v->squash_from, 2u);   // the earliest wrong load
}

TEST_F(LsqFixture, OverlapViolationOnSubword)
{
    lsq.dispatchStore(1, 10);
    lsq.dispatchLoad(2, 20);
    lsq.executeLoad(2, 0x100, 4);
    lsq.loadCompleted(2, 0);
    // A one-byte store inside the loaded range changes byte 2.
    const auto v = lsq.executeStore(1, 0x102, 1, 0x55);
    ASSERT_TRUE(v.has_value());
}

TEST_F(LsqFixture, UncompletedLoadNotChecked)
{
    lsq.dispatchStore(1, 10);
    lsq.dispatchLoad(2, 20);
    lsq.executeLoad(2, 0x100, 8);
    // No loadCompleted() yet: the store must not flag it.
    const auto v = lsq.executeStore(1, 0x100, 8, 0x9);
    EXPECT_FALSE(v.has_value());
}

TEST_F(LsqFixture, DispatchFailsWhenQueueFull)
{
    for (SeqNum s = 1; s <= 8; ++s)
        EXPECT_TRUE(lsq.dispatchLoad(s, s));
    EXPECT_FALSE(lsq.dispatchLoad(9, 9));
    for (SeqNum s = 11; s <= 18; ++s)
        EXPECT_TRUE(lsq.dispatchStore(s, s));
    EXPECT_FALSE(lsq.dispatchStore(19, 19));
}

TEST_F(LsqFixture, RetireFreesSlots)
{
    lsq.dispatchLoad(1, 10);
    lsq.executeLoad(1, 0x100, 8);
    lsq.loadCompleted(1, 0);
    lsq.retireLoad(1);
    EXPECT_EQ(lsq.loadQueueSize(), 0u);

    lsq.dispatchStore(2, 11);
    lsq.executeStore(2, 0x200, 4, 0x77);
    const Lsq::StoreData d = lsq.retireStore(2);
    EXPECT_EQ(d.addr, 0x200u);
    EXPECT_EQ(d.value, 0x77u);
    EXPECT_EQ(lsq.storeQueueSize(), 0u);
}

TEST_F(LsqFixture, SquashDropsYoungerEntries)
{
    lsq.dispatchLoad(1, 10);
    lsq.dispatchStore(2, 11);
    lsq.dispatchLoad(3, 12);
    lsq.dispatchStore(4, 13);
    lsq.squashFrom(3);
    EXPECT_EQ(lsq.loadQueueSize(), 1u);
    EXPECT_EQ(lsq.storeQueueSize(), 1u);
}

TEST_F(LsqFixture, SquashedStoreNoLongerForwards)
{
    lsq.dispatchStore(1, 10);
    lsq.executeStore(1, 0x100, 8, 0xbad);
    lsq.squashFrom(1);
    lsq.dispatchLoad(2, 20);
    const LsqLoadResult r = lsq.executeLoad(2, 0x100, 8);
    EXPECT_EQ(r.forward_mask, 0);
}

TEST_F(LsqFixture, CamActivityCountsGrow)
{
    lsq.dispatchStore(1, 10);
    lsq.dispatchLoad(2, 20);
    lsq.executeStore(1, 0x100, 8, 1);
    lsq.executeLoad(2, 0x100, 8);
    EXPECT_EQ(lsq.stats().counterValue("sq_searches"), 1u);
    EXPECT_EQ(lsq.stats().counterValue("lq_searches"), 1u);
    EXPECT_GE(lsq.stats().counterValue("cam_entries_examined"), 2u);
}

TEST_F(LsqFixture, ValueCheckConsultsCommittedMemory)
{
    mem.writeBytes(0x100, 0xabcdef, 8);
    lsq.dispatchStore(1, 10);
    lsq.dispatchLoad(2, 20);
    lsq.executeLoad(2, 0x100, 8);
    lsq.loadCompleted(2, 0xabcdef);   // read committed value correctly
    // Store to only the top byte: composed value changes.
    const auto v = lsq.executeStore(1, 0x107, 1, 0x44);
    ASSERT_TRUE(v.has_value());
}

// ---------------------------------------------------------------------
// Seeded random stream: dispatch, execute, complete, retire and squash
// in the orders an out-of-order core produces, over a few words with
// every access size and unaligned (word-straddling) accesses. Every
// observable result folds into a pinned digest, so any behavioural
// change to forwarding, violation detection or the CAM counters shows
// up.
// ---------------------------------------------------------------------

namespace
{

struct StreamOp
{
    SeqNum seq;
    std::uint64_t pc;
    bool store;
    Addr addr;
    unsigned size;
    std::uint64_t value;   ///< store data, or the load's obtained value
    bool executed = false;
    bool completed = false;
};

class Digest
{
  public:
    void
    fold(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xff;
            h_ *= 0x100000001b3ull;
        }
    }
    std::uint64_t value() const { return h_; }

  private:
    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

/** Data from a few repeating byte patterns, so that silent stores
 *  (a store writing what a load already read) are common. */
std::uint64_t
pattern(Rng &rng)
{
    return 0x0101010101010101ull * rng.below(3);
}

std::uint64_t
lsqStreamDigest(std::size_t lq, std::size_t sq, Addr span,
                std::uint64_t seed, int steps)
{
    constexpr Addr kBase = 0x1000;
    MainMemory mem;
    Rng rng(seed);
    for (Addr a = kBase; a < kBase + span + 8; a += 8)
        mem.writeBytes(a, pattern(rng), 8);
    Lsq lsq({lq, sq}, [&mem](Addr a) { return mem.read8(a); });

    Digest d;
    std::deque<StreamOp> window;   // dispatched, in seq order
    SeqNum next_seq = 1;
    auto squash = [&](SeqNum from) {
        lsq.squashFrom(from);
        while (!window.empty() && window.back().seq >= from)
            window.pop_back();
        d.fold(from);
    };

    for (int step = 0; step < steps; ++step) {
        const std::uint64_t r = rng.below(100);
        if (r < 40) {
            StreamOp op{next_seq, 0x400 + next_seq, rng.chance(0.45),
                        kBase + rng.below(span), 1u << rng.below(4),
                        pattern(rng)};
            next_seq += 1 + rng.below(3);
            const bool ok = op.store ? lsq.dispatchStore(op.seq, op.pc)
                                     : lsq.dispatchLoad(op.seq, op.pc);
            d.fold(ok);
            if (ok)
                window.push_back(op);
        } else if (r < 75) {
            if (window.empty())
                continue;
            // Older ops are likelier to execute, as in a core.
            StreamOp &op = window[std::min(rng.below(window.size()),
                                           rng.below(window.size()))];
            if (op.executed)
                continue;
            op.executed = true;
            if (op.store) {
                const auto v =
                    lsq.executeStore(op.seq, op.addr, op.size, op.value);
                d.fold(v.has_value());
                if (v) {
                    d.fold(v->store_pc);
                    d.fold(v->load_pc);
                    squash(v->squash_from);
                }
                continue;
            }
            const LsqLoadResult f = lsq.executeLoad(op.seq, op.addr,
                                                    op.size);
            d.fold(f.forward_mask);
            d.fold(f.forward_value);
            // The value the core would obtain: forwarded bytes over
            // committed memory; now and then a corrupted one.
            std::uint64_t v = mem.readBytes(op.addr, op.size);
            for (unsigned i = 0; i < op.size; ++i) {
                if (f.forward_mask & (1u << i)) {
                    const std::uint64_t m = std::uint64_t{0xff} << (8 * i);
                    v = (v & ~m) | (f.forward_value & m);
                }
            }
            op.value = rng.chance(0.05) ? rng.next() : v;
            if (rng.chance(0.7)) {
                lsq.loadCompleted(op.seq, op.value);
                op.completed = true;
            }
        } else if (r < 83) {
            for (StreamOp &op : window) {
                if (!op.store && op.executed && !op.completed) {
                    lsq.loadCompleted(op.seq, op.value);
                    op.completed = true;
                    break;
                }
            }
        } else if (r < 99) {
            if (window.empty())
                continue;
            const StreamOp &head = window.front();
            if (head.store && head.executed) {
                const Lsq::StoreData sd = lsq.retireStore(head.seq);
                d.fold(sd.addr);
                d.fold(sd.size);
                d.fold(sd.value);
                mem.writeBytes(sd.addr, sd.value, sd.size);
            } else if (!head.store && head.completed) {
                lsq.retireLoad(head.seq);
            } else {
                continue;
            }
            window.pop_front();
        } else if (!window.empty()) {
            squash(window[rng.below(window.size())].seq);
        }
        d.fold(lsq.loadQueueSize());
        d.fold(lsq.storeQueueSize());
    }
    for (unsigned s = 0; s < unsigned(obs::LsqStat::kCount); ++s)
        d.fold(lsq.statValue(static_cast<obs::LsqStat>(s)));
    return d.value();
}

} // namespace

TEST(LsqStream, SmallQueuesMatchPinnedDigest)
{
    EXPECT_EQ(lsqStreamDigest(16, 12, 40, 1, 40000), 0x1f505522e5b33de5ull);
}

TEST(LsqStream, AggressiveQueuesMatchPinnedDigest)
{
    EXPECT_EQ(lsqStreamDigest(120, 80, 192, 2, 40000), 0x2794401c6392ffbeull);
}
