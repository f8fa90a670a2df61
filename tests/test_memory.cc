/** @file Unit tests for MainMemory. */

#include <gtest/gtest.h>

#include "mem/main_memory.hh"
#include "prog/builder.hh"

using namespace slf;

TEST(MainMemory, UntouchedBytesReadZero)
{
    MainMemory m;
    EXPECT_EQ(m.read8(0), 0);
    EXPECT_EQ(m.readBytes(0xdeadbeef, 8), 0u);
    EXPECT_EQ(m.allocatedPages(), 0u);
}

TEST(MainMemory, ByteRoundTrip)
{
    MainMemory m;
    m.write8(0x1234, 0xab);
    EXPECT_EQ(m.read8(0x1234), 0xab);
    EXPECT_EQ(m.read8(0x1233), 0);
    EXPECT_EQ(m.read8(0x1235), 0);
}

TEST(MainMemory, MultiByteLittleEndian)
{
    MainMemory m;
    m.writeBytes(0x100, 0x0102030405060708ull, 8);
    EXPECT_EQ(m.read8(0x100), 0x08);
    EXPECT_EQ(m.read8(0x107), 0x01);
    EXPECT_EQ(m.readBytes(0x100, 8), 0x0102030405060708ull);
    EXPECT_EQ(m.readBytes(0x100, 4), 0x05060708ull);
}

TEST(MainMemory, PartialWriteKeepsHighBytes)
{
    MainMemory m;
    m.writeBytes(0x200, 0xffffffffffffffffull, 8);
    m.writeBytes(0x200, 0xaabb, 2);
    EXPECT_EQ(m.readBytes(0x200, 8), 0xffffffffffffaabbull);
}

TEST(MainMemory, CrossPageAccess)
{
    MainMemory m;
    const Addr boundary = MainMemory::kPageSize;
    m.writeBytes(boundary - 4, 0x1122334455667788ull, 8);
    EXPECT_EQ(m.readBytes(boundary - 4, 8), 0x1122334455667788ull);
    EXPECT_EQ(m.allocatedPages(), 2u);
}

TEST(MainMemory, ReadsDoNotAllocatePages)
{
    MainMemory m;
    m.readBytes(0x5000, 8);
    EXPECT_EQ(m.allocatedPages(), 0u);
    m.write8(0x5000, 1);
    EXPECT_EQ(m.allocatedPages(), 1u);
    m.readBytes(0x9000000, 8);
    EXPECT_EQ(m.allocatedPages(), 1u);
}

TEST(MainMemory, LoadInitialImage)
{
    ProgramBuilder b("p");
    b.poke64(0x4000, 0x55);
    b.pokeBytes(0x4100, 0xbeef, 2);
    const Program prog = b.build();
    MainMemory m;
    m.loadInitialImage(prog);
    EXPECT_EQ(m.readBytes(0x4000, 8), 0x55u);
    EXPECT_EQ(m.readBytes(0x4100, 2), 0xbeefu);
}

TEST(MainMemory, HighAddressesWork)
{
    MainMemory m;
    const Addr high = 0xfffffffffffffff0ull;
    m.writeBytes(high, 0x42, 1);
    EXPECT_EQ(m.read8(high), 0x42);
}

// ---------------------------------------------------------------------
// The page TLB and the word-wide accesses.
// ---------------------------------------------------------------------

TEST(MainMemory, PagesSharingATlbSlotKeepTheirOwnBytes)
{
    MainMemory m;
    // Two pages that map to the same direct-mapped slot: interleaved
    // accesses must never read through the other's translation.
    std::uint64_t other = 4;
    while (MainMemory::tlbSlot(other) != MainMemory::tlbSlot(3))
        ++other;
    const Addr a = 3 * MainMemory::kPageSize + 0x40;
    const Addr b = other * MainMemory::kPageSize + 0x40;
    for (std::uint64_t i = 0; i < 4; ++i) {
        m.writeBytes(a + 8 * i, 0xa0 + i, 8);
        m.writeBytes(b + 8 * i, 0xb0 + i, 8);
    }
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(m.readBytes(a + 8 * i, 8), 0xa0 + i);
        EXPECT_EQ(m.readBytes(b + 8 * i, 8), 0xb0 + i);
        EXPECT_EQ(m.read8(b + 8 * i), 0xb0 + i);
        EXPECT_EQ(m.read8(a + 8 * i), 0xa0 + i);
    }
    EXPECT_EQ(m.allocatedPages(), 2u);
}

TEST(MainMemory, SubWordAndWordAccessesStraddlingAPage)
{
    const Addr boundary = 5 * MainMemory::kPageSize;
    for (const unsigned size : {2u, 4u, 8u}) {
        for (unsigned before = 1; before < size; ++before) {
            MainMemory m;
            const Addr at = boundary - before;
            const std::uint64_t value = 0x8877665544332211ull;
            const std::uint64_t mask =
                size == 8 ? ~std::uint64_t{0}
                          : (std::uint64_t{1} << (8 * size)) - 1;
            m.writeBytes(at, value, size);
            EXPECT_EQ(m.readBytes(at, size), value & mask)
                << size << " bytes, " << before << " before the boundary";
            EXPECT_EQ(m.read8(boundary - 1),
                      std::uint8_t(value >> (8 * (before - 1))));
            EXPECT_EQ(m.read8(boundary), std::uint8_t(value >> (8 * before)));
            EXPECT_EQ(m.read8(at + size), 0u) << "wrote past the access";
            EXPECT_EQ(m.allocatedPages(), 2u);
        }
    }
    // A straddling read whose second page was never touched.
    MainMemory m;
    m.write8(boundary - 1, 0x5a);
    EXPECT_EQ(m.readBytes(boundary - 1, 8), 0x5au);
    EXPECT_EQ(m.allocatedPages(), 1u);
}

TEST(MainMemory, ReadingAnUntouchedPageCachesNoTranslation)
{
    MainMemory m;
    EXPECT_EQ(m.readBytes(0x7000, 4), 0u);
    EXPECT_EQ(m.read8(0x7001), 0u);
    EXPECT_EQ(m.allocatedPages(), 0u);
    // The miss left no TLB entry behind: a write still allocates the
    // page, and reads then see it.
    m.writeBytes(0x7000, 0xfeed, 2);
    EXPECT_EQ(m.allocatedPages(), 1u);
    EXPECT_EQ(m.readBytes(0x7000, 4), 0xfeedu);
}

// ---------------------------------------------------------------------
// The page-granular initial image and its whole-page load.
// ---------------------------------------------------------------------

TEST(InitImage, LaterPokesWinAndBytesComeOutInAddressOrder)
{
    Program p;
    p.poke8(0x5001, 2);
    p.poke8(0x1000, 1);
    p.poke8(0x5001, 3);          // overwrite: still one byte
    p.poke8(0x5000, 4);
    const InitImage &img = p.initialData();
    EXPECT_EQ(img.size(), 3u);
    EXPECT_EQ(img.at(0x5001), 3u);
    EXPECT_EQ(img.count(0x5002), 0u);
    EXPECT_THROW(img.at(0x5002), std::out_of_range);
    const std::vector<InitByte> want = {
        {0x1000, 1}, {0x5000, 4}, {0x5001, 3}};
    EXPECT_EQ(img.bytes(), want);
}

TEST(InitImage, ACopyIsIndependentOfItsSource)
{
    Program a;
    a.poke8(0x1000, 1);
    Program b = a;               // a's last-poked page must not carry over
    a.poke8(0x1001, 2);
    b.poke8(0x1002, 3);
    EXPECT_EQ(a.initialData().count(0x1002), 0u);
    EXPECT_EQ(b.initialData().count(0x1001), 0u);
    Program c = std::move(b);
    c.poke8(0x1003, 4);
    EXPECT_EQ(c.initialData().size(), 3u);
    EXPECT_FALSE(a.initialData() == c.initialData());
}

TEST(MainMemory, LoadingAnImageKeepsUnpokedBytesOfExistingPages)
{
    Program p;
    p.poke8(0x2004, 0xaa);
    p.pokeBytes(0x9000, 0x0102, 2);
    MainMemory m;
    m.write8(0x2003, 0x11);
    m.write8(0x2004, 0x22);
    m.loadInitialImage(p);
    EXPECT_EQ(m.read8(0x2003), 0x11) << "unpoked byte of a live page";
    EXPECT_EQ(m.read8(0x2004), 0xaa) << "poked byte overwrites";
    EXPECT_EQ(m.readBytes(0x9000, 4), 0x0102u);
    EXPECT_EQ(m.allocatedPages(), 2u);
}
