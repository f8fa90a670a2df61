/** @file Unit tests for the cache tag arrays and hierarchy. */

#include <gtest/gtest.h>

#include "mem/cache.hh"
#include "sim/logging.hh"

using namespace slf;

namespace
{

CacheGeometry
smallGeom()
{
    CacheGeometry g;
    g.name = "test";
    g.size_bytes = 1024;   // 8 sets x 2 ways x 64B
    g.assoc = 2;
    g.line_bytes = 64;
    g.miss_penalty = 10;
    return g;
}

} // namespace

TEST(CacheArray, FirstAccessMissesThenHits)
{
    CacheArray c(smallGeom());
    EXPECT_FALSE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    EXPECT_TRUE(c.access(0x103f));    // same line
    EXPECT_FALSE(c.access(0x1040));   // next line
}

TEST(CacheArray, GeometryDerivesSetCount)
{
    CacheArray c(smallGeom());
    EXPECT_EQ(c.geometry().numSets(), 8u);
}

TEST(CacheArray, TwoWaysHoldTwoConflictingLines)
{
    CacheArray c(smallGeom());
    // Same set: addresses 8 lines apart (8 sets * 64B = 512B stride).
    EXPECT_FALSE(c.access(0x0000));
    EXPECT_FALSE(c.access(0x0200));
    EXPECT_TRUE(c.access(0x0000));
    EXPECT_TRUE(c.access(0x0200));
}

TEST(CacheArray, LruEvictsLeastRecentlyUsed)
{
    CacheArray c(smallGeom());
    c.access(0x0000);   // miss, allocate
    c.access(0x0200);   // miss, allocate (set full)
    c.access(0x0000);   // touch: 0x0200 is now LRU
    c.access(0x0400);   // miss, evicts 0x0200
    EXPECT_TRUE(c.access(0x0000));
    EXPECT_FALSE(c.access(0x0200));   // was evicted
}

TEST(CacheArray, ProbeDoesNotDisturbState)
{
    CacheArray c(smallGeom());
    c.access(0x0000);
    EXPECT_TRUE(c.probe(0x0000));
    EXPECT_FALSE(c.probe(0x0200));
    // Probing 0x200 must not have allocated it.
    EXPECT_FALSE(c.access(0x0200));
}

TEST(CacheArray, InvalidateAllEmptiesCache)
{
    CacheArray c(smallGeom());
    c.access(0x0000);
    c.invalidateAll();
    EXPECT_FALSE(c.access(0x0000));
}

TEST(CacheArray, StatsCountHitsAndMisses)
{
    CacheArray c(smallGeom());
    c.access(0x0000);
    c.access(0x0000);
    c.access(0x0040);
    EXPECT_EQ(c.hits(), 1u);
    EXPECT_EQ(c.misses(), 2u);
}

TEST(CacheArray, RejectsNonPowerOfTwoLine)
{
    CacheGeometry g = smallGeom();
    g.line_bytes = 48;
    EXPECT_THROW(CacheArray c(g), FatalError);
}

TEST(CacheArray, RejectsNonPowerOfTwoSets)
{
    CacheGeometry g = smallGeom();
    g.size_bytes = 1024 + 128;   // 9 sets
    EXPECT_THROW(CacheArray c(g), FatalError);
}

TEST(CacheHierarchy, L1HitIsFree)
{
    CacheGeometry l1 = smallGeom();
    CacheGeometry l2 = smallGeom();
    l2.size_bytes = 4096;
    l2.miss_penalty = 100;
    CacheHierarchy h(l1, l1, l2);
    h.accessData(0x0000);
    EXPECT_EQ(h.accessData(0x0000), 0u);
}

TEST(CacheHierarchy, L1MissL2HitCostsL1Penalty)
{
    CacheGeometry l1 = smallGeom();
    CacheGeometry l2 = smallGeom();
    l2.size_bytes = 8192;
    l2.assoc = 8;
    l2.miss_penalty = 100;
    CacheHierarchy h(l1, l1, l2);
    h.accessData(0x0000);       // warm both levels
    // Evict 0x0000 from the tiny L1 by filling its set.
    h.accessData(0x0200);
    h.accessData(0x0400);
    // L1 miss now, but the larger L2 still holds the line.
    EXPECT_EQ(h.accessData(0x0000), 10u);
}

TEST(CacheHierarchy, ColdMissCostsBothPenalties)
{
    CacheGeometry l1 = smallGeom();
    CacheGeometry l2 = smallGeom();
    l2.miss_penalty = 100;
    CacheHierarchy h(l1, l1, l2);
    EXPECT_EQ(h.accessData(0x7000), 110u);
}

TEST(CacheHierarchy, InstAndDataPathsIndependent)
{
    CacheGeometry l1 = smallGeom();
    CacheGeometry l2 = smallGeom();
    l2.miss_penalty = 100;
    CacheHierarchy h(l1, l1, l2);
    h.accessInst(0x0000);
    // The data L1 never saw the line; only the shared L2 did.
    EXPECT_EQ(h.accessData(0x0000), 10u);
}

class CacheGeometrySweep
    : public ::testing::TestWithParam<std::tuple<unsigned, unsigned>>
{};

TEST_P(CacheGeometrySweep, CapacityWorksAtAllShapes)
{
    const auto [assoc, line] = GetParam();
    CacheGeometry g;
    g.size_bytes = 8192;
    g.assoc = assoc;
    g.line_bytes = line;
    CacheArray c(g);
    const std::uint64_t lines = g.size_bytes / line;
    // Fill the whole cache, then verify everything still hits: no
    // self-eviction at exactly-capacity working sets (true LRU).
    for (std::uint64_t i = 0; i < lines; ++i)
        c.access(i * line);
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_TRUE(c.access(i * line)) << "line " << i;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheGeometrySweep,
    ::testing::Combine(::testing::Values(1u, 2u, 4u, 8u),
                       ::testing::Values(32u, 64u, 128u)));
