/** @file Unit tests for Distribution. */

#include <gtest/gtest.h>

#include "sim/stats.hh"

using namespace slf;

TEST(Distribution, TracksMinMaxMeanCount)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.min(), 0u);
    d.sample(4);
    d.sample(10);
    d.sample(1);
    EXPECT_EQ(d.count(), 3u);
    EXPECT_EQ(d.min(), 1u);
    EXPECT_EQ(d.max(), 10u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
}

TEST(Distribution, ResetClears)
{
    Distribution d;
    d.sample(9);
    d.reset();
    EXPECT_EQ(d.count(), 0u);
    EXPECT_EQ(d.max(), 0u);
}
