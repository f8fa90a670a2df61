/** @file Unit tests for slf::Config. */

#include <gtest/gtest.h>

#include "sim/config.hh"

using namespace slf;

TEST(Config, MissingKeyReturnsDefault)
{
    Config c;
    EXPECT_EQ(c.getInt("nope", 42), 42);
    EXPECT_EQ(c.getUInt("nope", 7u), 7u);
    EXPECT_EQ(c.getString("nope", "x"), "x");
    EXPECT_TRUE(c.getBool("nope", true));
    EXPECT_DOUBLE_EQ(c.getDouble("nope", 2.5), 2.5);
}

TEST(Config, SetAndGetRoundTrip)
{
    Config c;
    c.setInt("a", -12);
    c.setUInt("b", 99);
    c.setBool("c", true);
    c.setDouble("d", 0.125);
    c.set("e", "text");
    EXPECT_EQ(c.getInt("a", 0), -12);
    EXPECT_EQ(c.getUInt("b", 0), 99u);
    EXPECT_TRUE(c.getBool("c", false));
    EXPECT_DOUBLE_EQ(c.getDouble("d", 0), 0.125);
    EXPECT_EQ(c.getString("e"), "text");
}

TEST(Config, HasReflectsPresence)
{
    Config c;
    EXPECT_FALSE(c.has("k"));
    c.setInt("k", 1);
    EXPECT_TRUE(c.has("k"));
}

TEST(Config, HexIntegersParse)
{
    Config c;
    c.set("addr", "0x1000");
    EXPECT_EQ(c.getUInt("addr", 0), 0x1000u);
    EXPECT_EQ(c.getInt("addr", 0), 0x1000);
}

TEST(Config, MalformedIntegerThrows)
{
    Config c;
    c.set("k", "12abc");
    EXPECT_THROW(c.getInt("k", 0), std::invalid_argument);
    EXPECT_THROW(c.getUInt("k", 0), std::invalid_argument);
}

TEST(Config, NonNumericSignedOrOverflowingUIntThrows)
{
    Config c;
    for (const char *v :
         {"abc", "", "-5", "+5", " 5", "99999999999999999999"}) {
        c.set("k", v);
        EXPECT_THROW(c.getUInt("k", 0), std::invalid_argument) << v;
    }
    c.set("k", "abc");
    EXPECT_THROW(c.getInt("k", 0), std::invalid_argument);
    EXPECT_THROW(c.getDouble("k", 0.0), std::invalid_argument);
}

TEST(Config, MalformedBoolThrows)
{
    Config c;
    c.set("k", "maybe");
    EXPECT_THROW(c.getBool("k", false), std::invalid_argument);
}

TEST(Config, BoolSynonyms)
{
    Config c;
    for (const char *t : {"true", "1", "yes", "on"}) {
        c.set("k", t);
        EXPECT_TRUE(c.getBool("k", false)) << t;
    }
    for (const char *f : {"false", "0", "no", "off"}) {
        c.set("k", f);
        EXPECT_FALSE(c.getBool("k", true)) << f;
    }
}

TEST(Config, ParseAssignmentSplitsOnFirstEquals)
{
    Config c;
    EXPECT_TRUE(c.parseAssignment("key=a=b"));
    EXPECT_EQ(c.getString("key"), "a=b");
}

TEST(Config, ParseAssignmentRejectsMalformed)
{
    Config c;
    EXPECT_FALSE(c.parseAssignment("noequals"));
    EXPECT_FALSE(c.parseAssignment("=value"));
}

TEST(Config, ParseAssignmentsThrowsOnBadItem)
{
    Config c;
    EXPECT_THROW(c.parseAssignments({"a=1", "bad"}), std::invalid_argument);
}

TEST(Config, MergeOtherWins)
{
    Config a;
    a.setInt("x", 1);
    a.setInt("y", 2);
    Config b;
    b.setInt("y", 3);
    a.merge(b);
    EXPECT_EQ(a.getInt("x", 0), 1);
    EXPECT_EQ(a.getInt("y", 0), 3);
}

TEST(Config, KeysSorted)
{
    Config c;
    c.setInt("b", 1);
    c.setInt("a", 1);
    c.setInt("c", 1);
    const auto keys = c.keys();
    ASSERT_EQ(keys.size(), 3u);
    EXPECT_EQ(keys[0], "a");
    EXPECT_EQ(keys[2], "c");
}

TEST(Config, ToStringContainsAssignments)
{
    Config c;
    c.setInt("k", 5);
    EXPECT_NE(c.toString().find("k=5"), std::string::npos);
}

TEST(Config, OverwriteReplacesValue)
{
    Config c;
    c.setInt("k", 1);
    c.setInt("k", 2);
    EXPECT_EQ(c.getInt("k", 0), 2);
}
