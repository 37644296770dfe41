/**
 * @file
 * Unit tests for the common module: stats, RNG, logging helpers.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hh"
#include "common/stats.hh"

namespace regless
{
namespace
{

TEST(DistributionTest, EmptyDistributionIsZero)
{
    Distribution d;
    EXPECT_EQ(d.count(), 0u);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 0.0);
    EXPECT_DOUBLE_EQ(d.max(), 0.0);
}

TEST(DistributionTest, TracksMomentsExactly)
{
    Distribution d;
    for (double v : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        d.sample(v);
    EXPECT_EQ(d.count(), 8u);
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    // Known population stddev of this classic dataset is 2.
    EXPECT_NEAR(d.stddev(), 2.0, 1e-12);
    EXPECT_DOUBLE_EQ(d.min(), 2.0);
    EXPECT_DOUBLE_EQ(d.max(), 9.0);
}

TEST(DistributionTest, SingleSample)
{
    Distribution d;
    d.sample(42.0);
    EXPECT_DOUBLE_EQ(d.mean(), 42.0);
    EXPECT_DOUBLE_EQ(d.stddev(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), 42.0);
    EXPECT_DOUBLE_EQ(d.max(), 42.0);
}

TEST(DistributionTest, NegativeValues)
{
    Distribution d;
    d.sample(-3.0);
    d.sample(3.0);
    EXPECT_DOUBLE_EQ(d.mean(), 0.0);
    EXPECT_DOUBLE_EQ(d.min(), -3.0);
    EXPECT_DOUBLE_EQ(d.max(), 3.0);
    EXPECT_NEAR(d.stddev(), 3.0, 1e-12);
}

TEST(WindowedSeriesTest, AccumulatesWithinWindow)
{
    WindowedSeries s(100);
    s.record(10, 1.0);
    s.record(50, 2.0);
    s.record(99, 3.0);
    s.flush();
    ASSERT_EQ(s.points().size(), 1u);
    EXPECT_DOUBLE_EQ(s.points()[0], 6.0);
}

TEST(WindowedSeriesTest, SplitsAcrossWindows)
{
    WindowedSeries s(100);
    s.record(10, 1.0);
    s.record(150, 2.0);
    s.record(420, 4.0);
    s.flush();
    // Windows: [0,100) = 1, [100,200) = 2, [200,300) = 0,
    // [300,400) = 0, [400,500) = 4.
    ASSERT_EQ(s.points().size(), 5u);
    EXPECT_DOUBLE_EQ(s.points()[0], 1.0);
    EXPECT_DOUBLE_EQ(s.points()[1], 2.0);
    EXPECT_DOUBLE_EQ(s.points()[2], 0.0);
    EXPECT_DOUBLE_EQ(s.points()[3], 0.0);
    EXPECT_DOUBLE_EQ(s.points()[4], 4.0);
    EXPECT_DOUBLE_EQ(s.meanPerWindow(), 7.0 / 5.0);
}

TEST(WindowedSeriesTest, FirstRecordNotInWindowZero)
{
    WindowedSeries s(100);
    s.record(250, 5.0);
    s.flush();
    ASSERT_EQ(s.points().size(), 1u);
    EXPECT_DOUBLE_EQ(s.points()[0], 5.0);
}

TEST(GeomeanTest, KnownValues)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_NEAR(geomean({1.0, 10.0, 100.0}), 10.0, 1e-9);
    EXPECT_DOUBLE_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(geomean({7.0}), 7.0);
}

TEST(RngTest, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    bool any_diff = false;
    for (int i = 0; i < 10; ++i)
        any_diff |= (a.next() != b.next());
    EXPECT_TRUE(any_diff);
}

TEST(RngTest, NextBelowInRange)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBelow(13), 13u);
}

TEST(RngTest, NextBelowCoversAllResidues)
{
    Rng r(99);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i)
        seen.insert(r.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(RngTest, NextRangeInclusive)
{
    Rng r(5);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 500; ++i) {
        std::int64_t v = r.nextRange(-2, 2);
        EXPECT_GE(v, -2);
        EXPECT_LE(v, 2);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(RngTest, NextDoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(RngTest, ChanceExtremes)
{
    Rng r(3);
    EXPECT_FALSE(r.chance(0.0));
    EXPECT_TRUE(r.chance(1.0));
    // Empirical mid-probability check.
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += r.chance(0.5);
    EXPECT_NEAR(hits, 5000, 300);
}

} // namespace
} // namespace regless
