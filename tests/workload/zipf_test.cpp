#include "workload/zipf.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <iomanip>
#include <limits>
#include <tuple>
#include <vector>

namespace molcache {
namespace {

TEST(Zipf, UniformWhenAlphaZero)
{
    ZipfSampler zipf(4, 0.0);
    for (u32 r = 0; r < 4; ++r)
        EXPECT_NEAR(zipf.probability(r), 0.25, 1e-12);
}

TEST(Zipf, ProbabilitiesSumToOne)
{
    ZipfSampler zipf(1000, 0.8);
    double sum = 0.0;
    for (u32 r = 0; r < zipf.ranks(); ++r)
        sum += zipf.probability(r);
    EXPECT_NEAR(sum, 1.0, 1e-9);
}

TEST(Zipf, MonotoneDecreasing)
{
    ZipfSampler zipf(100, 1.0);
    for (u32 r = 1; r < 100; ++r)
        EXPECT_GE(zipf.probability(r - 1), zipf.probability(r));
}

TEST(Zipf, ClassicRatios)
{
    // alpha=1: p(rank0)/p(rank1) == 2, p(rank0)/p(rank3) == 4.
    ZipfSampler zipf(100, 1.0);
    EXPECT_NEAR(zipf.probability(0) / zipf.probability(1), 2.0, 1e-9);
    EXPECT_NEAR(zipf.probability(0) / zipf.probability(3), 4.0, 1e-9);
}

TEST(Zipf, SampleMatchesDistribution)
{
    ZipfSampler zipf(16, 1.2);
    Pcg32 rng(77);
    std::vector<u64> counts(16, 0);
    constexpr u64 kDraws = 200000;
    for (u64 i = 0; i < kDraws; ++i)
        ++counts[zipf.sample(rng)];
    for (u32 r = 0; r < 16; ++r) {
        const double expected = zipf.probability(r) * kDraws;
        EXPECT_NEAR(static_cast<double>(counts[r]), expected,
                    5 * std::sqrt(expected) + 30)
            << "rank " << r;
    }
}

TEST(Zipf, SingleRank)
{
    ZipfSampler zipf(1, 2.0);
    Pcg32 rng(1);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(zipf.sample(rng), 0u);
    EXPECT_DOUBLE_EQ(zipf.probability(0), 1.0);
}

TEST(Zipf, SamplesAlwaysInRange)
{
    ZipfSampler zipf(37, 0.6);
    Pcg32 rng(3);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(zipf.sample(rng), 37u);
}

/**
 * Differential gate for the guide-table search: rankOf(u) must equal
 * std::lower_bound over the sampler's CDF values, for random draws and
 * for every value where an off-by-one would show — each CDF value, its
 * floating-point neighbours, and each guide bucket edge k/n with its
 * neighbours.
 */
class ZipfRankOf : public ::testing::TestWithParam<std::tuple<u32, double>>
{
};

TEST_P(ZipfRankOf, EqualsLowerBoundOverTheCdf)
{
    const auto [n, alpha] = GetParam();
    const ZipfSampler zipf(n, alpha);
    std::vector<double> cdf(n);
    for (u32 r = 0; r < n; ++r)
        cdf[r] = zipf.cdf(r);
    const auto reference = [&cdf](double u) {
        return static_cast<u32>(std::lower_bound(cdf.begin(), cdf.end(), u) -
                                cdf.begin());
    };
    u64 checked = 0;
    u64 wrong = 0;
    double firstWrong = 0.0;
    const auto check = [&](double u) {
        ++checked;
        if (zipf.rankOf(u) != reference(u) && wrong++ == 0)
            firstWrong = u;
    };
    constexpr double kInf = std::numeric_limits<double>::infinity();
    for (const double v : cdf) {
        check(v);
        check(std::nextafter(v, 0.0));
        check(std::nextafter(v, kInf));
    }
    for (u32 k = 0; k <= n; ++k) {
        const double edge = static_cast<double>(k) / n;
        check(edge);
        check(std::nextafter(edge, 0.0));
        check(std::nextafter(edge, kInf));
    }
    check(0.0);
    check(1.0);
    Pcg32 rng(n * 31u + static_cast<u64>(alpha * 10));
    for (u32 i = 0; i < 1000000; ++i)
        check(rng.unitReal());
    EXPECT_GE(checked, 1000000u);
    EXPECT_EQ(wrong, 0u) << "first mismatch at u = "
                         << std::setprecision(17) << firstWrong;
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, ZipfRankOf,
    ::testing::Combine(::testing::Values(1u, 2u, 37u, 1024u, 65536u),
                       ::testing::Values(0.0, 0.6, 0.8, 1.0, 1.2)));

TEST(Zipf, SampleIsRankOfTheUnitDraw)
{
    const ZipfSampler zipf(1000, 0.9);
    Pcg32 a(11);
    Pcg32 b(11);
    for (int i = 0; i < 10000; ++i)
        ASSERT_EQ(zipf.sample(a), zipf.rankOf(b.unitReal()));
}

} // namespace
} // namespace molcache
