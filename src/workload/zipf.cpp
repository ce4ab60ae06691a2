#include "workload/zipf.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/logging.hpp"

namespace molcache {

ZipfSampler::ZipfSampler(u32 n, double alpha)
    : n_(n), alpha_(alpha)
{
    MOLCACHE_ASSERT(n > 0, "zipf over zero ranks");
    MOLCACHE_ASSERT(alpha >= 0.0, "negative zipf alpha");
    // Sized once, sentinel included: growing it by one more element
    // would reallocate and free a block per sampler during trace
    // set-up, which measured ~20 MiB more peak RSS on the
    // 12-application Table 2 set-up.
    cdf_.resize(size_t{n} + 1);
    double acc = 0.0;
    for (u32 r = 0; r < n; ++r) {
        acc += 1.0 / std::pow(static_cast<double>(r + 1), alpha);
        cdf_[r] = acc;
    }
    const double total = acc;
    for (u32 r = 0; r < n; ++r)
        cdf_[r] /= total;
    cdf_[n - 1] = 1.0; // guard against rounding
    cdf_[n] = std::numeric_limits<double>::infinity();

    // One bucket per rank: a draw lands in a bucket holding about one
    // CDF step, so the walk in rankOf() is a step or two on average.
    guide_.resize(n);
    u32 r = 0;
    for (u32 k = 0; k < n; ++k) {
        const double edge = static_cast<double>(k) / n;
        while (cdf_[r] < edge)
            ++r;
        guide_[k] = r;
    }
}

u32
ZipfSampler::rankOf(double u) const
{
    // The guide only picks the starting point; the two walks then land
    // on lower_bound(cdf, u) from any start, so a rounding slip in the
    // bucket arithmetic costs a step, never a different rank.
    const double bucket =
        std::clamp(u * n_, 0.0, static_cast<double>(n_ - 1));
    u32 i = guide_[static_cast<u32>(bucket)];
    while (cdf_[i] < u)
        ++i;
    while (i > 0 && cdf_[i - 1] >= u)
        --i;
    return i;
}

double
ZipfSampler::probability(u32 r) const
{
    MOLCACHE_ASSERT(r < n_, "rank out of range");
    return r == 0 ? cdf_[0] : cdf_[r] - cdf_[r - 1];
}

double
ZipfSampler::cdf(u32 r) const
{
    MOLCACHE_ASSERT(r < n_, "rank out of range");
    return cdf_[r];
}

} // namespace molcache
