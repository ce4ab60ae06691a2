/**
 * @file
 * Zipf-distributed rank sampler.
 *
 * Temporal locality in real reference streams is well approximated by a
 * Zipf popularity law over cache lines; the workload generator uses this
 * to model working-set reuse.  The sampler precomputes the CDF once and
 * maps a uniform draw to the first rank whose CDF value reaches it.  A
 * guide table (Chen & Asau's indexed search) picks where that search
 * starts, so sampling costs O(1) expected steps instead of a binary
 * search, and the mapping is still exactly std::lower_bound over the CDF
 * (docs/perf.md "Trace generation").
 */

#ifndef MOLCACHE_WORKLOAD_ZIPF_HPP
#define MOLCACHE_WORKLOAD_ZIPF_HPP

#include <vector>

#include "util/random.hpp"
#include "util/types.hpp"

namespace molcache {

class ZipfSampler
{
  public:
    /**
     * @param n      number of ranks (> 0)
     * @param alpha  skew; 0 = uniform, ~1 = classic zipf, larger = hotter
     */
    ZipfSampler(u32 n, double alpha);

    /** Draw a rank in [0, n); rank 0 is the most popular. */
    u32 sample(RandomSource &rng) const { return rankOf(rng.unitReal()); }

    /**
     * The rank a uniform draw @p u maps to: the first rank whose CDF
     * value is >= u, i.e. std::lower_bound over the CDF (n when u > 1).
     * Exact for every non-NaN u, whatever the guide table holds.
     */
    u32 rankOf(double u) const;

    u32 ranks() const { return n_; }
    double alpha() const { return alpha_; }

    /** Probability mass of rank @p r. */
    double probability(u32 r) const;

    /** Probability that a draw is rank @p r or more popular. */
    double cdf(u32 r) const;

  private:
    u32 n_;
    double alpha_;
    /** n CDF values, then a +inf sentinel that stops the forward walk. */
    std::vector<double> cdf_;
    /** Bucket k: the first rank whose CDF value is >= k/n. */
    std::vector<u32> guide_;
};

} // namespace molcache

#endif // MOLCACHE_WORKLOAD_ZIPF_HPP
