/**
 * @file
 * Differential gate for the coherence directory: a reference model —
 * the per-line directory as a plain std::unordered_map, written here —
 * and CoherenceDirectory are driven through the same random
 * fill/write/evict sequences and must agree step by step.
 *
 * With one cluster the directory keeps counts only, so the sequences
 * honour its precondition (a fill brings in a line the cluster does not
 * hold; writes and evictions name held lines) and only stats() and
 * entries() are compared.  With several clusters the flat table must
 * reproduce the reference exactly: invalidation masks, stats, entries
 * and every per-line query.  Small tables over small key universes keep
 * the probe runs long and wrapping, so insertions and backward-shift
 * deletions churn over colliding keys.
 */

#include <gtest/gtest.h>

#include <unordered_map>
#include <vector>

#include "core/coherence.hpp"
#include "util/random.hpp"

namespace molcache {
namespace {

/** The per-line directory semantics CoherenceDirectory must keep. */
class ReferenceDirectory
{
  public:
    explicit ReferenceDirectory(u32 numClusters) : numClusters_(numClusters)
    {
    }

    ClusterMask noteFill(u64 line, u32 cluster, bool exclusive)
    {
        ++stats_.fills;
        Entry &e = map_[line];
        if (exclusive) {
            const ClusterMask inv = others(e, cluster);
            e.holders = 1u << cluster;
            e.modified = true;
            e.owner = cluster;
            return inv;
        }
        if (e.modified && e.owner != cluster) {
            e.modified = false;
            ++stats_.downgrades;
        }
        e.holders |= 1u << cluster;
        return 0;
    }

    ClusterMask noteWrite(u64 line, u32 cluster)
    {
        ++stats_.writes;
        Entry &e = map_[line];
        const ClusterMask inv = others(e, cluster);
        e.holders = 1u << cluster;
        e.modified = true;
        e.owner = cluster;
        return inv;
    }

    void noteEviction(u64 line, u32 cluster)
    {
        const auto it = map_.find(line);
        if (it == map_.end())
            return;
        ++stats_.evictions;
        Entry &e = it->second;
        e.holders &= ~(1u << cluster);
        if (e.modified && e.owner == cluster)
            e.modified = false;
        if (e.holders == 0)
            map_.erase(it);
    }

    bool isHeld(u64 line, u32 cluster) const
    {
        const auto it = map_.find(line);
        return it != map_.end() && (it->second.holders & (1u << cluster));
    }

    u32 holderCount(u64 line) const
    {
        const auto it = map_.find(line);
        u32 n = 0;
        if (it != map_.end())
            for (u32 c = 0; c < numClusters_; ++c)
                n += (it->second.holders >> c) & 1u;
        return n;
    }

    bool isModified(u64 line) const
    {
        const auto it = map_.find(line);
        return it != map_.end() && it->second.modified;
    }

    /** Clusters holding @p line, as a mask. */
    ClusterMask holders(u64 line) const
    {
        const auto it = map_.find(line);
        return it == map_.end() ? 0 : it->second.holders;
    }

    const CoherenceStats &stats() const { return stats_; }
    size_t entries() const { return map_.size(); }

  private:
    struct Entry
    {
        u32 holders = 0;
        bool modified = false;
        u32 owner = 0;
    };

    ClusterMask others(const Entry &e, u32 cluster)
    {
        const ClusterMask inv = e.holders & ~(1u << cluster);
        for (u32 c = 0; c < numClusters_; ++c)
            stats_.invalidationsSent += (inv >> c) & 1u;
        return inv;
    }

    u32 numClusters_;
    std::unordered_map<u64, Entry> map_;
    CoherenceStats stats_;
};

void
expectSameStats(const CoherenceStats &got, const CoherenceStats &want,
                u64 step)
{
    ASSERT_EQ(got.fills, want.fills) << "step " << step;
    ASSERT_EQ(got.writes, want.writes) << "step " << step;
    ASSERT_EQ(got.evictions, want.evictions) << "step " << step;
    ASSERT_EQ(got.invalidationsSent, want.invalidationsSent)
        << "step " << step;
    ASSERT_EQ(got.downgrades, want.downgrades) << "step " << step;
}

void
expectSameLine(const CoherenceDirectory &dir, const ReferenceDirectory &ref,
               u32 clusters, u64 line, u64 step)
{
    const LineAddr la{line};
    ASSERT_EQ(dir.holderCount(la), ref.holderCount(line))
        << "line " << line << " step " << step;
    ASSERT_EQ(dir.isModified(la), ref.isModified(line))
        << "line " << line << " step " << step;
    for (u32 c = 0; c < clusters; ++c)
        ASSERT_EQ(dir.isHeld(la, ClusterId{c}), ref.isHeld(line, c))
            << "line " << line << " cluster " << c << " step " << step;
}

struct Shape
{
    u32 clusters;
    u64 lineSlots; ///< the directory's capacity bound
    u64 universe;  ///< distinct line addresses the sequence draws from
    u64 stride;    ///< spacing between line addresses
    u64 steps;
    u64 seed;
};

/**
 * Several clusters: any operation on any line, except that the tracked
 * line count stays within lineSlots (a cache never tracks more lines
 * than it has slots).  Fills, writes and evictions are drawn 35/20/45 so
 * entries are erased about as often as they are made.
 */
void
runMultiCluster(const Shape &s)
{
    CoherenceDirectory dir(s.clusters, s.lineSlots);
    ReferenceDirectory ref(s.clusters);
    Pcg32 rng(s.seed);
    for (u64 step = 0; step < s.steps; ++step) {
        const u64 line = (1 + rng.below(static_cast<u32>(s.universe))) *
                         s.stride;
        const u32 cluster = rng.below(s.clusters);
        const u32 op = rng.below(100);
        const bool inserts = ref.holders(line) == 0;
        if (op < 45 || (inserts && ref.entries() >= s.lineSlots)) {
            dir.noteEviction(LineAddr{line}, ClusterId{cluster});
            ref.noteEviction(line, cluster);
        } else if (op < 80) {
            const bool exclusive = rng.below(4) == 0;
            ASSERT_EQ(dir.noteFill(LineAddr{line}, ClusterId{cluster},
                                   exclusive),
                      ref.noteFill(line, cluster, exclusive))
                << "fill mask, step " << step;
        } else {
            ASSERT_EQ(dir.noteWrite(LineAddr{line}, ClusterId{cluster}),
                      ref.noteWrite(line, cluster))
                << "write mask, step " << step;
        }
        ASSERT_EQ(dir.entries(), ref.entries()) << "step " << step;
        ASSERT_NO_FATAL_FAILURE(
            expectSameStats(dir.stats(), ref.stats(), step));
        ASSERT_NO_FATAL_FAILURE(
            expectSameLine(dir, ref, s.clusters, line, step));
        if (step % 512 != 0)
            continue;
        for (u64 k = 1; k <= s.universe; ++k) {
            ASSERT_NO_FATAL_FAILURE(expectSameLine(dir, ref, s.clusters,
                                                   k * s.stride, step));
        }
    }
}

TEST(CoherenceDifferential, TwoClustersTinyTable)
{
    runMultiCluster({2, 8, 24, 64, 40000, 1});
}

TEST(CoherenceDifferential, FourClustersTinyTable)
{
    runMultiCluster({4, 8, 24, 64, 40000, 2});
}

TEST(CoherenceDifferential, ThirtyTwoClustersTinyTable)
{
    runMultiCluster({32, 16, 40, 64, 40000, 3});
}

/** The table at its design load: the whole line-slot budget live, keys
 * on a large power-of-two stride. */
TEST(CoherenceDifferential, FullLoadPowerOfTwoStride)
{
    runMultiCluster({4, 256, 512, u64{1} << 20, 60000, 4});
}

/** One line budget, one key at a time: the smallest table. */
TEST(CoherenceDifferential, SingleLineSlot)
{
    runMultiCluster({2, 1, 3, 64, 5000, 5});
}

/**
 * One cluster: the count-only directory.  Lines are filled only when
 * not held, written and evicted only when held — each line resident at
 * most once, as in the cache.
 */
void
runOneCluster(u64 universe, u64 steps, u64 seed)
{
    CoherenceDirectory dir(1, universe);
    ReferenceDirectory ref(1);
    const ClusterId c0{0};
    Pcg32 rng(seed);
    std::vector<u64> held;
    std::vector<u64> absent;
    for (u64 k = 1; k <= universe; ++k)
        absent.push_back(k * 64);
    for (u64 step = 0; step < steps; ++step) {
        const u32 op = rng.below(100);
        if (!absent.empty() && (held.empty() || op < 40)) {
            const size_t i = rng.below(static_cast<u32>(absent.size()));
            const u64 line = absent[i];
            absent[i] = absent.back();
            absent.pop_back();
            held.push_back(line);
            const bool exclusive = rng.below(3) == 0;
            ASSERT_EQ(dir.noteFill(LineAddr{line}, c0, exclusive), 0u);
            ref.noteFill(line, 0, exclusive);
        } else if (op < 60) {
            const u64 line =
                held[rng.below(static_cast<u32>(held.size()))];
            ASSERT_EQ(dir.noteWrite(LineAddr{line}, c0), 0u);
            ref.noteWrite(line, 0);
        } else {
            const size_t i = rng.below(static_cast<u32>(held.size()));
            const u64 line = held[i];
            held[i] = held.back();
            held.pop_back();
            absent.push_back(line);
            dir.noteEviction(LineAddr{line}, c0);
            ref.noteEviction(line, 0);
        }
        ASSERT_EQ(dir.entries(), ref.entries()) << "step " << step;
        ASSERT_NO_FATAL_FAILURE(
            expectSameStats(dir.stats(), ref.stats(), step));
    }
}

TEST(CoherenceDifferential, OneClusterCountsMatch)
{
    runOneCluster(64, 40000, 6);
}

TEST(CoherenceDifferential, OneClusterLargeWorkingSet)
{
    runOneCluster(4096, 60000, 7);
}

} // namespace
} // namespace molcache
