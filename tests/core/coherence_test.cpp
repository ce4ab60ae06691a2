#include "core/coherence.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace molcache {
namespace {

constexpr u64 kLineSlots = 64;

/** Clusters of an invalidation mask in ascending order. */
std::vector<ClusterId>
clustersOf(ClusterMask mask)
{
    std::vector<ClusterId> out;
    for (u32 c = 0; c < CoherenceDirectory::kMaxClusters; ++c)
        if ((mask & (1u << c)) != 0)
            out.push_back(ClusterId{c});
    return out;
}

TEST(Coherence, ReadFillsShareFreely)
{
    CoherenceDirectory dir(4, kLineSlots);
    EXPECT_EQ(dir.noteFill(LineAddr{0x1000}, ClusterId{0}, false), 0u);
    EXPECT_EQ(dir.noteFill(LineAddr{0x1000}, ClusterId{1}, false), 0u);
    EXPECT_EQ(dir.noteFill(LineAddr{0x1000}, ClusterId{2}, false), 0u);
    EXPECT_EQ(dir.holderCount(LineAddr{0x1000}), 3u);
    EXPECT_TRUE(dir.isHeld(LineAddr{0x1000}, ClusterId{0}));
    EXPECT_TRUE(dir.isHeld(LineAddr{0x1000}, ClusterId{2}));
    EXPECT_FALSE(dir.isHeld(LineAddr{0x1000}, ClusterId{3}));
    EXPECT_FALSE(dir.isModified(LineAddr{0x1000}));
}

TEST(Coherence, WriteInvalidatesOtherHolders)
{
    CoherenceDirectory dir(4, kLineSlots);
    dir.noteFill(LineAddr{0x2000}, ClusterId{0}, false);
    dir.noteFill(LineAddr{0x2000}, ClusterId{1}, false);
    dir.noteFill(LineAddr{0x2000}, ClusterId{3}, false);
    const auto inv =
        clustersOf(dir.noteWrite(LineAddr{0x2000}, ClusterId{1}));
    ASSERT_EQ(inv.size(), 2u);
    EXPECT_EQ(inv[0], ClusterId{0});
    EXPECT_EQ(inv[1], ClusterId{3});
    EXPECT_EQ(dir.holderCount(LineAddr{0x2000}), 1u);
    EXPECT_TRUE(dir.isHeld(LineAddr{0x2000}, ClusterId{1}));
    EXPECT_TRUE(dir.isModified(LineAddr{0x2000}));
    EXPECT_EQ(dir.stats().invalidationsSent, 2u);
}

TEST(Coherence, ExclusiveFillInvalidates)
{
    CoherenceDirectory dir(2, kLineSlots);
    dir.noteFill(LineAddr{0x3000}, ClusterId{0}, false);
    const auto inv = clustersOf(
        dir.noteFill(LineAddr{0x3000}, ClusterId{1}, /*exclusive=*/true));
    ASSERT_EQ(inv.size(), 1u);
    EXPECT_EQ(inv[0], ClusterId{0});
    EXPECT_TRUE(dir.isModified(LineAddr{0x3000}));
    EXPECT_TRUE(dir.isHeld(LineAddr{0x3000}, ClusterId{1}));
    EXPECT_FALSE(dir.isHeld(LineAddr{0x3000}, ClusterId{0}));
}

TEST(Coherence, ReadOfModifiedLineDowngrades)
{
    CoherenceDirectory dir(2, kLineSlots);
    dir.noteWrite(LineAddr{0x4000}, ClusterId{0});
    EXPECT_TRUE(dir.isModified(LineAddr{0x4000}));
    EXPECT_EQ(dir.noteFill(LineAddr{0x4000}, ClusterId{1}, false), 0u);
    EXPECT_FALSE(dir.isModified(LineAddr{0x4000})); // downgraded to shared
    EXPECT_EQ(dir.holderCount(LineAddr{0x4000}), 2u);
    EXPECT_EQ(dir.stats().downgrades, 1u);
}

TEST(Coherence, EvictionRemovesHolderAndEntry)
{
    CoherenceDirectory dir(2, kLineSlots);
    dir.noteFill(LineAddr{0x5000}, ClusterId{0}, false);
    dir.noteFill(LineAddr{0x5000}, ClusterId{1}, false);
    EXPECT_EQ(dir.entries(), 1u);
    dir.noteEviction(LineAddr{0x5000}, ClusterId{0});
    EXPECT_FALSE(dir.isHeld(LineAddr{0x5000}, ClusterId{0}));
    EXPECT_TRUE(dir.isHeld(LineAddr{0x5000}, ClusterId{1}));
    dir.noteEviction(LineAddr{0x5000}, ClusterId{1});
    EXPECT_EQ(dir.entries(), 0u); // last holder gone: entry reclaimed
}

TEST(Coherence, EvictionOfUnknownLineIsNoop)
{
    CoherenceDirectory dir(2, kLineSlots);
    dir.noteEviction(LineAddr{0xdead}, ClusterId{0});
    EXPECT_EQ(dir.entries(), 0u);
    EXPECT_EQ(dir.stats().evictions, 0u);
}

TEST(Coherence, ModifiedOwnerEvictionClearsState)
{
    CoherenceDirectory dir(2, kLineSlots);
    dir.noteWrite(LineAddr{0x6000}, ClusterId{0});
    dir.noteEviction(LineAddr{0x6000}, ClusterId{0});
    EXPECT_FALSE(dir.isModified(LineAddr{0x6000}));
    EXPECT_EQ(dir.holderCount(LineAddr{0x6000}), 0u);
}

TEST(Coherence, WriteByOnlyHolderInvalidatesNothing)
{
    CoherenceDirectory dir(4, kLineSlots);
    dir.noteFill(LineAddr{0x7000}, ClusterId{2}, false);
    EXPECT_EQ(dir.noteWrite(LineAddr{0x7000}, ClusterId{2}), 0u);
    EXPECT_EQ(dir.stats().invalidationsSent, 0u);
}

TEST(Coherence, DistinctLinesIndependent)
{
    CoherenceDirectory dir(2, kLineSlots);
    dir.noteWrite(LineAddr{0x8000}, ClusterId{0});
    dir.noteWrite(LineAddr{0x8040}, ClusterId{1});
    EXPECT_TRUE(dir.isHeld(LineAddr{0x8000}, ClusterId{0}));
    EXPECT_TRUE(dir.isHeld(LineAddr{0x8040}, ClusterId{1}));
    EXPECT_FALSE(dir.isHeld(LineAddr{0x8000}, ClusterId{1}));
    EXPECT_EQ(dir.entries(), 2u);
}

TEST(Coherence, StatsAccumulate)
{
    CoherenceDirectory dir(2, kLineSlots);
    dir.noteFill(LineAddr{0x1}, ClusterId{0}, false);
    dir.noteFill(LineAddr{0x1}, ClusterId{1}, false);
    dir.noteWrite(LineAddr{0x1}, ClusterId{0});
    dir.noteEviction(LineAddr{0x1}, ClusterId{0});
    EXPECT_EQ(dir.stats().fills, 2u);
    EXPECT_EQ(dir.stats().writes, 1u);
    EXPECT_EQ(dir.stats().evictions, 1u);
    EXPECT_EQ(dir.stats().invalidationsSent, 1u);
}

TEST(CoherenceDeath, TooManyClusters)
{
    EXPECT_DEATH(CoherenceDirectory dir(33, kLineSlots), "1..32");
}

TEST(Coherence, OneClusterKeepsCountsOnly)
{
    CoherenceDirectory dir(1, kLineSlots);
    EXPECT_EQ(dir.noteFill(LineAddr{0x1000}, ClusterId{0}, true), 0u);
    EXPECT_EQ(dir.noteFill(LineAddr{0x1040}, ClusterId{0}, false), 0u);
    EXPECT_EQ(dir.noteWrite(LineAddr{0x1040}, ClusterId{0}), 0u);
    EXPECT_EQ(dir.entries(), 2u);
    dir.noteEviction(LineAddr{0x1000}, ClusterId{0});
    EXPECT_EQ(dir.entries(), 1u);
    EXPECT_EQ(dir.stats().fills, 2u);
    EXPECT_EQ(dir.stats().writes, 1u);
    EXPECT_EQ(dir.stats().evictions, 1u);
    EXPECT_EQ(dir.stats().invalidationsSent, 0u);
    EXPECT_EQ(dir.stats().downgrades, 0u);
}

TEST(CoherenceDeath, ZeroClusters)
{
    EXPECT_DEATH(CoherenceDirectory dir(0, kLineSlots), "1..32");
}

/** Per-line queries answer only when clusters > 1: a one-cluster
 * directory keeps no per-line state to answer from. */
TEST(CoherenceDeath, PerLineQueriesNeedSeveralClusters)
{
    CoherenceDirectory dir(1, kLineSlots);
    dir.noteFill(LineAddr{0x1000}, ClusterId{0}, false);
    EXPECT_DEATH(dir.isHeld(LineAddr{0x1000}, ClusterId{0}),
                 "more than one cluster");
    EXPECT_DEATH(dir.holderCount(LineAddr{0x1000}), "more than one cluster");
    EXPECT_DEATH(dir.isModified(LineAddr{0x1000}), "more than one cluster");
}

/** Two line slots size a four-slot table, which keeps one slot empty:
 * the fourth distinct line is one more than the cache could hold. */
TEST(CoherenceDeath, InsertIntoFullTable)
{
    CoherenceDirectory dir(2, 2);
    dir.noteFill(LineAddr{0x40}, ClusterId{0}, false);
    dir.noteFill(LineAddr{0x80}, ClusterId{1}, false);
    dir.noteWrite(LineAddr{0xc0}, ClusterId{0});
    EXPECT_EQ(dir.entries(), 3u);
    EXPECT_DEATH(dir.noteFill(LineAddr{0x100}, ClusterId{1}, false),
                 "directory full");
}

} // namespace
} // namespace molcache
