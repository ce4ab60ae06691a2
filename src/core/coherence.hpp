/**
 * @file
 * Inter-cluster coherence directory.
 *
 * Paper section 3: "Ulmo handles tile-misses and the coherence traffic
 * between the tile clusters".  molcache models that traffic with a
 * duplicate-tag style directory shared by all Ulmos: each resident line
 * address maps to the set of clusters holding a copy and an MSI-ish
 * state.  Fills add holders; writes invalidate remote holders; evictions
 * remove them.  With the disjoint per-application address windows of the
 * paper's workloads no invalidations occur (the directory just tracks);
 * shared-address-space workloads (e.g. threads of one application pinned
 * to different clusters) exercise the invalidate path — see
 * tests/core/coherence_test.cpp and examples.
 *
 * The directory sits on the miss path (every fill and eviction) and on
 * every write hit, so it is built to cost as little as it can:
 *
 *  - **One cluster.**  There is no other cluster to invalidate or
 *    downgrade, so the directory is a counter block: the notes update
 *    stats() and a live-entry count and keep no per-line state.  The
 *    counts equal a per-line directory's when every fill brings in a
 *    line the cluster does not hold and every write or eviction names a
 *    held line, i.e. when each line is resident at most once in the
 *    cluster.  Disjoint per-application address windows at line
 *    multiple 1 — the paper's workloads, molcached tenants — satisfy
 *    this; otherwise entries() counts fills net of evictions.  Per-line
 *    queries (isHeld, holderCount, isModified) answer only when
 *    clusters > 1; asking a one-cluster directory is a bug and panics.
 *  - **Several clusters.**  Per-line state lives in a flat open-addressed
 *    table (linear probing, backward-shift deletion, no tombstones) sized
 *    once at construction to twice the cache's line slots, so it never
 *    grows and never allocates after construction.  Every tracked
 *    line is resident somewhere in the cache, so the table never fills;
 *    an insert into a full table is a bug and panics.
 */

#ifndef MOLCACHE_CORE_COHERENCE_HPP
#define MOLCACHE_CORE_COHERENCE_HPP

#include <cstddef>
#include <vector>

#include "contract/contract.hpp"
#include "util/types.hpp"

namespace molcache {

/** Directory statistics. */
struct CoherenceStats
{
    u64 fills = 0;
    u64 writes = 0;
    u64 evictions = 0;
    u64 invalidationsSent = 0;
    u64 downgrades = 0;
};

/** Set of clusters as a bitmask: bit c stands for ClusterId{c}. */
using ClusterMask = u32;

class CoherenceDirectory
{
  public:
    /** Most clusters a directory can track (holder bitmask width). */
    static constexpr u32 kMaxClusters = 32;

    /**
     * @param numClusters 1..32 clusters
     * @param lineSlots   line slots of the whole cache: the most lines
     *                    that can be resident at once (sizes the table
     *                    when numClusters > 1)
     */
    CoherenceDirectory(u32 numClusters, u64 lineSlots);

    /**
     * A line was filled into @p cluster.
     * @param exclusive true when the fill is for a write (M state)
     * @return clusters whose copies must be invalidated (none for reads;
     *         reads of a remotely-modified line downgrade instead)
     */
    ClusterMask noteFill(LineAddr lineAddr, ClusterId cluster,
                         bool exclusive)
    {
        MOLCACHE_EXPECT(cluster.value() < numClusters_,
                        "cluster out of range");
        ++stats_.fills;
        if (numClusters_ == 1) {
            ++entries_;
            return 0;
        }
        return trackFill(lineAddr, cluster, exclusive);
    }

    /**
     * A write hit in @p cluster.
     * @return clusters whose copies must be invalidated
     */
    ClusterMask noteWrite(LineAddr lineAddr, ClusterId cluster)
    {
        MOLCACHE_EXPECT(cluster.value() < numClusters_,
                        "cluster out of range");
        ++stats_.writes;
        if (numClusters_ == 1)
            return 0;
        return claim(findOrInsert(lineAddr.value()), cluster);
    }

    /** @p cluster no longer holds the line. */
    void noteEviction(LineAddr lineAddr, ClusterId cluster)
    {
        MOLCACHE_EXPECT(cluster.value() < numClusters_,
                        "cluster out of range");
        if (numClusters_ == 1) {
            MOLCACHE_EXPECT(entries_ > 0, "eviction of an untracked line");
            ++stats_.evictions;
            --entries_;
            return;
        }
        trackEviction(lineAddr, cluster);
    }

    /** True if @p cluster currently holds @p lineAddr (clusters > 1). */
    bool isHeld(LineAddr lineAddr, ClusterId cluster) const;

    /** Number of clusters holding @p lineAddr (clusters > 1). */
    u32 holderCount(LineAddr lineAddr) const;

    /** True if some cluster holds the line modified (clusters > 1). */
    bool isModified(LineAddr lineAddr) const;

    const CoherenceStats &stats() const { return stats_; }

    /** Tracked line count (size of the directory). */
    size_t entries() const { return entries_; }

  private:
    static constexpr u32 kAbsent = ~u32{0};

    ClusterMask trackFill(LineAddr lineAddr, ClusterId cluster,
                          bool exclusive);
    void trackEviction(LineAddr lineAddr, ClusterId cluster);
    /** Make @p cluster the line's only, modifying holder (exclusive
     * fill or write). @return the holders it displaces */
    ClusterMask claim(u32 slot, ClusterId cluster);

    u32 homeOf(u64 line) const;
    u32 next(u32 slot) const { return slot + 1 == capacity_ ? 0 : slot + 1; }
    /** Slot holding @p line, or kAbsent. */
    u32 find(u64 line) const;
    /** Slot holding @p line, claiming an empty one if it is untracked. */
    u32 findOrInsert(u64 line);
    void eraseAt(u32 slot);
    /** The slot for a per-line query, or kAbsent when untracked. */
    u32 query(LineAddr lineAddr) const;

    u32 numClusters_;
    size_t entries_ = 0;
    // The table (empty with one cluster), one array per field so a slot
    // costs 13 bytes; holders_[i] == 0 marks slot i empty.  A modified
    // line has exactly one holder, its owner, so no owner is stored.
    u32 capacity_ = 0;
    std::vector<u64> lines_;
    std::vector<ClusterMask> holders_;
    std::vector<u8> modified_;
    CoherenceStats stats_;
};

} // namespace molcache

#endif // MOLCACHE_CORE_COHERENCE_HPP
