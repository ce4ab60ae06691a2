/**
 * @file
 * Differential gate for the residency index (docs/perf.md "The
 * residency index").  A reference built outside the cache — planLookup()
 * over the requestor's region plus the home tile's foreign shared-bit
 * molecules, each probed with Molecule::probe through the public const
 * accessors — predicts every access's hit, lookup level and latency
 * (which counts the remote tiles Ulmo visits) before the cache serves
 * it.  The cache must agree on every reference, through access()
 * and, on a twin driven through accessBatch() in odd-sized blocks, on
 * the batched plane too; after every segment the index must hold
 * exactly the resident lines of the regions it tracks.
 *
 * The scenarios cover the index's bookkeeping (fills and evictions,
 * resize grants and withdrawals, migration, hard faults, tile outages,
 * cross-cluster invalidations, ASID recycling) and every fallback to
 * the probe walk (line multiple 2, a foreign shared-bit molecule on the
 * home tile, a transient flip, row-restricted lookup).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <vector>

#include "core/molecular_cache.hpp"
#include "core/placement.hpp"
#include "core/sim_access.hpp"
#include "sim/experiment.hpp"
#include "util/units.hpp"

namespace molcache {
namespace {

/** What the reference predicts for one access: hit, lookup level, and
 * the latency of the tiles the lookup visits. */
struct Expected
{
    bool hit = false;
    u8 level = 2;
    Cycles latency{};
};

/**
 * Reference lookup, read before the access.  A poisoned slot reads as a
 * miss: the cache's walk scrubs it and moves on, so the verdict is the
 * same.
 */
Expected
referenceLookup(const MolecularCache &cache, const MemAccess &a)
{
    const MolecularCacheParams &p = cache.params();
    const Region &region = cache.region(a.asid);
    const LookupPlan plan = planLookup(region, region.homeTile(), a.addr,
                                       p.rowRestrictedLookup);
    const auto hits = [&](MoleculeId id) {
        return cache.molecule(id).probe(a.addr) ==
               Molecule::ProbeOutcome::Hit;
    };
    Expected e;
    e.latency = p.asidStageCycles + p.moleculeAccessCycles;
    for (const MoleculeId id : plan.home.molecules)
        if (hits(id))
            return {true, 0, e.latency};
    // Shared-bit molecules of other regions answer every request that
    // enters their tile (paper figure 3).
    const Tile &home = cache.tile(region.homeTile());
    const MoleculeId first = home.firstMolecule();
    for (MoleculeId id = first; id < first + home.numMolecules(); ++id) {
        if (cache.molecule(id).sharedBit() && !region.contains(id) &&
            hits(id))
            return {true, 0, e.latency};
    }
    // Ulmo visits the remote tiles in order until one hits.
    for (const TileProbes &tp : plan.remote) {
        e.latency += p.ulmoHopCycles + p.asidStageCycles +
                     p.moleculeAccessCycles;
        for (const MoleculeId id : tp.molecules)
            if (hits(id))
                return {true, 1, e.latency};
    }
    e.latency += p.missPenaltyCycles;
    return e;
}

/** Lines the index must hold: the resident lines of every region at
 * line multiple 1 under whole-region lookup. */
size_t
indexedLines(const MolecularCache &cache)
{
    size_t lines = 0;
    if (cache.params().rowRestrictedLookup)
        return 0;
    for (const Asid asid : cache.registeredAsids())
        if (cache.region(asid).lineMultiple() == 1)
            lines += cache.residentLines(asid);
    return lines;
}

/**
 * Deterministic xorshift trace over @p asids.  Each ASID reads a private
 * window unless @p shared, in which case all of them share one (so
 * writes in one cluster invalidate copies in the others).  One access
 * in @p writeEvery is a write (0 = reads only).
 */
std::vector<MemAccess>
makeTrace(u64 n, const std::vector<Asid> &asids, u64 lines, u64 seed,
          bool shared = false, u32 writeEvery = 0)
{
    std::vector<MemAccess> trace;
    trace.reserve(n);
    u64 x = 88172645463325252ull ^ (seed * 0x9E3779B97F4A7C15ull);
    for (u64 i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const Asid asid = asids[i % asids.size()];
        const u64 window = shared ? 0 : u64{asid.value()} << 32;
        const bool write = writeEvery != 0 && (x >> 20) % writeEvery == 0;
        trace.push_back(MemAccess{(x % lines) * 64 + window, asid,
                                  write ? AccessType::Write
                                        : AccessType::Read});
    }
    return trace;
}

/**
 * Two caches built from the same params and driven through the same
 * operations: one serves each reference through access() after the
 * reference predicted it, the other serves the same references through
 * accessBatch() in blocks of 61 and must return the same results.
 */
class Harness
{
  public:
    explicit Harness(const MolecularCacheParams &params)
        : scalar_(params), batch_(params)
    {
    }

    void
    attach(Asid asid, ClusterId cluster, u32 tile, u32 lineMultiple = 1,
           double goal = 0.1)
    {
        for (MolecularCache *cache : {&scalar_, &batch_})
            cache->registerApplication(asid, goal, cluster, tile,
                                       lineMultiple);
    }

    /** ASID recycling: drop the tenant and its statistics slot. */
    void
    detach(Asid asid)
    {
        for (MolecularCache *cache : {&scalar_, &batch_}) {
            cache->unregisterApplication(asid);
            cache->retireApplicationStats(asid);
        }
    }

    /** Apply @p op to both caches through the simulator facade. */
    template <typename Op>
    void
    sim(Op op)
    {
        SimAccess scalar{scalar_};
        SimAccess batch{batch_};
        op(scalar);
        op(batch);
    }

    void
    setGoal(Asid asid, double goal)
    {
        scalar_.setResizeGoal(asid, goal);
        batch_.setResizeGoal(asid, goal);
    }

    void
    run(const std::vector<MemAccess> &trace)
    {
        constexpr size_t kBlock = 61;
        std::vector<AccessResult> batched(trace.size());
        for (size_t off = 0; off < trace.size(); off += kBlock) {
            const size_t n = std::min(kBlock, trace.size() - off);
            batch_.accessBatch({trace.data() + off, n},
                               {batched.data() + off, n});
        }
        u64 mismatches = 0;
        for (size_t i = 0; i < trace.size(); ++i) {
            const Expected want = referenceLookup(scalar_, trace[i]);
            const AccessResult got = scalar_.access(trace[i]);
            const AccessResult &viaBatch = batched[i];
            if (want.hit != got.hit || want.level != got.level ||
                want.latency != got.latencyCycles ||
                got.hit != viaBatch.hit || got.level != viaBatch.level ||
                got.latencyCycles != viaBatch.latencyCycles) {
                if (mismatches == 0) {
                    ADD_FAILURE()
                        << "first divergence at reference " << i
                        << " (asid " << trace[i].asid.value() << ", addr "
                        << trace[i].addr << "): reference hit " << want.hit
                        << " level " << int{want.level} << " latency "
                        << want.latency.value() << ", access hit "
                        << got.hit << " level " << int{got.level}
                        << " latency " << got.latencyCycles.value()
                        << ", accessBatch hit " << viaBatch.hit
                        << " level " << int{viaBatch.level} << " latency "
                        << viaBatch.latencyCycles.value();
                }
                ++mismatches;
            }
            ++levels_[got.level];
        }
        EXPECT_EQ(mismatches, 0u);
        EXPECT_EQ(scalar_.residencyEntries(), indexedLines(scalar_));
        EXPECT_EQ(batch_.residencyEntries(), indexedLines(batch_));
        EXPECT_EQ(scalar_.residencyEntries(), batch_.residencyEntries());
    }

    /** Accesses served at lookup level @p level so far (coverage). */
    u64 served(u8 level) const { return levels_[level]; }

    const MolecularCache &cache() const { return scalar_; }
    const MolecularCache &batchCache() const { return batch_; }

  private:
    MolecularCache scalar_;
    MolecularCache batch_;
    std::array<u64, 3> levels_{};
};

const std::vector<Asid> kFour{Asid{0}, Asid{1}, Asid{2}, Asid{3}};

/** Figure 5 geometry, per-application resizing on a short period so
 * regions grow across tiles (remote hits) and churn. */
MolecularCacheParams
churnParams(PlacementPolicy policy)
{
    MolecularCacheParams p = fig5MolecularParams(2_MiB, policy);
    p.resizeScheme = ResizeScheme::PerAppAdaptive;
    p.resizePeriod = 3000;
    return p;
}

void
attachFour(Harness &h)
{
    for (const Asid asid : kFour)
        h.attach(asid, ClusterId{0}, asid.value());
}

TEST(ResidencyIndex, AgreesWithProbeUnderEveryPlacement)
{
    for (const PlacementPolicy policy :
         {PlacementPolicy::Random, PlacementPolicy::Randy,
          PlacementPolicy::LruDirect}) {
        SCOPED_TRACE(placementPolicyName(policy));
        Harness h(churnParams(policy));
        // Two regions per home tile: growth spills onto tiles 2 and 3.
        for (const Asid asid : kFour)
            h.attach(asid, ClusterId{0}, asid.value() / 2u);
        h.run(makeTrace(60000, kFour, 12000, 1, false, 4));
        EXPECT_GT(h.served(0), 0u);
        EXPECT_GT(h.served(1), 0u);
        EXPECT_GT(h.served(2), 0u);
        EXPECT_GT(h.cache().residencyEntries(), 0u);
    }
}

TEST(ResidencyIndex, ResizeChurnGrowsAndWithdraws)
{
    Harness h(churnParams(PlacementPolicy::Randy));
    attachFour(h);
    h.run(makeTrace(30000, kFour, 16000, 2));
    // A generous goal makes Algorithm 1 hand molecules back, a strict
    // one makes it take them again.
    for (const Asid asid : kFour)
        h.setGoal(asid, 0.9);
    h.run(makeTrace(30000, kFour, 16000, 3));
    for (const Asid asid : kFour)
        h.setGoal(asid, 0.01);
    h.run(makeTrace(30000, kFour, 16000, 4));
    EXPECT_GT(h.cache().resizer().granted(), 0u);
    EXPECT_GT(h.cache().resizer().withdrawn(), 0u);
}

TEST(ResidencyIndex, SameClusterMigrationServesRemoteHits)
{
    Harness h(churnParams(PlacementPolicy::Random));
    attachFour(h);
    h.run(makeTrace(20000, kFour, 4000, 5));
    const u64 remote_before = h.served(1);
    // Rotate every home tile: each region's lines become remote.
    h.sim([](SimAccess &s) {
        for (const Asid asid : kFour)
            s.migrateApplication(asid, ClusterId{0},
                                 (asid.value() + 1u) % 4u);
    });
    h.run(makeTrace(20000, kFour, 4000, 5));
    EXPECT_GT(h.served(1), remote_before);
}

TEST(ResidencyIndex, CrossClusterMigrationDropsTheLines)
{
    Harness h(table2MolecularParams(PlacementPolicy::Randy));
    for (const Asid asid : kFour)
        h.attach(asid, ClusterId{asid.value() % 3u}, asid.value() % 4u);
    h.run(makeTrace(20000, kFour, 6000, 6));
    h.sim([](SimAccess &s) {
        s.migrateApplication(Asid{0}, ClusterId{2}, 1);
        s.migrateApplication(Asid{1}, ClusterId{0}, 3);
    });
    h.run(makeTrace(20000, kFour, 6000, 7));
}

TEST(ResidencyIndex, HardFaultsAndTileOutages)
{
    MolecularCacheParams p = churnParams(PlacementPolicy::Randy);
    p.hardFaultThreshold = 1;
    Harness h(p);
    attachFour(h);
    h.run(makeTrace(20000, kFour, 8000, 8));
    h.sim([](SimAccess &s) {
        for (u32 id = 3; id < 256; id += 37)
            s.injectHardFault(MoleculeId{id});
    });
    h.run(makeTrace(20000, kFour, 8000, 9));
    h.sim([](SimAccess &s) { s.injectTileOutage(TileId{1}); });
    h.run(makeTrace(20000, kFour, 8000, 10));
    EXPECT_GT(h.cache().decommissionedMolecules(), 64u);
}

TEST(ResidencyIndex, Table2WritesInvalidateAcrossClusters)
{
    Harness h(table2MolecularParams(PlacementPolicy::Random));
    const std::vector<Asid> six{Asid{0}, Asid{1}, Asid{2},
                                Asid{3}, Asid{4}, Asid{5}};
    for (const Asid asid : six)
        h.attach(asid, ClusterId{asid.value() % 3u}, asid.value() % 4u);
    h.run(makeTrace(60000, six, 3000, 11, /*shared=*/true, 4));
    EXPECT_GT(h.cache().directory().stats().invalidationsSent, 0u);
}

TEST(ResidencyIndex, AsidRecycling)
{
    Harness h(churnParams(PlacementPolicy::Randy));
    attachFour(h);
    h.run(makeTrace(20000, kFour, 8000, 12, false, 4));
    h.detach(Asid{1});
    h.detach(Asid{3});
    // Recycled: same ASIDs, other home tiles, same address windows.
    h.attach(Asid{1}, ClusterId{0}, 2);
    h.attach(Asid{3}, ClusterId{0}, 0);
    h.run(makeTrace(20000, kFour, 8000, 13, false, 4));
    h.detach(Asid{1});
    h.attach(Asid{1}, ClusterId{0}, 1);
    h.run(makeTrace(20000, kFour, 8000, 14, false, 4));
}

/** Way-memo telemetry of one cache: hits, mispredicts, table rebuilds. */
std::array<u64, 3>
memoCounts(const MolecularCache &cache)
{
    return {cache.wayMemoHits(), cache.wayMemoMispredicts(),
            cache.wayMemoInvalidations()};
}

/**
 * Where the index is exact, the way-memo verdict is read off it instead
 * of re-probing the predicted molecule.  The counters must come out as
 * the live probe made them: these values were recorded with the live
 * re-validation on every lookup, and both planes must reproduce them
 * over remote hits and resize churn, a same-cluster migration,
 * cross-cluster invalidations, a foreign shared-bit molecule that
 * switches the lookup between the index and the walk, and regions
 * small enough that the memo's 32 tag bits alias two lines (a
 * prediction may name a home molecule holding the other one).
 */
TEST(ResidencyIndex, WayMemoVerdictMatchesTheLiveProbe)
{
    std::vector<std::array<u64, 3>> got;
    const auto record = [&](const Harness &h) {
        EXPECT_EQ(memoCounts(h.cache()), memoCounts(h.batchCache()));
        got.push_back(memoCounts(h.cache()));
    };
    for (const PlacementPolicy policy :
         {PlacementPolicy::Random, PlacementPolicy::Randy,
          PlacementPolicy::LruDirect}) {
        Harness h(churnParams(policy));
        for (const Asid asid : kFour)
            h.attach(asid, ClusterId{0}, asid.value() / 2u);
        h.run(makeTrace(60000, kFour, 12000, 1, false, 4));
        record(h);
    }
    {
        Harness h(churnParams(PlacementPolicy::Random));
        attachFour(h);
        h.run(makeTrace(20000, kFour, 4000, 5));
        h.sim([](SimAccess &s) {
            for (const Asid asid : kFour)
                s.migrateApplication(asid, ClusterId{0},
                                     (asid.value() + 1u) % 4u);
        });
        h.run(makeTrace(20000, kFour, 4000, 5));
        record(h);
    }
    {
        Harness h(table2MolecularParams(PlacementPolicy::Random));
        const std::vector<Asid> six{Asid{0}, Asid{1}, Asid{2},
                                    Asid{3}, Asid{4}, Asid{5}};
        for (const Asid asid : six)
            h.attach(asid, ClusterId{asid.value() % 3u},
                     asid.value() % 4u);
        h.run(makeTrace(60000, six, 3000, 11, /*shared=*/true, 4));
        record(h);
    }
    {
        MolecularCacheParams p = churnParams(PlacementPolicy::Random);
        p.resizePeriod = 1u << 30;
        p.maxResizePeriod = 1u << 30;
        Harness h(p);
        h.attach(Asid{0}, ClusterId{0}, 0);
        h.attach(Asid{1}, ClusterId{0}, 0);
        const std::vector<Asid> both{Asid{0}, Asid{1}};
        h.run(makeTrace(10000, both, 2000, 16, true));
        const MoleculeId shared =
            h.cache().region(Asid{0}).byTile().at(TileId{0}).front();
        h.sim([&](SimAccess &s) { s.setSharedMolecule(shared, true); });
        h.run(makeTrace(20000, both, 2000, 17, true, 4));
        h.sim([&](SimAccess &s) { s.setSharedMolecule(shared, false); });
        h.run(makeTrace(10000, both, 2000, 18, true));
        record(h);
    }
    {
        // Two molecules per region for good: a 512-slot memo table
        // keys address bits 6-14 and tags bits 16 up, so lines that
        // differ in bit 15 alias, and both can be resident at home.
        MolecularCacheParams p = churnParams(PlacementPolicy::Random);
        p.initialAllocation = InitialAllocation::Small;
        p.initialMolecules = 2;
        p.resizePeriod = 1u << 30;
        p.maxResizePeriod = 1u << 30;
        Harness h(p);
        attachFour(h);
        h.run(makeTrace(40000, kFour, 4096, 22, false, 4));
        record(h);
    }
    const std::vector<std::array<u64, 3>> want{
        {2892, 638, 8},  {2884, 625, 8},   {4539, 2, 8},
        {2267, 324, 12}, {6420, 3177, 17}, {29966, 762, 2},
        {133, 1567, 4},
    };
    ASSERT_EQ(got.size(), want.size());
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got[i], want[i])
            << "scenario " << i << ": hits " << got[i][0]
            << ", mispredicts " << got[i][1] << ", invalidations "
            << got[i][2];
        EXPECT_GT(got[i][0], 0u) << "scenario " << i;
        EXPECT_GT(got[i][1], 0u) << "scenario " << i;
    }
}

// Fallbacks: the index is not read, the walk runs, the answers agree.

TEST(ResidencyIndex, LineMultipleTwoIsNotIndexed)
{
    Harness h(churnParams(PlacementPolicy::Random));
    h.attach(Asid{0}, ClusterId{0}, 0, 2);
    h.attach(Asid{1}, ClusterId{0}, 1, 1);
    h.attach(Asid{2}, ClusterId{0}, 2, 2);
    h.run(makeTrace(30000, {Asid{0}, Asid{1}, Asid{2}}, 8000, 15));
    EXPECT_EQ(h.cache().residencyEntries(),
              static_cast<size_t>(h.cache().residentLines(Asid{1})));
}

TEST(ResidencyIndex, ForeignSharedBitMoleculeOnTheHomeTile)
{
    // Fixed capacity: a withdrawal would release the shared molecule
    // while the tile still lists it.
    MolecularCacheParams p = churnParams(PlacementPolicy::Random);
    p.resizePeriod = 1u << 30;
    p.maxResizePeriod = 1u << 30;
    Harness h(p);
    // Two regions entering through tile 0, sharing one address window.
    h.attach(Asid{0}, ClusterId{0}, 0);
    h.attach(Asid{1}, ClusterId{0}, 0);
    const std::vector<Asid> both{Asid{0}, Asid{1}};
    h.run(makeTrace(10000, both, 2000, 16, true));
    const MoleculeId shared =
        h.cache().region(Asid{0}).byTile().at(TileId{0}).front();
    h.sim([&](SimAccess &s) { s.setSharedMolecule(shared, true); });
    h.run(makeTrace(20000, both, 2000, 17, true, 4));
    h.sim([&](SimAccess &s) { s.setSharedMolecule(shared, false); });
    h.run(makeTrace(10000, both, 2000, 18, true));
}

TEST(ResidencyIndex, TransientFlipRetiresTheIndex)
{
    Harness h(churnParams(PlacementPolicy::Randy));
    attachFour(h);
    h.run(makeTrace(20000, kFour, 6000, 19));
    h.sim([&](SimAccess &s) {
        for (u32 id = 0; id < 256; id += 5)
            for (u32 line = 0; line < 128; line += 9)
                s.injectTransientFlip(MoleculeId{id}, line);
    });
    h.run(makeTrace(30000, kFour, 6000, 20, false, 4));
    EXPECT_GT(h.cache().faultStats().transientFlipsDetected, 0u);
}

TEST(ResidencyIndex, RowRestrictedLookupIsNotIndexed)
{
    MolecularCacheParams p = churnParams(PlacementPolicy::Randy);
    p.rowRestrictedLookup = true;
    Harness h(p);
    attachFour(h);
    h.run(makeTrace(30000, kFour, 8000, 21));
    EXPECT_EQ(h.cache().residencyEntries(), 0u);
}

} // namespace
} // namespace molcache
