/**
 * @file
 * Pins the zero-allocation property of the steady-state access path
 * (docs/perf.md): once a working set is warm, MolecularCache::access
 * must perform no heap allocations — the memoized probe schedules and
 * dense indices make the hot path allocation-free, and this test is the
 * gate that keeps it that way.
 *
 * The whole binary's global operator new/delete are replaced with
 * counting versions; the test samples the counter around a window of
 * all-hit accesses — and around miss-bearing windows on the paper's
 * geometries, where fills, evictions, the coherence directory and
 * cross-cluster invalidations run — and requires it not to move.  This
 * TU must stay its own test binary so the override cannot perturb the
 * other suites.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/molecular_cache.hpp"
#include "sim/experiment.hpp"
#include "util/units.hpp"

namespace {

std::atomic<unsigned long long> g_heapAllocs{0};

void *
countedAlloc(std::size_t size)
{
    ++g_heapAllocs;
    void *p = std::malloc(size == 0 ? 1 : size);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

void *
countedAlignedAlloc(std::size_t size, std::size_t align)
{
    ++g_heapAllocs;
    // aligned_alloc requires the size to be a multiple of the alignment.
    const std::size_t rounded = (size + align - 1) / align * align;
    void *p = std::aligned_alloc(align, rounded == 0 ? align : rounded);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new[](std::size_t size)
{
    return countedAlloc(size);
}
void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlignedAlloc(size, static_cast<std::size_t>(align));
}
void
operator delete(void *p) noexcept
{
    std::free(p);
}
void
operator delete[](void *p) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

namespace molcache {
namespace {

MolecularCacheParams
steadyParams(PlacementPolicy policy, bool rowRestricted)
{
    MolecularCacheParams p;
    p.moleculeSize = 8_KiB;
    p.moleculesPerTile = 8;
    p.tilesPerCluster = 2;
    p.clusters = 1;
    p.placement = policy;
    p.rowRestrictedLookup = rowRestricted;
    p.initialAllocation = InitialAllocation::Small;
    p.initialMolecules = 2;
    p.resizePeriod = 1u << 30; // no resize inside the measured window
    p.maxResizePeriod = 1u << 30;
    return p;
}

void
expectZeroAllocSteadyState(PlacementPolicy policy, bool rowRestricted)
{
    MolecularCache cache(steadyParams(policy, rowRestricted));
    for (u16 a = 0; a < 2; ++a)
        cache.registerApplication(Asid{a}, 0.1);

    // Working set: one molecule's worth of distinct line slots per app.
    // Every line lands in its own slot, so warmup fills never displace
    // and every later access hits — the steady-state regime.
    std::vector<MemAccess> trace;
    for (u32 i = 0; i < 128; ++i) {
        for (u16 a = 0; a < 2; ++a) {
            trace.push_back({static_cast<Addr>(i) * 64, Asid{a},
                             i % 7 == 0 ? AccessType::Write
                                        : AccessType::Read});
        }
    }
    for (int pass = 0; pass < 3; ++pass)
        for (const MemAccess &m : trace)
            cache.access(m);

    u64 hits = 0;
    const unsigned long long before = g_heapAllocs.load();
    for (int pass = 0; pass < 10; ++pass)
        for (const MemAccess &m : trace)
            hits += cache.access(m).hit ? 1 : 0;
    const unsigned long long after = g_heapAllocs.load();

    ASSERT_EQ(hits, 10u * trace.size())
        << "measurement window must be all hits (steady state)";
    EXPECT_EQ(after - before, 0u)
        << "steady-state accesses must not allocate";
}

TEST(HotpathAllocations, ZeroPerAccessRandom)
{
    expectZeroAllocSteadyState(PlacementPolicy::Random, false);
}

TEST(HotpathAllocations, ZeroPerAccessRandy)
{
    expectZeroAllocSteadyState(PlacementPolicy::Randy, false);
}

TEST(HotpathAllocations, ZeroPerAccessRandyRowRestricted)
{
    expectZeroAllocSteadyState(PlacementPolicy::Randy, true);
}

TEST(HotpathAllocations, ZeroPerAccessLruDirect)
{
    expectZeroAllocSteadyState(PlacementPolicy::LruDirect, false);
}

/**
 * Same gate for the batched plane: once the per-ASID lanes and the
 * way-memo tables exist (built by the first block after warmup),
 * steady-state accessBatch() must not allocate either — lane rebuilds
 * happen only on generation changes, and none occur in the window.
 */
void
expectZeroAllocBatchSteadyState(PlacementPolicy policy, bool rowRestricted)
{
    MolecularCache cache(steadyParams(policy, rowRestricted));
    for (u16 a = 0; a < 2; ++a)
        cache.registerApplication(Asid{a}, 0.1);

    std::vector<MemAccess> trace;
    for (u32 i = 0; i < 128; ++i) {
        for (u16 a = 0; a < 2; ++a) {
            trace.push_back({static_cast<Addr>(i) * 64, Asid{a},
                             i % 7 == 0 ? AccessType::Write
                                        : AccessType::Read});
        }
    }
    std::vector<AccessResult> results(trace.size());
    for (int pass = 0; pass < 3; ++pass)
        for (const MemAccess &m : trace)
            cache.access(m);
    // One warm batch pass builds the lanes + memo tables.
    cache.accessBatch({trace.data(), trace.size()},
                      {results.data(), results.size()});

    u64 hits = 0;
    const unsigned long long before = g_heapAllocs.load();
    for (int pass = 0; pass < 10; ++pass) {
        cache.accessBatch({trace.data(), trace.size()},
                          {results.data(), results.size()});
        for (const AccessResult &r : results)
            hits += r.hit ? 1 : 0;
    }
    const unsigned long long after = g_heapAllocs.load();

    ASSERT_EQ(hits, 10u * trace.size())
        << "measurement window must be all hits (steady state)";
    EXPECT_EQ(after - before, 0u)
        << "steady-state batched accesses must not allocate";
}

TEST(HotpathAllocations, ZeroPerBatchRandom)
{
    expectZeroAllocBatchSteadyState(PlacementPolicy::Random, false);
}

TEST(HotpathAllocations, ZeroPerBatchRandy)
{
    expectZeroAllocBatchSteadyState(PlacementPolicy::Randy, false);
}

TEST(HotpathAllocations, ZeroPerBatchLruDirect)
{
    expectZeroAllocBatchSteadyState(PlacementPolicy::LruDirect, false);
}

/** The scalar-fallback batch path (row-restricted is ineligible for
 * lane hoisting) must be allocation-free too. */
TEST(HotpathAllocations, ZeroPerBatchRowRestrictedFallback)
{
    expectZeroAllocBatchSteadyState(PlacementPolicy::Randy, true);
}

/**
 * Miss-bearing steady state on the paper geometries.  Figure 5 (one
 * cluster): four applications sweep private windows twice the size of
 * the whole cache, so every pass misses, fills and evicts.  Table 2
 * (three clusters): one application per cluster shares a single window
 * with a write mix, so every write invalidates the other clusters'
 * copies and their next reads miss.  Resizing is pushed out of the
 * window; everything else on the miss path — fills, evictions, the
 * coherence directory, cross-cluster invalidations — must not allocate.
 */
enum class MissGeometry { Fig5, Table2 };

void
expectZeroAllocMissWindow(MissGeometry geometry, bool batch)
{
    MolecularCacheParams p =
        geometry == MissGeometry::Fig5
            ? fig5MolecularParams(2_MiB, PlacementPolicy::Random, 1)
            : table2MolecularParams(PlacementPolicy::Randy, 1);
    p.resizePeriod = 1u << 30; // no resize inside the measured window
    p.maxResizePeriod = 1u << 30;
    MolecularCache cache(p);
    const bool shared = geometry == MissGeometry::Table2;
    const u16 apps = shared ? 3 : 4;
    registerApplications(cache, apps, 0.1);

    const u64 windowLines = 2 * p.totalSizeBytes().value() / p.lineSize;
    std::vector<MemAccess> trace;
    u64 x = 88172645463325252ull;
    for (u32 i = 0; i < 20000; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const u16 a = static_cast<u16>(i % apps);
        const Addr base = shared ? 0 : static_cast<Addr>(a) << 32;
        trace.push_back({base + (x % windowLines) * p.lineSize, Asid{a},
                         (x >> 40) % 4 == 0 ? AccessType::Write
                                            : AccessType::Read});
    }
    std::vector<AccessResult> results(trace.size());
    auto pass = [&] {
        if (batch) {
            cache.accessBatch({trace.data(), trace.size()},
                              {results.data(), results.size()});
            return;
        }
        for (size_t i = 0; i < trace.size(); ++i)
            results[i] = cache.access(trace[i]);
    };
    for (int warm = 0; warm < 3; ++warm)
        pass();

    u64 misses = 0;
    const u64 invalidationsBefore =
        cache.directory().stats().invalidationsSent;
    const u64 evictionsBefore = cache.directory().stats().evictions;
    const unsigned long long before = g_heapAllocs.load();
    for (int window = 0; window < 5; ++window) {
        pass();
        for (const AccessResult &r : results)
            misses += r.hit ? 0 : 1;
    }
    const unsigned long long after = g_heapAllocs.load();

    ASSERT_GT(misses, trace.size()) << "window must bear misses";
    ASSERT_GT(cache.directory().stats().evictions, evictionsBefore)
        << "window must evict";
    if (shared) {
        ASSERT_GT(cache.directory().stats().invalidationsSent,
                  invalidationsBefore)
            << "window must invalidate across clusters";
    }
    EXPECT_EQ(after - before, 0u)
        << "steady-state misses must not allocate";
}

TEST(HotpathAllocations, ZeroPerMissFig5)
{
    expectZeroAllocMissWindow(MissGeometry::Fig5, false);
}

TEST(HotpathAllocations, ZeroPerMissBatchFig5)
{
    expectZeroAllocMissWindow(MissGeometry::Fig5, true);
}

TEST(HotpathAllocations, ZeroPerMissTable2Invalidating)
{
    expectZeroAllocMissWindow(MissGeometry::Table2, false);
}

TEST(HotpathAllocations, ZeroPerMissBatchTable2Invalidating)
{
    expectZeroAllocMissWindow(MissGeometry::Table2, true);
}

/**
 * A molcached shard's steady state: the service's per-shard geometry
 * (the default MolecularCacheParams, one cluster) with the guardian on,
 * as every service shard runs it, and 64-reference accessBatch bursts
 * (one tenant each, 20% writes) over footprints that together overflow
 * the shard, so the batched plane feeds the guardian's QoS window
 * through fills and evictions.  Resizing is pushed out of the window
 * as above.
 */
TEST(HotpathAllocations, ZeroPerMissBatchGuardianServiceShard)
{
    MolecularCacheParams p;
    p.guardian.enabled = true;
    p.resizePeriod = 1u << 30;
    p.maxResizePeriod = 1u << 30;
    MolecularCache cache(p);
    constexpr u16 kTenants = 4;
    for (u16 a = 0; a < kTenants; ++a)
        cache.registerApplication(Asid{a}, 0.1);
    ASSERT_NE(cache.guardian(), nullptr);

    constexpr size_t kBurst = 64;
    const u64 footprintLines = p.totalSizeBytes().value() / p.lineSize / 2;
    std::vector<MemAccess> trace;
    u64 x = 88172645463325252ull;
    for (u32 b = 0; b < 400; ++b) {
        const u16 a = static_cast<u16>(b % kTenants);
        for (size_t i = 0; i < kBurst; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            trace.push_back({(static_cast<Addr>(a) << 32) +
                                 (x % footprintLines) * p.lineSize,
                             Asid{a},
                             (x >> 40) % 5 == 0 ? AccessType::Write
                                                : AccessType::Read});
        }
    }
    std::vector<AccessResult> results(trace.size());
    auto pass = [&] {
        for (size_t off = 0; off < trace.size(); off += kBurst)
            cache.accessBatch({trace.data() + off, kBurst},
                              {results.data() + off, kBurst});
    };
    for (int warm = 0; warm < 3; ++warm)
        pass();

    u64 misses = 0;
    u64 hits = 0;
    const u64 evictionsBefore = cache.directory().stats().evictions;
    const unsigned long long before = g_heapAllocs.load();
    for (int window = 0; window < 5; ++window) {
        pass();
        for (const AccessResult &r : results)
            (r.hit ? hits : misses) += 1;
    }
    const unsigned long long after = g_heapAllocs.load();

    ASSERT_GT(misses, trace.size()) << "window must bear misses";
    ASSERT_GT(hits, 0u) << "window must bear hits";
    ASSERT_GT(cache.directory().stats().evictions, evictionsBefore)
        << "window must evict";
    EXPECT_EQ(after - before, 0u)
        << "guardian-on batched misses must not allocate";
}

/** The counter itself must observe allocations, or the zero above would
 * be vacuous. */
TEST(HotpathAllocations, CounterSeesAllocations)
{
    const unsigned long long before = g_heapAllocs.load();
    auto *v = new std::vector<int>(64, 1);
    EXPECT_EQ(v->size(), 64u);
    delete v;
    EXPECT_GT(g_heapAllocs.load(), before);
}

} // namespace
} // namespace molcache
