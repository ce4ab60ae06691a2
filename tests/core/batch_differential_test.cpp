/**
 * @file
 * Differential gate for the batched access plane (docs/perf.md):
 * identical traces through MolecularCache::access() one reference at a
 * time and through accessBatch() in odd-sized blocks must produce
 * identical per-reference AccessResults, identical global and per-ASID
 * statistics, identical energy to the last bit, identical region
 * counters, and identical way-memoization telemetry — across every
 * placement policy, every resize scheme, memoization on and off, the
 * guardian with and without predictive mode (identical guardian
 * telemetry too), the configurations that take the scalar fallback
 * (row-restricted lookup, predictive guardian), faulted runs, and
 * ASID-recycling churn.
 *
 * The batch plane defers and hoists per-reference bookkeeping, so any
 * ordering bug (a flush missed before a resize decision, a stale lane
 * surviving a generation bump, a fault applied one tick late) shows up
 * here as a counter or result divergence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "core/molecular_cache.hpp"
#include "core/sim_access.hpp"
#include "fault/fault_injector.hpp"
#include "sim/experiment.hpp"
#include "util/units.hpp"

namespace molcache {
namespace {

/** Deterministic xorshift trace over @p apps ASIDs; ~25% writes. */
std::vector<MemAccess>
makeTrace(u64 n, u32 apps = 4, u64 lines = 300000)
{
    std::vector<MemAccess> trace;
    trace.reserve(n);
    u64 x = 88172645463325252ull;
    for (u64 i = 0; i < n; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        const u16 asid = static_cast<u16>(i % apps);
        const u64 line = x % lines;
        trace.push_back(MemAccess{line * 64 + asid * (u64{1} << 32),
                                  Asid{asid},
                                  (x >> 20) % 4 == 0 ? AccessType::Write
                                                     : AccessType::Read});
    }
    return trace;
}

/**
 * Two caches built from the same params, driven through the same
 * operation sequence: one takes every reference through access(), the
 * other through accessBatch() in blocks of 257 (odd, so block edges
 * sweep across resize periods and fault ticks).  run() compares every
 * AccessResult field-by-field; finish() compares the accumulated state.
 */
class Twin
{
  public:
    explicit Twin(const MolecularCacheParams &params)
        : scalar_(params), batch_(params)
    {
    }

    void
    attach(Asid asid, double goal, u32 homeTile = 0)
    {
        scalar_.registerApplication(asid, goal, ClusterId{0}, homeTile, 1);
        batch_.registerApplication(asid, goal, ClusterId{0}, homeTile, 1);
    }

    void
    detach(Asid asid)
    {
        scalar_.unregisterApplication(asid);
        batch_.unregisterApplication(asid);
    }

    void
    postPhaseHint(const PhaseHint &hint)
    {
        scalar_.postPhaseHint(hint);
        batch_.postPhaseHint(hint);
    }

    void
    injectFaults(const std::vector<FaultEvent> &events)
    {
        FaultInjector forScalar;
        FaultInjector forBatch;
        for (const FaultEvent &event : events) {
            forScalar.schedule(event);
            forBatch.schedule(event);
        }
        SimAccess{scalar_}.setFaultInjector(std::move(forScalar));
        SimAccess{batch_}.setFaultInjector(std::move(forBatch));
    }

    void
    run(const std::vector<MemAccess> &trace)
    {
        constexpr size_t kBlock = 257;
        std::vector<AccessResult> batched(trace.size());
        for (size_t off = 0; off < trace.size(); off += kBlock) {
            const size_t n = std::min(kBlock, trace.size() - off);
            batch_.accessBatch({trace.data() + off, n},
                               {batched.data() + off, n});
        }
        u64 mismatches = 0;
        for (size_t i = 0; i < trace.size(); ++i) {
            const AccessResult want = scalar_.access(trace[i]);
            const AccessResult &got = batched[i];
            if (want.hit != got.hit || want.level != got.level ||
                want.latencyCycles != got.latencyCycles ||
                want.energyNj != got.energyNj) {
                if (mismatches == 0) {
                    ADD_FAILURE()
                        << "first divergence at reference " << i << ": "
                        << "hit " << want.hit << "/" << got.hit
                        << " level " << int{want.level} << "/"
                        << int{got.level} << " latency "
                        << want.latencyCycles.value() << "/"
                        << got.latencyCycles.value() << " energy "
                        << want.energyNj << "/" << got.energyNj;
                }
                ++mismatches;
            }
        }
        EXPECT_EQ(mismatches, 0u);
    }

    void
    finish(const std::vector<Asid> &asids)
    {
        const AccessCounters &s = scalar_.stats().global();
        const AccessCounters &b = batch_.stats().global();
        EXPECT_EQ(s.accesses, b.accesses);
        EXPECT_EQ(s.hits, b.hits);
        EXPECT_EQ(s.misses, b.misses);
        EXPECT_EQ(s.writes, b.writes);
        EXPECT_EQ(s.writebacks, b.writebacks);
        EXPECT_EQ(s.latencyCycles, b.latencyCycles);
        EXPECT_EQ(scalar_.wayMemoHits(), batch_.wayMemoHits());
        EXPECT_EQ(scalar_.wayMemoMispredicts(), batch_.wayMemoMispredicts());
        EXPECT_EQ(scalar_.wayMemoInvalidations(),
                  batch_.wayMemoInvalidations());
        EXPECT_EQ(scalar_.resizeCycles(), batch_.resizeCycles());
        // Bit-exact: the batch plane accumulates energy in the same
        // floating-point order as the scalar plane.
        EXPECT_EQ(scalar_.totalEnergyNj(), batch_.totalEnergyNj());
        EXPECT_EQ(scalar_.averageProbesPerAccess(),
                  batch_.averageProbesPerAccess());
        const FaultStats &sf = scalar_.faultStats();
        const FaultStats &bf = batch_.faultStats();
        EXPECT_EQ(sf.eventsApplied(), bf.eventsApplied());
        EXPECT_EQ(sf.transientFlipsDetected, bf.transientFlipsDetected);
        EXPECT_EQ(sf.moleculesDecommissioned, bf.moleculesDecommissioned);
        for (const Asid asid : asids) {
            const AccessCounters &sa = scalar_.stats().forAsid(asid);
            const AccessCounters &ba = batch_.stats().forAsid(asid);
            EXPECT_EQ(sa.accesses, ba.accesses) << asid.value();
            EXPECT_EQ(sa.hits, ba.hits) << asid.value();
            EXPECT_EQ(sa.writes, ba.writes) << asid.value();
            EXPECT_EQ(sa.latencyCycles, ba.latencyCycles) << asid.value();
            EXPECT_EQ(scalar_.region(asid).accesses(),
                      batch_.region(asid).accesses())
                << asid.value();
            EXPECT_EQ(scalar_.region(asid).hits(), batch_.region(asid).hits())
                << asid.value();
            EXPECT_EQ(scalar_.region(asid).size(), batch_.region(asid).size())
                << asid.value();
        }
        ASSERT_EQ(scalar_.guardian() == nullptr, batch_.guardian() == nullptr);
        if (scalar_.guardian() != nullptr) {
            const GuardianSummary sg = scalar_.guardian()->summary();
            const GuardianSummary bg = batch_.guardian()->summary();
            EXPECT_EQ(sg.epochsOutsideGoal, bg.epochsOutsideGoal);
            EXPECT_EQ(sg.accessesOutsideGoal, bg.accessesOutsideGoal);
            EXPECT_EQ(sg.floorHits, bg.floorHits);
            EXPECT_EQ(sg.oscillationEvents, bg.oscillationEvents);
            EXPECT_TRUE(sg == bg) << "guardian summaries differ";
            for (const Asid asid : asids)
                EXPECT_TRUE(scalar_.guardian()->telemetry(asid) ==
                            batch_.guardian()->telemetry(asid))
                    << "guardian telemetry differs for ASID "
                    << asid.value();
        }
    }

    const MolecularCache &scalar() const { return scalar_; }

  private:
    MolecularCache scalar_;
    MolecularCache batch_;
};

MolecularCacheParams
diffParams(PlacementPolicy policy, ResizeScheme scheme, bool memo)
{
    MolecularCacheParams p = fig5MolecularParams(2_MiB, policy);
    p.resizeScheme = scheme;
    p.wayMemoization = memo;
    return p;
}

std::vector<Asid>
fourAsids()
{
    return {Asid{0}, Asid{1}, Asid{2}, Asid{3}};
}

void
runMatrixCase(PlacementPolicy policy, ResizeScheme scheme, bool memo)
{
    SCOPED_TRACE(testing::Message()
                 << "placement=" << static_cast<int>(policy)
                 << " scheme=" << static_cast<int>(scheme)
                 << " memo=" << memo);
    Twin twin(diffParams(policy, scheme, memo));
    for (const Asid asid : fourAsids())
        twin.attach(asid, 0.1, asid.value());
    twin.run(makeTrace(60000));
    twin.finish(fourAsids());
}

/** Every placement x resize scheme, memoization on. */
TEST(BatchDifferential, PlacementResizeMatrixMemoOn)
{
    for (const PlacementPolicy policy :
         {PlacementPolicy::Random, PlacementPolicy::Randy,
          PlacementPolicy::LruDirect}) {
        for (const ResizeScheme scheme :
             {ResizeScheme::Constant, ResizeScheme::GlobalAdaptive,
              ResizeScheme::PerAppAdaptive})
            runMatrixCase(policy, scheme, true);
    }
}

/** Memoization off routes accessBatch through the scalar fallback; the
 * fallback must be exercised and identical too. */
TEST(BatchDifferential, PlacementResizeMatrixMemoOff)
{
    for (const PlacementPolicy policy :
         {PlacementPolicy::Random, PlacementPolicy::Randy,
          PlacementPolicy::LruDirect})
        runMatrixCase(policy, ResizeScheme::GlobalAdaptive, false);
}

/** Row-restricted lookup is ineligible for the hoisted fast path. */
TEST(BatchDifferential, RowRestrictedLookupFallback)
{
    MolecularCacheParams p = diffParams(
        PlacementPolicy::Randy, ResizeScheme::GlobalAdaptive, true);
    p.rowRestrictedLookup = true;
    Twin twin(p);
    for (const Asid asid : fourAsids())
        twin.attach(asid, 0.1, asid.value());
    twin.run(makeTrace(40000));
    twin.finish(fourAsids());
}

/**
 * Guardian on, predictive off: the fast plane feeds the guardian's QoS
 * window record by record, in every placement x resize scheme.  A
 * short resize period makes the windows roll and the guardian act
 * within the trace.
 */
TEST(BatchDifferential, GuardianOnPlacementResizeMatrix)
{
    for (const PlacementPolicy policy :
         {PlacementPolicy::Random, PlacementPolicy::Randy,
          PlacementPolicy::LruDirect}) {
        for (const ResizeScheme scheme :
             {ResizeScheme::Constant, ResizeScheme::GlobalAdaptive,
              ResizeScheme::PerAppAdaptive}) {
            SCOPED_TRACE(testing::Message()
                         << "placement=" << static_cast<int>(policy)
                         << " scheme=" << static_cast<int>(scheme));
            MolecularCacheParams p = diffParams(policy, scheme, true);
            p.guardian.enabled = true;
            p.resizePeriod = 3000;
            Twin twin(p);
            for (const Asid asid : fourAsids())
                twin.attach(asid, 0.1, asid.value());
            twin.run(makeTrace(60000));
            twin.finish(fourAsids());
            // The comparison has something to compare.
            const GuardianSummary g = twin.scalar().guardian()->summary();
            EXPECT_GT(g.epochsOutsideGoal, 0u);
            EXPECT_GT(twin.scalar().wayMemoHits(), 0u);
        }
    }
}

/** Predictive mode wakes on the region's access count, which the lanes
 * defer, so batches fall back to the scalar loop — and must stay
 * identical while phase hints arm those wakeups between segments. */
TEST(BatchDifferential, GuardianPredictiveOn)
{
    MolecularCacheParams p = diffParams(
        PlacementPolicy::Randy, ResizeScheme::PerAppAdaptive, true);
    p.guardian.enabled = true;
    p.guardian.predictive.enabled = true;
    p.guardian.predictive.initialTrust = 1.0;
    Twin twin(p);
    for (const Asid asid : fourAsids())
        twin.attach(asid, 0.1, asid.value());
    const std::vector<MemAccess> trace = makeTrace(60000);
    for (size_t off = 0; off < trace.size(); off += 10000) {
        for (const Asid asid : fourAsids()) {
            PhaseHint hint;
            hint.asid = asid;
            hint.leadAccesses = 1500 + 500 * asid.value();
            hint.epochsAhead = 0.5;
            hint.predictedFootprintBytes =
                (off / 10000 % 2 == 0 ? 2 : 16) * 64 * 1024;
            hint.confidence = 0.95;
            twin.postPhaseHint(hint);
        }
        twin.run(std::vector<MemAccess>(
            trace.begin() + static_cast<std::ptrdiff_t>(off),
            trace.begin() + static_cast<std::ptrdiff_t>(off + 10000)));
    }
    twin.finish(fourAsids());
    const GuardianSummary g = twin.scalar().guardian()->summary();
    EXPECT_GT(g.hintsSeen, 0u);
    EXPECT_GT(g.preGrantMolecules + g.preWithdrawMolecules, 0u);
}

/**
 * Faults inside batch blocks: transient flips (which permanently fuse
 * memoization off mid-run), hard faults and a tile outage, all at ticks
 * deliberately unaligned with the 257-reference block size.
 */
TEST(BatchDifferential, FaultedRunFusesIdentically)
{
    Twin twin(diffParams(PlacementPolicy::Randy,
                         ResizeScheme::GlobalAdaptive, true));
    for (const Asid asid : fourAsids())
        twin.attach(asid, 0.1, asid.value());
    twin.injectFaults({
        {5000, FaultKind::TransientFlip, 3, 2},
        {5003, FaultKind::TransientFlip, 7, 0},
        {17001, FaultKind::HardFault, 11, 0},
        {29999, FaultKind::TileOutage, 2, 0},
        {41234, FaultKind::TransientFlip, 19, 5},
    });
    twin.run(makeTrace(60000));
    twin.finish(fourAsids());
}

/**
 * ASID-recycling churn: detach two tenants mid-stream and re-register
 * their ASIDs for successor regions.  The successor's generation
 * counter restarts and the region map node may even reuse the freed
 * address, so this pins the lane-invalidation path (a dangling lane
 * would replay the predecessor's probe schedule).
 */
TEST(BatchDifferential, AsidRecyclingChurn)
{
    Twin twin(diffParams(PlacementPolicy::Randy,
                         ResizeScheme::PerAppAdaptive, true));
    for (const Asid asid : fourAsids())
        twin.attach(asid, 0.1, asid.value());
    const std::vector<MemAccess> trace = makeTrace(90000);
    const auto slice = [&](size_t from, size_t count) {
        return std::vector<MemAccess>(
            trace.begin() + static_cast<std::ptrdiff_t>(from),
            trace.begin() + static_cast<std::ptrdiff_t>(from + count));
    };
    twin.run(slice(0, 30000));
    twin.detach(Asid{1});
    twin.detach(Asid{3});
    // Recycled: same ASIDs, different goals and home tiles.
    twin.attach(Asid{1}, 0.2, 2);
    twin.attach(Asid{3}, 0.05, 0);
    twin.run(slice(30000, 30000));
    twin.detach(Asid{1});
    twin.attach(Asid{1}, 0.1, 1);
    twin.run(slice(60000, 30000));
    twin.finish(fourAsids());
}

} // namespace
} // namespace molcache
