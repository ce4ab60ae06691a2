#include "layers.hpp"

#include <algorithm>

#include "cache/set_assoc.hpp"
#include "sim/experiment.hpp"
#include "util/units.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace molbench {

using namespace molcache;

void
CoreProbe::absorbCounters(const MolecularCache &cache)
{
    const CoherenceStats &dir = cache.directory().stats();
    dirFills += dir.fills;
    dirWrites += dir.writes;
    dirEvictions += dir.evictions;
    dirInvalidations += dir.invalidationsSent;
    dirDowngrades += dir.downgrades;
    dirEntries += cache.directory().entries();
    const u64 acc = cache.stats().global().accesses;
    probes += cache.averageProbesPerAccess() * static_cast<double>(acc);
    accesses += acc;
    memoHits += cache.wayMemoHits();
    memoMispredicts += cache.wayMemoMispredicts();
    granted += cache.resizer().granted();
    withdrawn += cache.resizer().withdrawn();
}

void
timedScalarReplay(MolecularCache &cache, std::span<const MemAccess> refs,
                  double timerNs, CoreProbe &probe)
{
    for (const MemAccess &a : refs) {
        const u64 runs = cache.resizer().runs();
        const u64 t0 = nowNs();
        const AccessResult r = cache.access(a);
        const u64 t1 = nowNs();
        const double ns =
            std::max(0.0, static_cast<double>(t1 - t0) - timerNs);
        if (cache.resizer().runs() != runs)
            probe.resizeUs.push_back(ns * 1e-3);
        else if (!r.hit)
            probe.missNs.push_back(ns);
        else if (r.level == 0)
            probe.homeNs.push_back(ns);
        else
            probe.remoteNs.push_back(ns);
    }
}

double
scalarPassNs(MolecularCache &cache, std::span<const MemAccess> refs)
{
    const u64 t0 = nowNs();
    for (const MemAccess &a : refs)
        cache.access(a);
    return static_cast<double>(nowNs() - t0);
}

double
batchPassNs(MolecularCache &cache, std::span<const MemAccess> refs,
            size_t block)
{
    std::vector<AccessResult> results(block);
    const u64 t0 = nowNs();
    for (size_t off = 0; off < refs.size(); off += block) {
        const size_t n = std::min(block, refs.size() - off);
        cache.accessBatch(refs.subspan(off, n), {results.data(), n});
    }
    return static_cast<double>(nowNs() - t0);
}

double
yardstickNsPerRef()
{
    constexpr u64 kRefs = 100'000;
    std::vector<MemAccess> trace;
    trace.reserve(kRefs);
    auto src =
        makeMultiProgramSource(spec4Names(), kRefs, MixPolicy::RoundRobin, 7);
    while (auto a = src->next())
        trace.push_back(*a);
    SetAssocCache cache(traditionalParams(2_MiB, 8));
    for (const MemAccess &a : trace)
        cache.access(a); // warm pass, as the google-benchmark kernel does
    std::vector<double> passes;
    const u64 start = nowNs();
    while (passes.size() < 5 || secondsSince(start) < 0.25) {
        const u64 t0 = nowNs();
        for (const MemAccess &a : trace)
            cache.access(a);
        passes.push_back(static_cast<double>(nowNs() - t0) /
                         static_cast<double>(trace.size()));
    }
    return median(std::move(passes));
}

void
reportLayerMetrics(const CoreProbe &core, const ServiceProbe &service,
                   double simOverheadNsPerRef, double genNsPerRef,
                   double yardstickNs, double traceOverheadFrac,
                   Report &report)
{
    const double classified = static_cast<double>(
        core.homeNs.size() + core.remoteNs.size() + core.missNs.size());
    const auto frac = [&](const std::vector<double> &v) {
        return classified == 0.0
                   ? 0.0
                   : static_cast<double>(v.size()) / classified;
    };
    const double dirOps =
        static_cast<double>(core.dirFills + core.dirWrites + core.dirEvictions);
    const double scalarNsPerRef =
        core.scalarRefs ? core.scalarNs / static_cast<double>(core.scalarRefs)
                        : 0.0;
    const double batchNsPerRef =
        core.batchRefs ? core.batchNs / static_cast<double>(core.batchRefs)
                       : 0.0;
    const u64 memoTried = core.memoHits + core.memoMispredicts;
    const auto maxOf = [](const std::vector<double> &v) {
        return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    };

    report.metric("core.home_hit_ns.p50", quantile(core.homeNs, 0.5), "ns");
    report.metric("core.home_hit_ns.p99", quantile(core.homeNs, 0.99), "ns");
    report.metric("core.remote_hit_ns.p50", quantile(core.remoteNs, 0.5),
                  "ns");
    report.metric("core.remote_hit_ns.p99", quantile(core.remoteNs, 0.99),
                  "ns");
    report.metric("core.miss_ns.p50", quantile(core.missNs, 0.5), "ns");
    report.metric("core.miss_ns.p99", quantile(core.missNs, 0.99), "ns");
    report.metric("core.home_hit_frac", frac(core.homeNs), "count");
    report.metric("core.remote_hit_frac", frac(core.remoteNs), "count");
    report.metric("core.miss_frac", frac(core.missNs), "count");
    report.metric("core.probes_per_access",
                  core.accesses ? core.probes /
                                      static_cast<double>(core.accesses)
                                : 0.0,
                  "count");
    report.metric("core.dir_fills", static_cast<double>(core.dirFills),
                  "count");
    report.metric("core.dir_evictions", static_cast<double>(core.dirEvictions),
                  "count");
    report.metric("core.dir_invalidations",
                  static_cast<double>(core.dirInvalidations), "count");
    report.metric("core.dir_entries", static_cast<double>(core.dirEntries),
                  "count");
    report.metric("core.dir_useful_ratio",
                  dirOps == 0.0
                      ? 0.0
                      : static_cast<double>(core.dirInvalidations +
                                            core.dirDowngrades) /
                            dirOps,
                  "count");
    report.metric("core.way_memo_hit_ratio",
                  memoTried ? static_cast<double>(core.memoHits) /
                                  static_cast<double>(memoTried)
                            : 0.0,
                  "count");
    report.metric("core.scalar_ns_per_ref", scalarNsPerRef, "ns");
    report.metric("core.batch_ns_per_ref", batchNsPerRef, "ns");
    report.metric("core.batch_speedup",
                  batchNsPerRef > 0.0 ? scalarNsPerRef / batchNsPerRef : 0.0,
                  "x");
    report.metric("core.resize_us.p50", quantile(core.resizeUs, 0.5), "us");
    report.metric("core.resize_us.max", maxOf(core.resizeUs), "us");
    report.metric("core.resize_calls",
                  static_cast<double>(core.resizeUs.size()), "count");
    report.metric("core.resize_granted", static_cast<double>(core.granted),
                  "count");
    report.metric("core.resize_withdrawn",
                  static_cast<double>(core.withdrawn), "count");
    report.metric("sim.overhead_ns_per_ref", simOverheadNsPerRef, "ns");
    report.metric("service.route_overhead_ns", service.routeOverheadNs, "ns");
    report.metric("service.lock_wait_ns", service.lockWaitNs, "ns");
    report.metric("service.batch_ns_per_ref", service.batchNsPerRef, "ns");
    report.metric("service.epoch_ms.p50", quantile(service.epochMs, 0.5),
                  "ms");
    report.metric("service.epoch_ms.max", maxOf(service.epochMs), "ms");
    report.metric("service.attach_us", quantile(service.attachUs, 0.5), "us");
    report.metric("service.detach_us", quantile(service.detachUs, 0.5), "us");
    report.metric("service.hit_ratio", service.hitRatio, "count");
    report.metric("service.epochs", static_cast<double>(service.epochs),
                  "count");
    report.metric("service.tenants_drained",
                  static_cast<double>(service.tenantsDrained), "count");
    report.metric("service.attach_rejects",
                  static_cast<double>(service.attachRejects), "count");
    report.metric("service.invariant_checks",
                  static_cast<double>(service.invariantChecks), "count");
    report.metric("workload.gen_ns_per_ref", genNsPerRef, "ns");
    report.metric("cache.yardstick_ns_per_ref", yardstickNs, "ns");
    report.metric("bench.trace_overhead_frac", traceOverheadFrac, "count");
}

} // namespace molbench
