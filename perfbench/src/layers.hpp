/**
 * @file
 * Per-layer probes of the traced run: bare-core replays through
 * MolecularCache's public entry points, timed and classified from the
 * outside, plus the machine-speed yardstick and the shared reporting of
 * per-layer metrics.
 */

#ifndef MOLBENCH_LAYERS_HPP
#define MOLBENCH_LAYERS_HPP

#include <span>
#include <vector>

#include "common.hpp"
#include "core/molecular_cache.hpp"

namespace molbench {

using molcache::MemAccess;
using molcache::MolecularCache;

/** What the bare-core replays of one workload measured. */
struct CoreProbe
{
    /** @{ Per-access wall time by outcome, timer overhead removed (ns);
     * resizeUs holds the accesses during which resizer().runs() moved. */
    std::vector<double> homeNs;
    std::vector<double> remoteNs;
    std::vector<double> missNs;
    std::vector<double> resizeUs;
    /** @} */
    u64 granted = 0;
    u64 withdrawn = 0;
    /** @{ Coherence directory counters summed over the probed caches. */
    u64 dirFills = 0;
    u64 dirWrites = 0;
    u64 dirEvictions = 0;
    u64 dirInvalidations = 0;
    u64 dirDowngrades = 0;
    u64 dirEntries = 0;
    /** @} */
    /** Probes and accesses summed over the probed caches. */
    double probes = 0.0;
    u64 accesses = 0;
    u64 memoHits = 0;
    u64 memoMispredicts = 0;
    /** @{ Whole-pass wall time and references (untimed per call). */
    double scalarNs = 0.0;
    u64 scalarRefs = 0;
    double batchNs = 0.0;
    u64 batchRefs = 0;
    /** @} */

    /** Fold @p cache's directory/probe/memo/resizer counters in. */
    void absorbCounters(const MolecularCache &cache);
};

/** Replay @p refs one MolecularCache::access at a time, timing each
 * call and classifying it by outcome into @p probe. */
void timedScalarReplay(MolecularCache &cache, std::span<const MemAccess> refs,
                       double timerNs, CoreProbe &probe);

/** Wall time of one untimed pass through MolecularCache::access (ns). */
double scalarPassNs(MolecularCache &cache, std::span<const MemAccess> refs);

/** Wall time of one pass through MolecularCache::accessBatch in
 * @p block-reference blocks (ns). */
double batchPassNs(MolecularCache &cache, std::span<const MemAccess> refs,
                   size_t block);

/** SetAssocCache::access on the 8-way 2 MiB cache over the fixed
 * 100k-reference Figure 5 trace (seed 7) — the in-process yardstick
 * that perf_kernels calls BM_HotpathTraditional/8 (ns per reference). */
double yardstickNsPerRef();

/** Service-layer numbers a traced run found (zero where the workload
 * does not exercise the service). */
struct ServiceProbe
{
    double routeOverheadNs = 0.0;
    double lockWaitNs = 0.0;
    std::vector<double> epochMs;
    std::vector<double> attachUs;
    std::vector<double> detachUs;
    double batchNsPerRef = 0.0;
    double hitRatio = 0.0;
    u64 epochs = 0;
    u64 tenantsDrained = 0;
    u64 attachRejects = 0;
    u64 invariantChecks = 0;
};

/** Every per-layer metric, in BENCHMARK.json order. */
void reportLayerMetrics(const CoreProbe &core, const ServiceProbe &service,
                        double simOverheadNsPerRef, double genNsPerRef,
                        double yardstickNs, double traceOverheadFrac,
                        Report &report);

} // namespace molbench

#endif // MOLBENCH_LAYERS_HPP
