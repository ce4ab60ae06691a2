/**
 * @file
 * svc_hot and svc_churn: molcached (mc::Service) in a closed loop.
 *
 * Worker threads each wait for every call before issuing the next.
 * All references are generated during setup from --seed as
 * 64-bit words (bit 0 write, bit 1 hot-set, the rest a line selector)
 * that a worker maps onto the chosen tenant's address window at issue
 * time, outside the timed call.
 *
 *  - svc_hot: 3 workers issuing per-reference Service::access reads
 *    to 6 static 64 KiB tenants on 2 shards; no churn and no epochs
 *    while measuring.
 *  - svc_churn: 3 workers issuing 64-reference Service::accessBatch
 *    bursts with 20% writes to 256 KiB-4 MiB tenants; the main
 *    thread plays a seeded
 *    ChurnProcess schedule (attach/detach) and calls runEpochNow()
 *    with the invariant audit on every kEpochEvery served references.
 *
 * A run fails on any invariant or contract violation, on a departed
 * tenant left undrained after the final epoch, on a rejected attach,
 * and when the hits the callers saw disagree with the service's own
 * lifetime counters.
 */

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <map>
#include <thread>

#include "exec/seed_stream.hpp"
#include "layers.hpp"
#include "service/service.hpp"
#include "util/random.hpp"
#include "util/sync.hpp"
#include "workload/churn.hpp"
#include "workloads.hpp"

namespace molbench {

using namespace molcache;

namespace {

/** Worker threads (plus the main thread: 4 threads in all). */
constexpr u32 kWorkers = 3;
constexpr u32 kShards = 2;
constexpr int kSetups = 5;
constexpr size_t kBurst = 64;
/** Per-call latency windows. */
constexpr u64 kWindowNs = 500'000'000;
/** Workers move to the next CPU arrangement this often. */
constexpr u64 kRotateNs = 2'000'000'000;
/** svc_hot times every kHotSample-th call (the others only count). */
constexpr u64 kHotSample = 16;
/** svc_churn runs one control-plane epoch per this many references. */
constexpr u64 kEpochEvery = 250'000;
/** svc_churn pulls the next scheduled arrival forward while fewer
 * tenants are live: the schedule runs on served references, which stop
 * when nobody is left to serve. */
constexpr size_t kMinLive = 3;

struct SvcDef
{
    bool churn = false;
    u32 staticTenants = 6;
    /** Capacity floor per tenant in molecules (TenantSpec default when
     * kDefaultFloor). */
    u32 floorMolecules = mc::TenantSpec::kDefaultFloor;
    ChurnParams params;
    /** Input words per worker (a power of two; workers wrap). */
    size_t words = size_t{1} << 19;
};

SvcDef
makeSvcDef(const std::string &name, bool tiny)
{
    SvcDef def;
    def.churn = name == "svc_churn";
    if (def.churn) {
        def.staticTenants = 8;
        def.params.minFootprintBytes = 256u * 1024u;
        def.params.maxFootprintBytes = 4u * 1024u * 1024u;
        def.params.writeFraction = 0.2;
        def.params.meanInterarrival = tiny ? 20'000 : 100'000;
        def.params.meanLifetime = tiny ? 60'000 : 300'000;
    } else {
        def.params.minFootprintBytes = 64u * 1024u;
        def.params.maxFootprintBytes = 64u * 1024u;
        def.params.writeFraction = 0.0;
        def.params.minGoal = 0.1;
        def.params.maxGoal = 0.1;
        // Reserve the whole footprint (8 x 8 KiB molecules) so Algorithm
        // 1 cannot withdraw the working set and the run stays on the
        // home-tile hit path.
        def.floorMolecules = 8;
    }
    if (tiny)
        def.words = size_t{1} << 14;
    return def;
}

mc::ServiceOptions
serviceOptions(u64 seed)
{
    mc::ServiceOptions options;
    options.withShards(kShards).withEpochMillis(0).withAuditEpochs(1)
        .withGuardian(true);
    options.cache.seed = seed;
    return options;
}

/** One pre-generated reference word (see file comment). */
inline Addr
addrOf(const ChurnTenantProfile &p, u64 word)
{
    const u64 lines = (word & 2u) ? p.hotLines : p.footprintLines;
    return p.base + (word >> 2) % lines * p.lineSize;
}

inline bool
isWrite(u64 word)
{
    return (word & 1u) != 0;
}

/** Worker inputs: reference words plus tenant picks (one per
 * reference on svc_hot, one per burst on svc_churn). */
struct WorkerInput
{
    std::vector<u64> words;
    std::vector<u32> picks;
};

WorkerInput
generateInput(const SvcDef &def, u64 seed)
{
    WorkerInput in;
    Pcg32 rng(seed);
    in.words.resize(def.words);
    in.picks.resize(def.words);
    for (size_t i = 0; i < def.words; ++i) {
        const u64 write = rng.chance(def.params.writeFraction) ? 1u : 0u;
        const u64 hot = rng.chance(def.params.hotProbability) ? 2u : 0u;
        in.words[i] = (rng.next64() << 2) | hot | write;
        in.picks[i] = rng.next32();
    }
    return in;
}

/** The churn schedule in served references, pre-generated. */
struct ChurnEvent
{
    u64 at = 0;
    u64 lifetime = 0;
    ChurnTenantProfile profile;
};

std::vector<ChurnEvent>
generateSchedule(const SvcDef &def, u64 seed, u32 lineSize)
{
    ChurnProcess churn(def.params, deriveJobSeed(seed, 0));
    std::vector<ChurnEvent> events;
    u64 at = 0;
    for (u64 ordinal = 0; ordinal < 4096; ++ordinal) {
        if (ordinal >= def.staticTenants)
            at += churn.nextArrivalGap();
        ChurnEvent e;
        e.at = at;
        e.profile = churn.makeProfile(ordinal, lineSize);
        e.lifetime = def.churn ? churn.nextLifetime() : ~u64{0} / 2;
        events.push_back(e);
        if (!def.churn && ordinal + 1 == def.staticTenants)
            break;
    }
    return events;
}

struct LiveTenant
{
    mc::TenantHandle handle;
    ChurnTenantProfile profile;
    u64 deathAt = 0;
};

/** Tenants workers may pick; the main thread is the only writer. */
struct Board
{
    mc::Mutex mutex;
    std::vector<LiveTenant> live MOLCACHE_GUARDED_BY(mutex);
    std::atomic<bool> stop{false};
    std::atomic<u64> served{0};
};

/** What one worker saw in one measured loop. */
struct WorkerStats
{
    WindowedLatency lat;
    u64 calls = 0;
    u64 refs = 0;
    u64 hits = 0;
    u64 contractViolations = 0;
};

/**
 * Pin worker @p worker for rotation period @p period: workers take the
 * CPU slots after the main thread's, shifted by one per period, so
 * their arrangement stays the same while each run visits every CPU
 * (see captureCpus).  Left to the scheduler, where the workers landed
 * moved throughput by ~10% from run to run.  With fewer CPUs than
 * threads the workers stay unpinned.
 */
void
pinWorker(u32 worker, u32 period)
{
    if (cpuCount() >= kWorkers + 1)
        pinToSlot(worker + 1 + period);
}

/** One svc_hot worker: per-reference access() on the static tenants. */
void
hotWorker(mc::Service &service, const std::vector<LiveTenant> &tenants,
          u32 worker, const WorkerInput &in, Board &board, WorkerStats &stats,
          SpanLog &log)
{
    const u64 before = contract::counters().total();
    const size_t mask = in.words.size() - 1;
    u64 pending = 0;
    u32 period = 0;
    pinWorker(worker, period);
    u64 nextRotate = nowNs() + kRotateNs;
    for (size_t i = 0;; ++i) {
        if ((i & 1023u) == 0 && board.stop.load(std::memory_order_acquire))
            break;
        const u64 word = in.words[i & mask];
        const LiveTenant &t = tenants[in.picks[i & mask] % tenants.size()];
        const Addr addr = addrOf(t.profile, word);
        if (i % kHotSample == 0) {
            const u64 t0 = nowNs();
            const bool hit = service.access(t.handle, addr, false).hit;
            const u64 t1 = nowNs();
            stats.hits += hit ? 1 : 0;
            stats.lat.add(t1, static_cast<double>(t1 - t0), pending + 1);
            log.add(log.newId(), "Service::access", 0, t0, t1);
            pending = 0;
            if (t1 >= nextRotate) {
                pinWorker(worker, ++period);
                nextRotate += kRotateNs;
            }
        } else {
            stats.hits += service.access(t.handle, addr, false).hit ? 1 : 0;
            ++pending;
        }
        ++stats.calls;
    }
    stats.lat.addOps(nowNs(), pending);
    stats.refs = stats.calls;
    stats.contractViolations = contract::counters().total() - before;
}

/** One svc_churn worker: 64-reference accessBatch bursts on a tenant
 * re-picked from the board every 8 bursts. */
void
churnWorker(mc::Service &service, u32 worker, const WorkerInput &in,
            Board &board, WorkerStats &stats, SpanLog &log)
{
    const u64 before = contract::counters().total();
    const size_t mask = in.words.size() - 1;
    std::array<mc::Service::TenantAccess, kBurst> refs;
    std::array<AccessResult, kBurst> results;
    mc::TenantHandle handle;
    ChurnTenantProfile profile;
    size_t next = 0;
    u32 period = 0;
    pinWorker(worker, period);
    u64 nextRotate = nowNs() + kRotateNs;
    for (u64 burst = 0; !board.stop.load(std::memory_order_acquire);
         ++burst) {
        if (burst % 8 == 0) {
            mc::MutexLock lock(board.mutex);
            if (board.live.empty()) {
                handle.reset();
            } else {
                const LiveTenant &pick =
                    board.live[in.picks[next & mask] % board.live.size()];
                handle = pick.handle;
                profile = pick.profile;
            }
        }
        if (!handle) {
            std::this_thread::yield();
            continue;
        }
        for (size_t k = 0; k < kBurst; ++k, ++next) {
            const u64 word = in.words[next & mask];
            refs[k] = {addrOf(profile, word), isWrite(word)};
        }
        const u64 t0 = nowNs();
        service.accessBatch(handle, {refs.data(), kBurst},
                            {results.data(), kBurst});
        const u64 t1 = nowNs();
        log.add(log.newId(), "Service::accessBatch", 0, t0, t1);
        for (const AccessResult &r : results)
            stats.hits += r.hit ? 1 : 0;
        stats.lat.add(t1, static_cast<double>(t1 - t0), kBurst);
        if (t1 >= nextRotate) {
            pinWorker(worker, ++period);
            nextRotate += kRotateNs;
        }
        ++stats.calls;
        stats.refs += kBurst;
        board.served.fetch_add(kBurst, std::memory_order_relaxed);
    }
    stats.contractViolations = contract::counters().total() - before;
}

/** A service plus everything the main thread tracks about it. */
struct Harness
{
    SvcDef def;
    std::unique_ptr<mc::Service> service;
    std::vector<WorkerInput> inputs;
    std::vector<ChurnEvent> schedule;
    size_t nextEvent = 0;
    Board board;
    /** svc_hot's tenants (immutable while workers run). */
    std::vector<LiveTenant> statics;
    std::vector<double> attachUs;
    std::vector<double> detachUs;
    std::vector<double> epochMs;
    u64 attaches = 0;
    u64 attachRejects = 0;
    u64 detaches = 0;
    u64 epochs = 0;
    u64 failedEpochs = 0;
    u64 lastViolations = 0;
    /** References served and hits seen by callers, setup included. */
    u64 servedRefs = 0;
    u64 seenHits = 0;
    u64 calls = 0;
    u64 contractViolations = 0;
    u64 nextEpochAt = kEpochEvery;
    double genNsPerRef = 0.0;
    /** Latest (|miss rate - goal|, accesses) of every tenant any epoch
     * reported. */
    std::map<std::string, std::pair<double, u64>> deviation;
};

/** Attach the schedule's next tenant at served-reference time @p now. */
void
attachNext(Harness &h, u64 now)
{
    const size_t event = h.nextEvent++;
    const ChurnEvent &e = h.schedule[event];
    mc::TenantSpec spec;
    spec.name = "t";
    spec.name += std::to_string(event);
    spec.missRateGoal = e.profile.missRateGoal;
    spec.floorMolecules = h.def.floorMolecules;
    ++h.attaches;
    mc::AttachError error = mc::AttachError::None;
    const u64 t0 = nowNs();
    mc::TenantHandle handle = h.service->attach(spec, &error);
    h.attachUs.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
    if (!handle) {
        ++h.attachRejects;
        note("attach rejected: %s", mc::attachErrorName(error));
        return;
    }
    LiveTenant tenant{std::move(handle), e.profile, now + e.lifetime};
    if (h.def.churn) {
        mc::MutexLock lock(h.board.mutex);
        h.board.live.push_back(std::move(tenant));
    } else {
        h.statics.push_back(std::move(tenant));
    }
}

void
detachTenant(Harness &h, mc::TenantHandle handle)
{
    ++h.detaches;
    const u64 t0 = nowNs();
    h.service->detach(handle);
    h.detachUs.push_back(static_cast<double>(nowNs() - t0) * 1e-3);
}

void
runEpoch(Harness &h)
{
    ++h.epochs;
    const u64 t0 = nowNs();
    h.service->runEpochNow();
    h.epochMs.push_back(static_cast<double>(nowNs() - t0) * 1e-6);
    const mc::ServiceSummary summary = h.service->summary();
    for (const mc::ServiceTenantSummary &t : summary.tenants)
        if (t.accesses != 0)
            h.deviation[t.name] = {std::fabs(t.missRate - t.goal),
                                   t.accesses};
    const u64 violations = summary.invariantViolations;
    if (violations != h.lastViolations) {
        ++h.failedEpochs;
        note("epoch %llu: %llu new invariant violations",
             static_cast<unsigned long long>(h.epochs),
             static_cast<unsigned long long>(violations - h.lastViolations));
        h.lastViolations = violations;
    }
}

/** Churn control at served-reference time @p now: arrivals, departures
 * and the epoch cadence. */
void
churnStep(Harness &h, u64 now)
{
    const auto liveCount = [&h] {
        mc::MutexLock lock(h.board.mutex);
        return h.board.live.size();
    };
    while (h.nextEvent < h.schedule.size() &&
           (h.schedule[h.nextEvent].at <= now || liveCount() < kMinLive))
        attachNext(h, now);
    std::vector<mc::TenantHandle> dying;
    {
        mc::MutexLock lock(h.board.mutex);
        auto &live = h.board.live;
        for (auto it = live.begin(); it != live.end();) {
            if (it->deathAt <= now) {
                dying.push_back(std::move(it->handle));
                it = live.erase(it);
            } else {
                ++it;
            }
        }
    }
    for (mc::TenantHandle &handle : dying)
        detachTenant(h, std::move(handle));
    if (now >= h.nextEpochAt) {
        runEpoch(h);
        h.nextEpochAt = now + kEpochEvery;
    }
}

/** Single-threaded warm-up: every input word once through access(). */
void
warm(Harness &h)
{
    const WorkerInput &in = h.inputs[0];
    std::vector<LiveTenant> tenants;
    if (h.def.churn) {
        mc::MutexLock lock(h.board.mutex);
        tenants = h.board.live;
    } else {
        tenants = h.statics;
    }
    for (size_t i = 0; i < in.words.size(); ++i) {
        const u32 pick = h.def.churn ? in.picks[i / kBurst] : in.picks[i];
        const LiveTenant &t = tenants[pick % tenants.size()];
        const u64 word = in.words[i];
        h.seenHits +=
            h.service->access(t.handle, addrOf(t.profile, word), isWrite(word))
                    .hit
                ? 1
                : 0;
    }
    h.servedRefs += in.words.size();
    h.calls += in.words.size();
}

/** Input generation, construction, initial tenants and warm-up. */
void
setup(Harness &h, const std::string &name, const Options &opt)
{
    h.def = makeSvcDef(name, opt.tiny);
    const u64 g0 = nowNs();
    h.inputs.clear();
    for (u32 w = 0; w < kWorkers; ++w)
        h.inputs.push_back(
            generateInput(h.def, deriveJobSeed(opt.seed, 1000 + w)));
    const mc::ServiceOptions options = serviceOptions(opt.seed);
    h.schedule = generateSchedule(h.def, opt.seed, options.cache.lineSize);
    h.genNsPerRef = static_cast<double>(nowNs() - g0) /
                    static_cast<double>(kWorkers * h.def.words);
    h.service = std::make_unique<mc::Service>(options);
    while (h.nextEvent < h.def.staticTenants)
        attachNext(h, 0);
    warm(h);
}

/** Run the workers for @p seconds; the main thread drives churn. */
WindowedLatency
measure(Harness &h, double seconds, std::vector<SpanLog> &logs, bool traced)
{
    const u32 windows = static_cast<u32>(seconds * 1e9 / kWindowNs) + 2;
    const u64 start = nowNs();
    std::vector<WorkerStats> stats;
    for (u32 w = 0; w < kWorkers; ++w)
        stats.push_back({WindowedLatency(start, kWindowNs, windows)});
    std::vector<SpanLog> off(kWorkers);
    h.board.stop.store(false, std::memory_order_release);
    const u64 servedBefore = h.board.served.load();
    {
        std::vector<std::jthread> threads;
        for (u32 w = 0; w < kWorkers; ++w) {
            SpanLog *log = traced ? &logs[w] : &off[w];
            if (h.def.churn)
                threads.emplace_back([&, w, log] {
                    churnWorker(*h.service, w, h.inputs[w], h.board,
                                stats[w], *log);
                });
            else
                threads.emplace_back([&, w, log] {
                    hotWorker(*h.service, h.statics, w, h.inputs[w],
                              h.board, stats[w], *log);
                });
        }
        const u64 deadline = start + static_cast<u64>(seconds * 1e9);
        while (nowNs() < deadline) {
            if (h.def.churn)
                churnStep(h, h.servedRefs + h.board.served.load() -
                                 servedBefore);
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
        h.board.stop.store(true, std::memory_order_release);
    } // jthreads join here
    const u64 end = nowNs();
    WindowedLatency all(start, kWindowNs, windows);
    for (WorkerStats &s : stats) {
        all.merge(s.lat);
        h.calls += s.calls;
        h.servedRefs += s.refs;
        h.seenHits += s.hits;
        h.contractViolations += s.contractViolations;
    }
    all.closeAt(end);
    return all;
}

/** Detach everything, drain, and check the service's books. */
void
teardown(Harness &h, Report &report)
{
    std::vector<mc::TenantHandle> rest;
    {
        mc::MutexLock lock(h.board.mutex);
        for (LiveTenant &t : h.board.live)
            rest.push_back(std::move(t.handle));
        h.board.live.clear();
    }
    for (LiveTenant &t : h.statics)
        rest.push_back(std::move(t.handle));
    h.statics.clear();
    for (mc::TenantHandle &handle : rest)
        detachTenant(h, std::move(handle));
    rest.clear();
    mc::ServiceSummary summary;
    for (int i = 0; i < 8; ++i) {
        runEpoch(h);
        summary = h.service->summary();
        if (summary.tenantsDrained == summary.tenantsDetached)
            break;
    }

    report.attempted += h.calls + h.attaches + h.detaches + h.epochs;
    report.failed += h.failedEpochs + h.attachRejects + h.contractViolations;
    if (summary.tenantsDrained != summary.tenantsDetached) {
        note("FAIL: %llu detached tenants, %llu drained",
             static_cast<unsigned long long>(summary.tenantsDetached),
             static_cast<unsigned long long>(summary.tenantsDrained));
        ++report.failed;
    }
    if (summary.accesses != h.servedRefs || summary.hits != h.seenHits) {
        note("FAIL: service counted %llu accesses / %llu hits, callers "
             "saw %llu / %llu",
             static_cast<unsigned long long>(summary.accesses),
             static_cast<unsigned long long>(summary.hits),
             static_cast<unsigned long long>(h.servedRefs),
             static_cast<unsigned long long>(h.seenHits));
        ++report.failed;
    }
}

/** Access-weighted mean |miss rate - goal| over every tenant an
 * epoch reported, each at its latest report (one fresh epoch first):
 * short-lived tenants, whose miss rates are mostly cold misses, weigh
 * in by the references they were served. */
double
avgDeviation(Harness &h)
{
    runEpoch(h);
    double sum = 0.0;
    double weight = 0.0;
    for (const auto &entry : h.deviation) {
        sum += entry.second.first * static_cast<double>(entry.second.second);
        weight += static_cast<double>(entry.second.second);
    }
    return weight > 0.0 ? sum / weight : 0.0;
}

/**
 * The traced run's side probe on a fresh service with the workload's
 * initial tenants: a 1-worker service pass, a bare-core replay of the
 * same per-shard sequences through MolecularCache, and a batch pass.
 */
void
sideProbe(const Options &opt, double p50ThreeWorkersUs, CoreProbe &core,
          ServiceProbe &svc, Report &report)
{
    Harness h;
    setup(h, opt.workload, opt); // attaches the initial tenants and warms
    std::vector<LiveTenant> tenants;
    if (h.def.churn) {
        mc::MutexLock lock(h.board.mutex);
        tenants = h.board.live;
    } else {
        tenants = h.statics;
    }
    const WorkerInput &in = h.inputs[1];
    const size_t n = in.words.size();
    const auto tenantOf = [&](size_t i) -> const LiveTenant & {
        const u32 pick = h.def.churn ? in.picks[i / kBurst] : in.picks[i];
        return tenants[pick % tenants.size()];
    };

    // 1-worker service pass: untimed total, then sampled per-call p50.
    u64 hits = 0;
    u64 t0 = nowNs();
    for (size_t i = 0; i < n; ++i) {
        const LiveTenant &t = tenantOf(i);
        hits += h.service->access(t.handle, addrOf(t.profile, in.words[i]),
                                  isWrite(in.words[i]))
                    .hit;
    }
    const double svcNsPerRef =
        static_cast<double>(nowNs() - t0) / static_cast<double>(n);
    std::vector<double> oneWorkerNs;
    const double timerNs = timerOverheadNs();
    for (size_t i = 0; i < n; ++i) {
        const LiveTenant &t = tenantOf(i);
        const Addr addr = addrOf(t.profile, in.words[i]);
        const u64 c0 = nowNs();
        hits += h.service->access(t.handle, addr, isWrite(in.words[i])).hit;
        oneWorkerNs.push_back(static_cast<double>(nowNs() - c0));
    }

    // Batch pass: each tenant's references in order, 64 per call.
    std::vector<std::vector<mc::Service::TenantAccess>> perTenant(
        tenants.size());
    for (size_t i = 0; i < n; ++i) {
        const u32 pick = h.def.churn ? in.picks[i / kBurst] : in.picks[i];
        const LiveTenant &t = tenants[pick % tenants.size()];
        perTenant[pick % tenants.size()].push_back(
            {addrOf(t.profile, in.words[i]), isWrite(in.words[i])});
    }
    std::array<AccessResult, kBurst> results;
    std::vector<double> batchCallNs;
    t0 = nowNs();
    for (size_t k = 0; k < tenants.size(); ++k)
        for (size_t off = 0; off < perTenant[k].size(); off += kBurst) {
            const size_t m = std::min(kBurst, perTenant[k].size() - off);
            const u64 c0 = nowNs();
            h.service->accessBatch(tenants[k].handle,
                                   {perTenant[k].data() + off, m},
                                   {results.data(), m});
            batchCallNs.push_back(static_cast<double>(nowNs() - c0));
            for (size_t r = 0; r < m; ++r)
                hits += results[r].hit ? 1 : 0;
        }
    svc.batchNsPerRef =
        static_cast<double>(nowNs() - t0) / static_cast<double>(n);
    h.servedRefs += 3 * n;
    h.seenHits += hits;
    h.calls += 2 * n + batchCallNs.size();

    // Bare-core replay: one MolecularCache per shard, built and
    // populated as the service builds its shards, fed the per-shard
    // subsequences of the same references.
    const mc::ServiceOptions options = serviceOptions(opt.seed);
    std::vector<std::unique_ptr<MolecularCache>> caches;
    std::vector<std::vector<MemAccess>> perShard(kShards);
    std::vector<u32> nextTile(kShards, 0);
    for (u32 s = 0; s < kShards; ++s) {
        MolecularCacheParams params = options.cache;
        params.seed = deriveJobSeed(options.cache.seed, s);
        caches.push_back(std::make_unique<MolecularCache>(params));
    }
    for (const LiveTenant &t : tenants) {
        const u32 s = t.handle.shard();
        caches[s]->registerApplication(t.handle.asid(), t.profile.missRateGoal,
                                       ClusterId{0}, nextTile[s]++ % 4, 1);
        if (h.def.floorMolecules != mc::TenantSpec::kDefaultFloor)
            caches[s]->setRegionFloor(t.handle.asid(), h.def.floorMolecules);
    }
    for (size_t i = 0; i < n; ++i) {
        const LiveTenant &t = tenantOf(i);
        perShard[t.handle.shard()].push_back(
            {addrOf(t.profile, in.words[i]), t.handle.asid(),
             isWrite(in.words[i]) ? AccessType::Write : AccessType::Read});
    }
    double bareNs = 0.0;
    for (u32 s = 0; s < kShards; ++s) {
        scalarPassNs(*caches[s], perShard[s]); // warm
        bareNs += scalarPassNs(*caches[s], perShard[s]);
        timedScalarReplay(*caches[s], perShard[s], timerNs, core);
        core.scalarNs += scalarPassNs(*caches[s], perShard[s]);
        core.scalarRefs += perShard[s].size();
        core.batchNs += batchPassNs(*caches[s], perShard[s], 1024);
        core.batchRefs += perShard[s].size();
        core.absorbCounters(*caches[s]);
    }
    svc.routeOverheadNs = svcNsPerRef - bareNs / static_cast<double>(n);
    // Same call on both sides: access() on svc_hot, a 64-reference
    // accessBatch() on svc_churn.
    const double p50One = std::max(
        0.0, quantile(h.def.churn ? batchCallNs : oneWorkerNs, 0.5) - timerNs);
    svc.lockWaitNs = p50ThreeWorkersUs * 1e3 - timerNs - p50One;
    note("side probe: 1-worker %.1f ns/ref, bare core %.1f ns/ref, "
         "1-worker p50 %.1f ns, hits %llu",
         svcNsPerRef, bareNs / static_cast<double>(n), p50One,
         static_cast<unsigned long long>(hits));
    tenants.clear(); // drop the copied handles so the tenants can drain
    teardown(h, report);
}

} // namespace

bool
isServiceWorkload(const std::string &name)
{
    return name == "svc_hot" || name == "svc_churn";
}

void
runServiceWorkload(const Options &opt, Report &report,
                   std::vector<SpanLog> &logs)
{
    for (u32 w = 0; w < kWorkers; ++w)
        logs.emplace_back(w, opt.trace ? kSpanCapacity : 0);

    std::vector<double> setupS;
    std::unique_ptr<Harness> h;
    for (int k = 0; k < kSetups; ++k) {
        if (h)
            teardown(*h, report);
        h = std::make_unique<Harness>();
        pinToSlot(static_cast<u32>(k)); // one CPU per set-up, in turn
        const u64 s0 = nowNs();
        setup(*h, opt.workload, opt);
        setupS.push_back(secondsSince(s0));
    }
    unpin(); // the main thread drives churn on whichever CPU is free
    note("%s: %u workers, %u shards, %u initial tenants, seed %llu",
         opt.workload.c_str(), kWorkers, kShards, h->def.staticTenants,
         static_cast<unsigned long long>(opt.seed));

    if (!opt.trace) {
        const u64 refs0 = h->servedRefs;
        const u64 hits0 = h->seenHits;
        const WindowedLatency lat = measure(*h, opt.seconds, logs, false);
        const double missRate =
            1.0 - static_cast<double>(h->seenHits - hits0) /
                      static_cast<double>(h->servedRefs - refs0);
        const double deviation = avgDeviation(*h);
        const double p999 = lat.quantileUs(0.999, 10000);
        std::vector<double> pooled = lat.pooledUs();
        const std::string samples =
            std::to_string(lat.totalSamples()) + " calls timed in " +
            std::to_string(lat.fullWindows()) + " windows";
        ungated("call_p999_us", p999, "us", samples);
        ungated("call_max_us",
                pooled.empty()
                    ? 0.0
                    : *std::max_element(pooled.begin(), pooled.end()),
                "us", samples);
        ungated("attach_p50_us", quantile(h->attachUs, 0.5), "us",
                std::to_string(h->attachUs.size()) + " attaches");
        ungated("miss_rate", missRate, "ratio",
                "references served in the window");
        notApplicable("energy_nj_per_ref",
                      "the service exposes no energy counters");
        notApplicable("deviation_err_vs_paper",
                      "the paper has no service figures");
        report.metric("setup_s", median(setupS), "s");
        report.metric("refs_per_s", lat.opsPerSecond(), "1/s");
        report.metric("call_p50_us", lat.quantileUs(0.5, 100), "us");
        report.metric("call_p99_us", lat.quantileUs(0.99, 1000), "us");
        report.metric("hit_rate", 1.0 - missRate, "ratio");
        report.metric("avg_deviation", deviation, "ratio");
        ungated("cache.yardstick_ns_per_ref", yardstickNsPerRef(), "ns",
                "SetAssocCache 8-way 2 MiB, host speed");
        teardown(*h, report);
        return;
    }

    // Quarters alternating untraced and traced, so both halves see the
    // same host conditions.
    std::vector<double> plainRate, tracedRate, plainP50;
    for (int slice = 0; slice < 4; ++slice) {
        const bool on = slice % 2 == 1;
        const WindowedLatency lat = measure(*h, opt.seconds / 4, logs, on);
        (on ? tracedRate : plainRate).push_back(lat.opsPerSecond());
        if (!on)
            plainP50.push_back(lat.quantileUs(0.5, 100));
    }
    const double overhead = (mean(tracedRate) - mean(plainRate)) /
                            mean(plainRate);
    CoreProbe core;
    ServiceProbe svc;
    sideProbe(opt, mean(plainP50), core, svc, report);
    teardown(*h, report);
    const mc::ServiceSummary done = h->service->summary();
    svc.epochMs = h->epochMs;
    svc.attachUs = h->attachUs;
    svc.detachUs = h->detachUs;
    svc.hitRatio = done.accesses ? static_cast<double>(done.hits) /
                                       static_cast<double>(done.accesses)
                                 : 0.0;
    svc.epochs = done.epoch;
    svc.tenantsDrained = done.tenantsDrained;
    for (const u64 rejects : done.resilience.attachRejects)
        svc.attachRejects += rejects;
    svc.invariantChecks = done.invariantChecksRun;
    reportLayerMetrics(core, svc, 0.0, h->genNsPerRef, yardstickNsPerRef(),
                       overhead, report);
}

} // namespace molbench
