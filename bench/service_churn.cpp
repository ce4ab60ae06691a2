/**
 * @file
 * molcached churn drill — ROADMAP item 1's acceptance scenario and the
 * concurrency gate for src/service/ (docs/molcached.md).
 *
 * N worker threads hammer a mc::Service while a churn driver thread
 * plays a seeded arrival/departure process (workload/churn.hpp):
 * tenants attach with heterogeneous footprints/goals, live out an
 * exponential lifetime under guardian admission/resize/eviction, then
 * detach; the service's epoch thread drains departures and runs the
 * InvariantChecker audit the whole time.  Workers pick a random live
 * tenant per burst, so handle refcounts are genuinely contended and
 * drains genuinely have to wait for in-flight references.
 *
 * Exit status is the drill's own sanity gate (the CI tsan and
 * adversarial jobs run `service_churn --smoke`): it fails on any
 * invariant violation, any contract violation observed by any thread,
 * or any departed tenant left undrained after the final epoch.  --json
 * writes the schema-versioned service_summary document — the telemetry
 * artifact the adversarial job uploads and gates on.
 */

#include <array>
#include <fstream>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "exec/seed_stream.hpp"
#include "exec/thread_pool.hpp"
#include "service/service.hpp"
#include "service/service_json.hpp"
#include "stats/table.hpp"
#include "util/logging.hpp"
#include "util/sync.hpp"
#include "workload/churn.hpp"

using namespace molcache;

namespace {

struct DrillConfig
{
    u32 workers = 8;
    u64 totalRefs = 2'000'000;
    u64 seed = 1;
    u32 shards = 2;
    u64 epochMillis = 5;
    u32 maxTenants = 48;
    u32 initialTenants = 8;
    /** Drive bursts through Service::accessBatch instead of per-ref
     * access(); same addresses, same burst sizes. */
    bool batch = false;
    /** Chaos storm seed (0 = chaos off; the default keeps the drill's
     * output byte-stable). */
    u64 faults = 0;
    /** Serve through accessChecked() with bounded retry/backoff
     * instead of plain access(). */
    bool retryBackoff = false;
    ChurnParams churn;
};

/** One live tenant as the drill tracks it (driver-owned). */
struct LiveTenant
{
    mc::TenantHandle handle;
    ChurnTenantProfile profile;
    u64 deathAt = 0;
};

/**
 * Shared tenant board.  The driver is the only writer; workers copy a
 * (handle, profile) pair out under the lock and access outside it, so
 * a drain can never catch a worker without a handle reference.
 */
struct Board
{
    mc::Mutex mutex;
    std::vector<LiveTenant> live MOLCACHE_GUARDED_BY(mutex);
    std::atomic<bool> stop{false};
    std::atomic<u64> accesses{0};
    std::atomic<u64> contractViolations{0};
};

/** One reference through accessChecked() with bounded retry/backoff
 * (--retry-backoff): an Overloaded verdict backs off (scaled by the
 * suggested retry-after, capped) and retries at most three times
 * before dropping the reference. */
void
accessWithBackoff(mc::Service &service, const mc::TenantHandle &handle,
                  Addr addr, bool isWrite, u64 epochMillis)
{
    for (u32 attempt = 0;; ++attempt) {
        const mc::AccessOutcome outcome =
            service.accessChecked(handle, addr, isWrite);
        if (outcome.status == mc::AccessStatus::Ok || attempt >= 3)
            return;
        const u64 micros =
            std::min<u64>(outcome.retryAfterEpochs * epochMillis * 1000u,
                          2000u << attempt);
        std::this_thread::sleep_for(
            std::chrono::microseconds(micros != 0 ? micros : 100u));
    }
}

void
runWorker(mc::Service &service, Board &board, u64 seed,
          const DrillConfig &cfg)
{
    const auto rng = makeRandomSource(RngKind::Pcg32, seed);
    std::array<mc::Service::TenantAccess, 64> refs;
    std::array<AccessResult, 64> results;
    const u64 before = contract::counters().total();
    mc::TenantHandle handle;
    ChurnTenantProfile profile;
    u64 sinceRefresh = ~u64{0}; // force an initial pick
    while (!board.stop.load(std::memory_order_acquire)) {
        // Re-pick a tenant every few bursts; between picks the held
        // handle keeps the tenant drain-safe even after it departs.
        if (sinceRefresh > 8) {
            sinceRefresh = 0;
            mc::MutexLock lock(board.mutex);
            if (board.live.empty()) {
                handle.reset();
            } else {
                const LiveTenant &pick =
                    board.live[rng->next64() % board.live.size()];
                handle = pick.handle;
                profile = pick.profile;
            }
        }
        ++sinceRefresh;
        if (!handle) {
            std::this_thread::yield();
            continue;
        }
        u64 burst = 0;
        if (cfg.batch) {
            for (; burst < refs.size(); ++burst) {
                refs[burst] = {churnAddress(profile, *rng),
                               churnIsWrite(profile, *rng)};
            }
            service.accessBatch(handle, {refs.data(), refs.size()},
                                {results.data(), results.size()});
        } else if (cfg.retryBackoff) {
            for (; burst < 64; ++burst)
                accessWithBackoff(service, handle,
                                  churnAddress(profile, *rng),
                                  churnIsWrite(profile, *rng),
                                  cfg.epochMillis);
        } else {
            for (; burst < 64; ++burst)
                service.access(handle, churnAddress(profile, *rng),
                               churnIsWrite(profile, *rng));
        }
        board.accesses.fetch_add(burst, std::memory_order_relaxed);
    }
    board.contractViolations.fetch_add(contract::counters().total() - before,
                                       std::memory_order_relaxed);
}

void
attachOne(mc::Service &service, Board &board, ChurnProcess &churn,
          u64 ordinal, u64 now)
{
    LiveTenant tenant;
    tenant.profile =
        churn.makeProfile(ordinal, service.options().cache.lineSize);
    mc::TenantSpec spec;
    spec.name = molcache::detail::concat("t", ordinal);
    spec.missRateGoal = tenant.profile.missRateGoal;
    mc::AttachError error = mc::AttachError::None;
    tenant.handle = service.attach(spec, &error);
    if (!tenant.handle)
        // Admission said no (cap reached / ASIDs exhausted): the tenant
        // is simply turned away, which is valid churn behaviour too.
        return;
    tenant.deathAt = now + churn.nextLifetime();
    mc::MutexLock lock(board.mutex);
    board.live.push_back(std::move(tenant));
}

void
runDriver(mc::Service &service, Board &board, const DrillConfig &cfg)
{
    const u64 before = contract::counters().total();
    ChurnProcess churn(cfg.churn, deriveJobSeed(cfg.seed, 0));
    u64 ordinal = 0;
    for (; ordinal < cfg.initialTenants; ++ordinal)
        attachOne(service, board, churn, ordinal, 0);
    u64 nextArrival = churn.nextArrivalGap();

    u64 now = 0;
    while (now < cfg.totalRefs) {
        now = board.accesses.load(std::memory_order_relaxed);
        if (now >= nextArrival) {
            attachOne(service, board, churn, ordinal++, now);
            nextArrival = now + churn.nextArrivalGap();
        }
        // Collect deaths due by `now`; detach outside the board lock.
        std::vector<mc::TenantHandle> dying;
        {
            mc::MutexLock lock(board.mutex);
            for (auto it = board.live.begin(); it != board.live.end();) {
                if (it->deathAt <= now) {
                    dying.push_back(std::move(it->handle));
                    it = board.live.erase(it);
                } else {
                    ++it;
                }
            }
        }
        for (const mc::TenantHandle &handle : dying)
            service.detach(handle);
        dying.clear(); // last driver-side references drop here
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }

    // Shut the population down: detach everyone, then stop the workers
    // (their held handle copies die with their stack frames).
    std::vector<mc::TenantHandle> rest;
    {
        mc::MutexLock lock(board.mutex);
        for (LiveTenant &tenant : board.live)
            rest.push_back(std::move(tenant.handle));
        board.live.clear();
    }
    for (const mc::TenantHandle &handle : rest)
        service.detach(handle);
    rest.clear();
    board.stop.store(true, std::memory_order_release);
    board.contractViolations.fetch_add(contract::counters().total() - before,
                                       std::memory_order_relaxed);
}

} // namespace

int
main(int argc, char **argv)
{
    CliParser cli("service_churn",
                  "molcached multi-tenant churn drill (ROADMAP item 1)");
    cli.addOption("workers", "8", "access worker threads");
    cli.addOption("refs", "2000000", "total accesses to serve");
    cli.addOption("seed", "1", "base RNG seed");
    cli.addOption("shards", "2", "cache shards (tile clusters)");
    cli.addOption("epoch-ms", "5", "control-plane epoch period");
    cli.addOption("max-tenants", "48", "admission cap on live tenants");
    cli.addOption("json", "",
                  "write the service_summary telemetry document here");
    cli.addFlag("csv", "emit CSV instead of an aligned table");
    cli.addFlag("batch",
                "drive worker bursts through Service::accessBatch "
                "(one shard lock per burst)");
    cli.addOption("faults", "0",
                  "chaos storm seed; 0 (default) keeps chaos off and "
                  "the output byte-stable");
    cli.addFlag("retry-backoff",
                "serve through accessChecked() with bounded "
                "retry/backoff instead of plain access()");
    cli.addFlag("smoke",
                "CI-sized run: same dynamics, ~10x shorter, exit "
                "status is the sanity gate");
    cli.parse(argc, argv);

    DrillConfig cfg;
    cfg.workers = static_cast<u32>(cli.integer("workers"));
    cfg.totalRefs = static_cast<u64>(cli.integer("refs"));
    cfg.seed = static_cast<u64>(cli.integer("seed"));
    cfg.shards = static_cast<u32>(cli.integer("shards"));
    cfg.epochMillis = static_cast<u64>(cli.integer("epoch-ms"));
    cfg.maxTenants = static_cast<u32>(cli.integer("max-tenants"));
    cfg.batch = cli.flag("batch");
    cfg.faults = static_cast<u64>(cli.integer("faults"));
    cfg.retryBackoff = cli.flag("retry-backoff");
    if (cli.flag("smoke")) {
        cfg.totalRefs = std::min<u64>(cfg.totalRefs, 200'000);
        cfg.churn.meanInterarrival = 4'000;
        cfg.churn.meanLifetime = 40'000;
    }
    if (cfg.workers == 0)
        fatal("--workers must be >= 1");

    mc::ServiceOptions options;
    options.withShards(cfg.shards)
        .withEpochMillis(cfg.epochMillis)
        .withMaxTenants(cfg.maxTenants)
        .withGuardian(true);
    options.cache.seed = cfg.seed;
    if (cfg.faults != 0) {
        // A modest storm (chaos_drill runs the full one): enough to
        // exercise quarantine/remap and the overload watermarks.
        mc::ChaosSpec chaos;
        chaos.seed = cfg.faults;
        chaos.windowStart = 4;
        chaos.windowEnd = 40;
        chaos.transientFlips = 4;
        chaos.hardFaults = 6;
        chaos.shardOutages = 1;
        chaos.shardStalls = 1;
        options.withChaos(chaos)
            .withAdmitWatermarks(0.95, 0.85)
            .withRecoverySlack(0.25);
    }
    mc::Service service(options);

    bench::banner("molcached service churn drill");
    std::printf("workers %u, shards %u, target %llu accesses, epoch %llu "
                "ms, admission cap %u%s%s\n",
                cfg.workers, cfg.shards,
                static_cast<unsigned long long>(cfg.totalRefs),
                static_cast<unsigned long long>(cfg.epochMillis),
                cfg.maxTenants, cfg.batch ? ", batched bursts" : "",
                cfg.retryBackoff ? ", retry/backoff" : "");
    if (cfg.faults != 0)
        std::printf("chaos storm on (seed %llu)\n",
                    static_cast<unsigned long long>(cfg.faults));

    Board board;
    {
        // Job 0 is the churn driver, jobs 1..N the access workers; the
        // pool gives every long-running job its own thread.
        WorkStealingPool pool(cfg.workers + 1);
        pool.forEach(cfg.workers + 1, [&](u64 job) {
            if (job == 0)
                runDriver(service, board, cfg);
            else
                runWorker(service, board,
                          deriveJobSeed(cfg.seed, 1000 + job), cfg);
        });
    }

    // Workers are gone; run epochs until every departed tenant has
    // drained (all handles are dead now, so this converges in one or
    // two epochs regardless of the control thread's own pacing).
    mc::ServiceSummary summary = service.summary();
    for (u32 i = 0; i < 8; ++i) {
        service.runEpochNow();
        summary = service.summary();
        if (summary.tenantsDrained == summary.tenantsDetached)
            break;
    }
    summary.contractViolations +=
        board.contractViolations.load(std::memory_order_acquire) +
        contract::counters().total();

    TablePrinter table({"metric", "value"});
    table.row({"accesses", std::to_string(summary.accesses)});
    table.row({"miss rate", std::to_string(summary.missRate())});
    table.row({"epochs", std::to_string(summary.epoch)});
    table.row({"tenants attached", std::to_string(summary.tenantsAttached)});
    table.row({"tenants detached", std::to_string(summary.tenantsDetached)});
    table.row({"tenants drained", std::to_string(summary.tenantsDrained)});
    table.row({"tenants live", std::to_string(summary.tenantsLive)});
    table.row({"invariant checks", std::to_string(summary.invariantChecksRun)});
    table.row({"invariant violations",
               std::to_string(summary.invariantViolations)});
    table.row({"contract violations",
               std::to_string(summary.contractViolations)});
    if (cfg.faults != 0) {
        // Resilience rows only when the storm ran, so a fault-free
        // drill's output stays byte-identical.
        const mc::ServiceResilienceSummary &res = summary.resilience;
        table.row({"chaos events fired",
                   std::to_string(res.chaosTransientFlips +
                                  res.chaosHardFaults +
                                  res.chaosShardOutages +
                                  res.chaosShardStalls)});
        table.row({"shards quarantined",
                   std::to_string(res.shardsQuarantined)});
        table.row({"tenants remapped", std::to_string(res.tenantsRemapped)});
        table.row({"remap invalidations",
                   std::to_string(res.remapInvalidations)});
        table.row({"accesses shed", std::to_string(res.accessesShed)});
        table.row({"max epochs to drain",
                   std::to_string(res.maxEpochsToDrain)});
        table.row({"max epochs back to goal",
                   std::to_string(res.maxEpochsBackToGoal)});
    }
    if (cli.flag("csv"))
        table.printCsv(std::cout);
    else
        table.print(std::cout);

    const std::string json_out = cli.str("json");
    if (!json_out.empty()) {
        std::ofstream out(json_out);
        if (!out)
            fatal("cannot open '", json_out, "' for writing");
        JsonWriter json(out);
        mc::writeServiceSummaryDocument(json, summary);
        out << "\n";
        std::printf("wrote %s\n", json_out.c_str());
    }

    bool ok = true;
    if (summary.invariantViolations != 0) {
        std::printf("FAIL: %llu invariant violations\n",
                    static_cast<unsigned long long>(
                        summary.invariantViolations));
        ok = false;
    }
    if (summary.contractViolations != 0) {
        std::printf("FAIL: %llu contract violations\n",
                    static_cast<unsigned long long>(
                        summary.contractViolations));
        ok = false;
    }
    if (summary.tenantsDrained != summary.tenantsDetached) {
        std::printf("FAIL: %llu detached tenants but only %llu drained\n",
                    static_cast<unsigned long long>(summary.tenantsDetached),
                    static_cast<unsigned long long>(summary.tenantsDrained));
        ok = false;
    }
    std::printf("%s\n", ok ? "PASS: churn drill clean" : "FAIL");
    return ok ? 0 : 1;
}
