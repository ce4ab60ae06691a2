/**
 * @file
 * sim_fig5 and sim_table2: the paper's molecular configurations
 * replayed through Simulator::run.
 *
 * Setup generates one merged trace from --seed (the program only ever
 * sees these references).  The measured loop then replays it through
 * every configuration in turn, each replay on a freshly built cache.
 * A replay feeds the trace to Simulator::run in consecutive 4096-
 * reference calls on the same cache — byte-identical to one long call,
 * since Simulator::run only forwards blocks to accessBatch — so that a
 * run holds enough calls for a per-call p99.  One replay is one
 * operation: it fails when the FNV-1a hash of its SimResults,
 * serialized through src/sim/result_json, differs from the fingerprint
 * recorded for (workload, config, seed, references).
 */

#include <cmath>
#include <fstream>
#include <map>
#include <sstream>

#include "layers.hpp"
#include "sim/experiment.hpp"
#include "sim/result_json.hpp"
#include "util/units.hpp"
#include "workloads.hpp"
#include "workload/generator.hpp"
#include "workload/profiles.hpp"

namespace molbench {

using namespace molcache;

namespace {

/** References per Simulator::run call. */
constexpr u64 kSegment = 4096;
/** Setups per run; setup_s is their median. */
constexpr int kSetups = 7;
/** Traced-run entry-point comparison: trace prefix and rounds. */
constexpr size_t kProbePrefix = 131'072;
constexpr int kProbeRounds = 3;

struct SimConfig
{
    std::string label;
    MolecularCacheParams params;
    /** Paper Table 2 average deviation (negative = none). */
    double paper = -1.0;
};

struct SimDef
{
    std::string name;
    std::vector<std::string> profiles;
    GoalSet goals;
    double registrationGoal = 0.1;
    std::vector<SimConfig> configs;
    u64 refs = 0;
};

SimDef
makeSimDef(const std::string &name, bool tiny)
{
    SimDef def;
    def.name = name;
    if (name == "sim_fig5") {
        // Figure 5 graph A: 10% goal for all four SPEC programs.
        def.profiles = spec4Names();
        def.goals = GoalSet::uniform(0.1, 4);
        def.registrationGoal = 0.1;
        for (const Bytes size : {2_MiB, 8_MiB}) {
            for (const PlacementPolicy policy :
                 {PlacementPolicy::Random, PlacementPolicy::Randy}) {
                def.configs.push_back(
                    {std::string(policy == PlacementPolicy::Random
                                     ? "random-"
                                     : "randy-") +
                         (size == 2_MiB ? "2MiB" : "8MiB"),
                     fig5MolecularParams(size, policy)});
            }
        }
        def.refs = tiny ? 40'000 : 1'000'000;
    } else {
        // Table 2: 12-app mix, 3 clusters x 4 tiles x 512 KiB, 25% goal;
        // reference deviations from the paper (bench/table2_mixed.cpp).
        def.profiles = mixed12Names();
        def.goals = GoalSet::uniform(0.25, 12);
        def.registrationGoal = 0.25;
        def.configs.push_back(
            {"randy-6MiB", table2MolecularParams(PlacementPolicy::Randy),
             0.222075});
        def.configs.push_back(
            {"random-6MiB", table2MolecularParams(PlacementPolicy::Random),
             0.356923});
        def.refs = tiny ? 40'000 : 1'000'000;
    }
    return def;
}

/** AccessSource over a slice of the pre-generated trace. */
class SpanSource final : public AccessSource
{
  public:
    explicit SpanSource(std::span<const MemAccess> refs) : refs_(refs) {}

    std::optional<MemAccess>
    next() override
    {
        if (pos_ == refs_.size())
            return std::nullopt;
        return refs_[pos_++];
    }

    size_t
    nextBatch(MemAccess *out, size_t max) override
    {
        const size_t n = std::min(max, refs_.size() - pos_);
        std::copy_n(refs_.data() + pos_, n, out);
        pos_ += n;
        return n;
    }

  private:
    std::span<const MemAccess> refs_;
    size_t pos_ = 0;
};

std::vector<MemAccess>
generateTrace(const SimDef &def, u64 seed)
{
    std::vector<MemAccess> trace(def.refs);
    auto source = makeMultiProgramSource(def.profiles, def.refs,
                                         MixPolicy::RoundRobin, seed);
    size_t n = 0;
    while (n < trace.size()) {
        const size_t got = source->nextBatch(trace.data() + n,
                                             trace.size() - n);
        if (got == 0)
            break;
        n += got;
    }
    trace.resize(n);
    return trace;
}

std::unique_ptr<MolecularCache>
buildCache(const SimDef &def, const SimConfig &config, u64 seed)
{
    MolecularCacheParams params = config.params;
    params.seed = seed; // as the sweep engine seeds a job's model
    auto cache = std::make_unique<MolecularCache>(params);
    registerApplications(*cache, static_cast<u32>(def.profiles.size()),
                         def.registrationGoal);
    return cache;
}

RunOptions
runOptions(const SimDef &def)
{
    RunOptions options;
    options.goals = def.goals;
    options.labels = labelMap(def.profiles);
    return options;
}

std::string
resultJson(const SimResult &result)
{
    std::ostringstream os;
    {
        JsonWriter json(os);
        writeSimResultJson(json, result);
    }
    return os.str();
}

struct Replay
{
    SimResult last;
    u64 fingerprint = 0;
    /** Construction plus every Simulator::run call (ns). */
    double ns = 0.0;
    /** The construction part of ns. */
    double buildNs = 0.0;
};

/** One replay of the whole trace on a fresh cache; per-call times go
 * to @p callUs when non-null. */
Replay
replay(const SimDef &def, const SimConfig &config,
       std::span<const MemAccess> trace, u64 seed,
       std::vector<double> *callUs, SpanLog &log)
{
    static u32 slot = 0;
    pinToSlot(slot++); // see captureCpus
    Replay out;
    const u64 id = log.newId();
    const u64 t0 = nowNs();
    auto cache = buildCache(def, config, seed);
    const RunOptions options = runOptions(def);
    u64 programNs = nowNs() - t0;
    out.buildNs = static_cast<double>(programNs);
    u64 hash = fnv1a("");
    for (size_t off = 0; off < trace.size(); off += kSegment) {
        SpanSource source(trace.subspan(off, std::min<size_t>(
                                                 kSegment, trace.size() - off)));
        const u64 c0 = nowNs();
        out.last = Simulator::run(source, *cache, options);
        const u64 c1 = nowNs();
        programNs += c1 - c0;
        if (callUs != nullptr)
            callUs->push_back(static_cast<double>(c1 - c0) * 1e-3);
        log.add(log.newId(), "Simulator::run", id, c0, c1);
        hash = fnv1a(resultJson(out.last), hash);
    }
    log.add(id, "replay", 0, t0, nowNs());
    out.fingerprint = hash;
    out.ns = static_cast<double>(programNs);
    return out;
}

std::string
fingerprintKey(const SimDef &def, const SimConfig &config, u64 seed)
{
    return def.name + " " + config.label + " " + std::to_string(seed) + " " +
           std::to_string(def.refs);
}

/** Recorded fingerprints: "workload config seed refs hash" lines. */
std::map<std::string, u64>
loadFingerprints(const std::string &path)
{
    std::map<std::string, u64> out;
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream fields(line);
        std::string workload, config, seed, refs, hash;
        if (fields >> workload >> config >> seed >> refs >> hash)
            out[workload + " " + config + " " + seed + " " + refs] =
                std::stoull(hash, nullptr, 16);
    }
    return out;
}

/** Everything the measured loop saw, per configuration. */
struct LoopStats
{
    std::vector<std::vector<double>> rates;
    /** Per configuration, per replay: p50 and p99 of its calls (us). */
    std::vector<std::vector<double>> p50Us;
    std::vector<std::vector<double>> p99Us;
    std::vector<SimResult> last;
};

/**
 * Replay configurations round-robin until @p seconds have passed (every
 * configuration at least once).  Fingerprints are checked against
 * @p expected, whose missing entries are filled by a configuration's
 * first replay.
 */
LoopStats
measure(const SimDef &def, std::span<const MemAccess> trace,
        const Options &opt, double seconds, std::map<std::string, u64> &expected,
        SpanLog &log, Report &report)
{
    LoopStats stats;
    const size_t n = def.configs.size();
    stats.rates.resize(n);
    stats.p50Us.resize(n);
    stats.p99Us.resize(n);
    stats.last.resize(n);
    const u64 start = nowNs();
    for (size_t round = 0;; ++round) {
        for (size_t c = 0; c < n; ++c) {
            if (round > 0 && secondsSince(start) >= seconds)
                return stats;
            const SimConfig &config = def.configs[c];
            std::vector<double> callUs;
            const Replay r =
                replay(def, config, trace, opt.seed, &callUs, log);
            stats.p50Us[c].push_back(quantile(callUs, 0.5));
            stats.p99Us[c].push_back(quantile(callUs, 0.99));
            ++report.attempted;
            const std::string key = fingerprintKey(def, config, opt.seed);
            if (!expected.count(key))
                expected[key] =
                    r.fingerprint ^ (opt.perturbFingerprint ? 1u : 0u);
            const bool ok = r.fingerprint == expected[key] &&
                            r.last.accesses == trace.size() &&
                            r.last.contractViolations == 0;
            if (!ok)
                ++report.failed;
            stats.rates[c].push_back(static_cast<double>(trace.size()) /
                                     (r.ns * 1e-9));
            stats.last[c] = r.last;
        }
    }
}

void
append(LoopStats &into, const LoopStats &from)
{
    if (into.rates.empty()) {
        into = from;
        return;
    }
    for (size_t c = 0; c < from.rates.size(); ++c) {
        into.rates[c].insert(into.rates[c].end(), from.rates[c].begin(),
                             from.rates[c].end());
        into.p50Us[c].insert(into.p50Us[c].end(), from.p50Us[c].begin(),
                             from.p50Us[c].end());
        into.p99Us[c].insert(into.p99Us[c].end(), from.p99Us[c].begin(),
                             from.p99Us[c].end());
    }
}

/** Geometric mean over configurations of the interquartile mean of
 * the replay rates (robust to a slow replay, and steadier than their
 * median for the ~10-20 replays a run holds per configuration). */
double
refsPerSecond(const LoopStats &stats)
{
    std::vector<double> perConfig;
    for (const auto &rates : stats.rates)
        perConfig.push_back(interquartileMean(rates));
    return geomean(perConfig);
}

/** Geometric mean over configurations of the interquartile mean of
 * @p perReplay: a host hiccup during a few replays inflates their p99
 * but not the typical replay's. */
double
callQuantileUs(const std::vector<std::vector<double>> &perReplay)
{
    std::vector<double> perConfig;
    for (const auto &values : perReplay)
        perConfig.push_back(interquartileMean(values));
    return geomean(perConfig);
}

} // namespace

bool
isSimWorkload(const std::string &name)
{
    return name == "sim_fig5" || name == "sim_table2";
}

void
runSimWorkload(const Options &opt, Report &report, std::vector<SpanLog> &logs)
{
    const SimDef def = makeSimDef(opt.workload, opt.tiny);
    logs.emplace_back(0, opt.trace ? kSpanCapacity : 0);
    SpanLog &log = logs.back();
    SpanLog off;

    // Setup: input generation plus construction, repeated; the last
    // generated trace is the one measured.
    std::vector<double> setupS;
    std::vector<double> genNsPerRef;
    std::vector<MemAccess> trace;
    for (int k = 0; k < kSetups; ++k) {
        pinToSlot(static_cast<u32>(k)); // one CPU per set-up, in turn
        const u64 s0 = nowNs();
        trace = generateTrace(def, opt.seed);
        genNsPerRef.push_back(static_cast<double>(nowNs() - s0) /
                              static_cast<double>(trace.size()));
        for (const SimConfig &config : def.configs)
            buildCache(def, config, opt.seed);
        setupS.push_back(secondsSince(s0));
    }
    note("%s: %zu configs x %zu refs, seed %llu", def.name.c_str(),
         def.configs.size(), trace.size(),
         static_cast<unsigned long long>(opt.seed));

    std::map<std::string, u64> expected = loadFingerprints(opt.fingerprints);
    if (opt.perturbFingerprint)
        for (auto &entry : expected)
            entry.second ^= 1u;

    if (opt.recordFingerprints) {
        for (const SimConfig &config : def.configs) {
            const Replay r = replay(def, config, trace, opt.seed, nullptr, off);
            std::printf("%s %016llx\n",
                        fingerprintKey(def, config, opt.seed).c_str(),
                        static_cast<unsigned long long>(r.fingerprint));
        }
        return;
    }

    if (!opt.trace) {
        const LoopStats stats =
            measure(def, trace, opt, opt.seconds, expected, off, report);
        std::vector<double> missRate, deviation, energy, paperErr;
        for (size_t c = 0; c < def.configs.size(); ++c) {
            const SimResult &r = stats.last[c];
            missRate.push_back(static_cast<double>(r.misses) /
                               static_cast<double>(r.accesses));
            deviation.push_back(r.qos.averageDeviation);
            energy.push_back(r.avgEnergyPerAccessNj);
            note("%-12s replays %zu  miss_rate %.6f  avg_deviation %.6f  "
                 "energy_nj_per_ref %.6f  refs_per_s %.0f",
                 def.configs[c].label.c_str(), stats.rates[c].size(),
                 missRate.back(), deviation.back(), energy.back(),
                 interquartileMean(stats.rates[c]));
            if (def.configs[c].paper >= 0.0) {
                paperErr.push_back(
                    std::fabs(r.qos.averageDeviation - def.configs[c].paper));
                note("%-12s paper Table 2 deviation %.6f", "",
                     def.configs[c].paper);
            }
        }
        ungated("miss_rate", mean(missRate), "ratio",
                "simulated, mean over configs");
        ungated("energy_nj_per_ref", mean(energy), "nJ",
                "simulated, mean over configs");
        if (paperErr.empty())
            notApplicable("deviation_err_vs_paper",
                          "the repository holds only the shape of Figure 5, "
                          "not its values");
        else
            ungated("deviation_err_vs_paper", mean(paperErr), "ratio",
                    "mean |deviation - paper| over configs");
        notApplicable("attach_p50_us", "the simulator has no tenants");
        report.metric("setup_s", median(setupS), "s");
        report.metric("refs_per_s", refsPerSecond(stats), "1/s");
        report.metric("call_p50_us", callQuantileUs(stats.p50Us), "us");
        report.metric("call_p99_us", callQuantileUs(stats.p99Us), "us");
        report.metric("hit_rate", 1.0 - mean(missRate), "ratio");
        report.metric("avg_deviation", mean(deviation), "ratio");
        ungated("cache.yardstick_ns_per_ref", yardstickNsPerRef(), "ns",
                "SetAssocCache 8-way 2 MiB, host speed");
        return;
    }

    // Traced run: the window in quarters alternating untraced and
    // traced (spans on), so both see the same host conditions; then the
    // bare-core layer probes on every configuration.
    LoopStats plain;
    LoopStats traced;
    for (int slice = 0; slice < 4; ++slice) {
        const bool on = slice % 2 == 1;
        append(on ? traced : plain,
               measure(def, trace, opt, opt.seconds / 4, expected,
                       on ? log : off, report));
    }
    const double plainRate = refsPerSecond(plain);
    const double overhead = (refsPerSecond(traced) - plainRate) / plainRate;

    // Per configuration: one timed scalar replay of the whole trace
    // (outcome classes, resize attribution, counters), then alternating
    // untimed passes over a prefix through the scalar, batch and
    // Simulator::run entry points, each on a fresh cache; medians of
    // kProbeRounds rounds damp host drift.
    const double timerNs = timerOverheadNs();
    const auto prefix = std::span<const MemAccess>(trace).first(
        std::min<size_t>(trace.size(), kProbePrefix));
    CoreProbe core;
    double simOverheadNs = 0.0;
    for (const SimConfig &config : def.configs) {
        auto timed = buildCache(def, config, opt.seed);
        timedScalarReplay(*timed, trace, timerNs, core);
        core.absorbCounters(*timed);

        std::vector<double> scalar, batch, simRun;
        for (int round = 0; round < kProbeRounds; ++round) {
            // The replay below rotates the CPU; these two passes run on
            // the CPU it left, the same one for both.
            scalar.push_back(
                scalarPassNs(*buildCache(def, config, opt.seed), prefix));
            batch.push_back(batchPassNs(*buildCache(def, config, opt.seed),
                                        prefix, 1024));
            const Replay r =
                replay(def, config, prefix, opt.seed, nullptr, off);
            simRun.push_back(r.ns - r.buildNs);
        }
        core.scalarNs += median(scalar);
        core.scalarRefs += prefix.size();
        core.batchNs += median(batch);
        core.batchRefs += prefix.size();
        simOverheadNs += median(simRun) - median(batch);
    }
    const double refs =
        static_cast<double>(prefix.size() * def.configs.size());
    reportLayerMetrics(core, ServiceProbe{}, simOverheadNs / refs,
                       median(genNsPerRef), yardstickNsPerRef(), overhead,
                       report);
}

} // namespace molbench
