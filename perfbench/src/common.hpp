/**
 * @file
 * Shared plumbing of molbench: the command line, the result report,
 * wall-clock helpers, robust statistics and the in-memory span log.
 *
 * Everything here sits outside the program under test: the benchmark
 * times calls into molcache's public functions from the outside and
 * never reaches into a layer.
 */

#ifndef MOLBENCH_COMMON_HPP
#define MOLBENCH_COMMON_HPP

#include <chrono>
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "util/types.hpp"

namespace molbench {

using molcache::u32;
using molcache::u64;

/** Parsed command line (see main.cpp for the flags). */
struct Options
{
    std::string workload;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Self-test scale: tiny inputs, same code paths. */
    bool tiny = false;
    /** Flip one bit of every expected fingerprint (self-test only). */
    bool perturbFingerprint = false;
    /** Recorded fingerprints (workload config seed hash lines). */
    std::string fingerprints;
    /** Print this run's fingerprints in the file's format and exit. */
    bool recordFingerprints = false;
    /** Where a traced run writes its spans ("" = nowhere). */
    std::string spansOut;
};

/** Monotonic wall clock in nanoseconds. */
inline u64
nowNs()
{
    return static_cast<u64>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

inline double
secondsSince(u64 startNs)
{
    return static_cast<double>(nowNs() - startNs) * 1e-9;
}

/** Quantile @p q in [0, 1] with linear interpolation between order
 * statistics (the "type 7" estimator).  0 for an empty sample. */
double quantile(std::vector<double> values, double q);
double median(std::vector<double> values);
/** Mean of the values between the first and third quartile: a robust
 * centre that, unlike the median of few integers, is not quantized. */
double interquartileMean(std::vector<double> values);
double geomean(const std::vector<double> &values);
double mean(const std::vector<double> &values);

/** Median cost of one back-to-back nowNs() pair, subtracted from
 * per-call timings of very short calls. */
double timerOverheadNs();

/**
 * CPU rotation.  On a shared host each CPU's speed drifts with its
 * neighbours' load, by 10-50% over tens of seconds, so a run that stays
 * on one CPU measures that CPU.  The workloads therefore pin their
 * threads to CPUs in rotation — every replay (sim_*) or every
 * kRotateNs (svc_*) — so each run averages over all CPUs the process
 * may use.  captureCpus() records that set; call it once, from the
 * main thread, before any pinning.
 */
void captureCpus();
/** CPUs the process may use (0 before captureCpus()). */
u32 cpuCount();
/** Pin the calling thread to allowed CPU @p slot modulo cpuCount()
 * (no-op with fewer than 2 CPUs). */
void pinToSlot(u32 slot);
/** Let the calling thread run on every allowed CPU again. */
void unpin();

/** Peak resident set size of this process in MiB. */
double peakRssMb();

/** 64-bit FNV-1a over @p text. */
u64 fnv1a(const std::string &text, u64 hash = 0xcbf29ce484222325ull);

/** Per-call latencies grouped into fixed wall-clock windows, so a
 * hiccup on a shared host spoils one window and not the whole run.
 * Each window keeps a uniform reservoir of at most kReservoir samples,
 * reserved up front, so the harness's memory does not depend on how
 * fast the program ran. */
class WindowedLatency
{
  public:
    static constexpr size_t kReservoir = 8192;

    WindowedLatency(u64 startNs, u64 windowNs, u32 windows);

    /** One call that ended at @p endNs and took @p ns; @p ops is how
     * many references it served (1 for a scalar call). */
    void add(u64 endNs, double ns, u64 ops);
    /** Served references that were not individually timed. */
    void addOps(u64 endNs, u64 ops);
    /** Fold another worker's samples in (same geometry). */
    void merge(const WindowedLatency &other);

    /** Interquartile mean over full windows of the per-window quantile
     * @p q, in microseconds (windows with fewer than @p minSamples
     * samples are skipped). */
    double quantileUs(double q, size_t minSamples) const;
    /** Interquartile mean over full windows of served references per
     * second. */
    double opsPerSecond() const;
    /** Windows that finished inside the measured interval. */
    u32 fullWindows() const { return fullWindows_; }
    void closeAt(u64 endNs);
    u64 totalSamples() const;
    /** Every sample, pooled (microseconds). */
    std::vector<double> pooledUs() const;

  private:
    u32 indexOf(u64 endNs) const;

    u64 startNs_;
    u64 windowNs_;
    u32 fullWindows_ = 0;
    std::vector<std::vector<float>> samples_;
    /** Samples offered per window (>= samples_[w].size()). */
    std::vector<u64> seen_;
    std::vector<u64> ops_;
    u64 rng_ = 0x9e3779b97f4a7c15ull;
};

/** One timed interval at a layer boundary. */
struct Span
{
    const char *name = "";
    u64 id = 0;
    u64 parent = 0;
    u64 startNs = 0;
    u64 endNs = 0;
};

/**
 * Per-thread in-memory span ring (tracing).  Disabled logs cost one
 * branch per call site; an enabled log overwrites its oldest spans once
 * full, so the cost per span stays constant for the whole run.
 */
class SpanLog
{
  public:
    SpanLog() = default;
    SpanLog(u32 thread, size_t capacity);

    /** A fresh span id, taken before a parent's children are recorded
     * (0 when the log is off). */
    u64 newId();
    /** Record one finished span under id @p id. */
    void add(u64 id, const char *name, u64 parent, u64 startNs, u64 endNs);
    u64 recorded() const { return next_; }
    /** Spans still held, oldest first. */
    std::vector<Span> spans() const;

  private:
    u32 thread_ = 0;
    std::vector<Span> ring_;
    u64 next_ = 0;
    u64 ids_ = 0;
};

/** Write spans as CSV (thread-tagged ids; parent 0 = root). */
bool writeSpans(const std::string &path, std::span<const SpanLog> logs);

/** What one run reports: operation counts, correctness and metrics. */
struct Report
{
    struct Metric
    {
        std::string name;
        double value = 0.0;
        std::string unit;
    };

    u64 attempted = 0;
    /** Operations whose output check failed; any makes the run
     * incorrect. */
    u64 failed = 0;
    std::vector<Metric> metrics;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }
};

/** Human-readable progress line on stdout (never the last line). */
template <typename... Args>
void
note(const char *fmt, Args... args)
{
    std::printf("# ");
    std::printf(fmt, args...);
    std::printf("\n");
    std::fflush(stdout);
}

/** An end-to-end figure printed for people but not gated: it cannot be
 * measured on every workload or has no stable relative spread (see
 * README.md). */
inline void
ungated(const char *name, double value, const char *unit,
        const std::string &how)
{
    note("ungated %s %.6f %s (%s)", name, value, unit, how.c_str());
}

inline void
notApplicable(const char *name, const char *why)
{
    note("ungated %s n/a (%s)", name, why);
}

} // namespace molbench

#endif // MOLBENCH_COMMON_HPP
