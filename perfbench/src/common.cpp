#include "common.hpp"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>

namespace molbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(std::floor(pos));
    const size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
interquartileMean(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const size_t n = values.size();
    const size_t lo = n / 4;
    const size_t hi = std::max(lo + 1, n - n / 4);
    double sum = 0.0;
    for (size_t i = lo; i < hi; ++i)
        sum += values[i];
    return sum / static_cast<double>(hi - lo);
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logs = 0.0;
    for (const double v : values)
        logs += std::log(v);
    return std::exp(logs / static_cast<double>(values.size()));
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double sum = 0.0;
    for (const double v : values)
        sum += v;
    return sum / static_cast<double>(values.size());
}

double
timerOverheadNs()
{
    std::vector<double> samples;
    samples.reserve(20001);
    for (int i = 0; i < 20001; ++i) {
        const u64 a = nowNs();
        const u64 b = nowNs();
        samples.push_back(static_cast<double>(b - a));
    }
    return median(std::move(samples));
}

namespace {
std::vector<int> allowedCpus;
} // namespace

void
captureCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    allowedCpus.clear();
    if (sched_getaffinity(0, sizeof(set), &set) != 0)
        return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &set))
            allowedCpus.push_back(cpu);
}

u32
cpuCount()
{
    return static_cast<u32>(allowedCpus.size());
}

void
unpin()
{
    if (allowedCpus.empty())
        return;
    cpu_set_t all;
    CPU_ZERO(&all);
    for (const int cpu : allowedCpus)
        CPU_SET(cpu, &all);
    pthread_setaffinity_np(pthread_self(), sizeof(all), &all);
}

void
pinToSlot(u32 slot)
{
    if (allowedCpus.size() < 2)
        return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(allowedCpus[slot % allowedCpus.size()], &one);
    pthread_setaffinity_np(pthread_self(), sizeof(one), &one);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0; // KiB on Linux
}

u64
fnv1a(const std::string &text, u64 hash)
{
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ull;
    }
    return hash;
}

/* ------------------------------------------------------------------ */

WindowedLatency::WindowedLatency(u64 startNs, u64 windowNs, u32 windows)
    : startNs_(startNs), windowNs_(windowNs), samples_(windows),
      seen_(windows, 0), ops_(windows, 0)
{
    for (auto &window : samples_)
        window.reserve(kReservoir);
}

u32
WindowedLatency::indexOf(u64 endNs) const
{
    const u64 idx = endNs <= startNs_ ? 0 : (endNs - startNs_) / windowNs_;
    return static_cast<u32>(std::min<u64>(idx, samples_.size() - 1));
}

void
WindowedLatency::add(u64 endNs, double ns, u64 ops)
{
    const u32 idx = indexOf(endNs);
    std::vector<float> &window = samples_[idx];
    const u64 seen = seen_[idx]++;
    if (seen < kReservoir) {
        window.push_back(static_cast<float>(ns));
    } else {
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 7;
        rng_ ^= rng_ << 17;
        const u64 slot = rng_ % (seen + 1);
        if (slot < kReservoir)
            window[slot] = static_cast<float>(ns);
    }
    ops_[idx] += ops;
}

void
WindowedLatency::addOps(u64 endNs, u64 ops)
{
    ops_[indexOf(endNs)] += ops;
}

void
WindowedLatency::merge(const WindowedLatency &other)
{
    for (size_t i = 0; i < samples_.size(); ++i) {
        samples_[i].insert(samples_[i].end(), other.samples_[i].begin(),
                           other.samples_[i].end());
        seen_[i] += other.seen_[i];
        ops_[i] += other.ops_[i];
    }
}

void
WindowedLatency::closeAt(u64 endNs)
{
    const u64 elapsed = endNs > startNs_ ? endNs - startNs_ : 0;
    fullWindows_ = static_cast<u32>(
        std::min<u64>(elapsed / windowNs_, samples_.size()));
}

double
WindowedLatency::quantileUs(double q, size_t minSamples) const
{
    std::vector<double> perWindow;
    for (u32 w = 0; w < fullWindows_; ++w) {
        if (samples_[w].size() < minSamples)
            continue;
        std::vector<double> v(samples_[w].begin(), samples_[w].end());
        perWindow.push_back(quantile(std::move(v), q) * 1e-3);
    }
    return interquartileMean(std::move(perWindow));
}

double
WindowedLatency::opsPerSecond() const
{
    std::vector<double> rates;
    const double windowS = static_cast<double>(windowNs_) * 1e-9;
    for (u32 w = 0; w < fullWindows_; ++w)
        rates.push_back(static_cast<double>(ops_[w]) / windowS);
    return interquartileMean(std::move(rates));
}

u64
WindowedLatency::totalSamples() const
{
    u64 n = 0;
    for (const u64 seen : seen_)
        n += seen;
    return n;
}

std::vector<double>
WindowedLatency::pooledUs() const
{
    std::vector<double> out;
    for (u32 w = 0; w < fullWindows_; ++w)
        for (const float ns : samples_[w])
            out.push_back(static_cast<double>(ns) * 1e-3);
    return out;
}

/* ------------------------------------------------------------------ */

SpanLog::SpanLog(u32 thread, size_t capacity)
    : thread_(thread), ring_(capacity)
{
}

u64
SpanLog::newId()
{
    return ring_.empty() ? 0
                         : (static_cast<u64>(thread_ + 1) << 40) | ++ids_;
}

void
SpanLog::add(u64 id, const char *name, u64 parent, u64 startNs, u64 endNs)
{
    if (ring_.empty())
        return;
    ring_[next_ % ring_.size()] = {name, id, parent, startNs, endNs};
    ++next_;
}

std::vector<Span>
SpanLog::spans() const
{
    std::vector<Span> out;
    const u64 held = std::min<u64>(next_, ring_.size());
    for (u64 i = next_ - held; i < next_; ++i)
        out.push_back(ring_[i % ring_.size()]);
    return out;
}

bool
writeSpans(const std::string &path, std::span<const SpanLog> logs)
{
    std::ofstream out(path);
    if (!out)
        return false;
    out << "id,parent,name,start_ns,end_ns\n";
    for (const SpanLog &log : logs)
        for (const Span &s : log.spans())
            out << s.id << ',' << s.parent << ',' << s.name << ','
                << s.startNs << ',' << s.endNs << '\n';
    return static_cast<bool>(out);
}

} // namespace molbench
