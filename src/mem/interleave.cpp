#include "mem/interleave.hpp"

#include <algorithm>

#include "util/logging.hpp"

namespace molcache {

VectorSource::VectorSource(std::vector<MemAccess> accesses)
    : accesses_(std::move(accesses))
{
}

std::optional<MemAccess>
VectorSource::next()
{
    if (pos_ >= accesses_.size())
        return std::nullopt;
    return accesses_[pos_++];
}

size_t
AccessSource::nextBatch(MemAccess *out, size_t max)
{
    size_t n = 0;
    while (n < max) {
        auto a = next();
        if (!a)
            break;
        out[n++] = *a;
    }
    return n;
}

size_t
AccessSource::drainHints(PhaseHint *out, size_t max)
{
    (void)out;
    (void)max;
    return 0;
}

size_t
VectorSource::nextBatch(MemAccess *out, size_t max)
{
    const size_t n = std::min(max, accesses_.size() - pos_);
    std::copy_n(accesses_.begin() + static_cast<std::ptrdiff_t>(pos_), n,
                out);
    pos_ += n;
    return n;
}

Interleaver::Interleaver(std::vector<std::unique_ptr<AccessSource>> sources,
                         MixPolicy policy, std::vector<double> weights,
                         u64 seed, u64 limit)
    : policy_(policy), rng_(seed), limit_(limit)
{
    MOLCACHE_ASSERT(!sources.empty(), "interleaver needs >= 1 source");
    if (policy_ == MixPolicy::Weighted) {
        if (weights.size() != sources.size())
            fatal("weighted interleave needs one weight per source");
        for (const double w : weights)
            if (w <= 0.0)
                fatal("interleave weights must be positive");
    }
    slots_.reserve(sources.size());
    for (size_t i = 0; i < sources.size(); ++i) {
        Slot slot;
        slot.source = std::move(sources[i]);
        slot.weight = policy_ == MixPolicy::Weighted ? weights[i] : 1.0;
        slots_.push_back(std::move(slot));
    }
    liveCount_ = static_cast<u32>(slots_.size());
}

int
Interleaver::pickSource()
{
    if (liveCount_ == 0)
        return -1;

    switch (policy_) {
      case MixPolicy::RoundRobin: {
        // While every source is live this returns at step 0; the
        // wrap-around compares keep the per-reference pick modulo-free.
        const size_t n = slots_.size();
        for (size_t step = 0; step < n; ++step) {
            size_t idx = rrNext_ + step;
            if (idx >= n)
                idx -= n;
            if (slots_[idx].live) {
                rrNext_ = idx + 1 == n ? 0 : idx + 1;
                return static_cast<int>(idx);
            }
        }
        return -1;
      }
      case MixPolicy::Weighted: {
        // Credit scheduler: every live slot earns its weight per step; the
        // richest slot is served and pays the total weight issued this
        // step, so long-run service is proportional to weight.
        int best = -1;
        double total = 0.0;
        for (size_t i = 0; i < slots_.size(); ++i) {
            if (!slots_[i].live)
                continue;
            slots_[i].credit += slots_[i].weight;
            total += slots_[i].weight;
            if (best < 0 ||
                slots_[i].credit > slots_[static_cast<size_t>(best)].credit) {
                best = static_cast<int>(i);
            }
        }
        if (best >= 0)
            slots_[static_cast<size_t>(best)].credit -= total;
        return best;
      }
      case MixPolicy::Random: {
        u32 pick = rng_.below(liveCount_);
        for (size_t i = 0; i < slots_.size(); ++i) {
            if (!slots_[i].live)
                continue;
            if (pick == 0)
                return static_cast<int>(i);
            --pick;
        }
        return -1;
      }
    }
    return -1;
}

void
Interleaver::markDry(Slot &slot)
{
    slot.live = false;
    --liveCount_;
}

std::optional<MemAccess>
Interleaver::next()
{
    if (limit_ != 0 && produced_ >= limit_)
        return std::nullopt;

    while (true) {
        const int idx = pickSource();
        if (idx < 0)
            return std::nullopt;
        Slot &slot = slots_[static_cast<size_t>(idx)];
        if (auto a = slot.source->next()) {
            ++produced_;
            return a;
        }
        markDry(slot);
    }
}

size_t
Interleaver::nextBatch(MemAccess *out, size_t max)
{
    size_t n = 0;
    while (n < max) {
        if (limit_ != 0 && produced_ >= limit_)
            break;
        const int idx = pickSource();
        if (idx < 0)
            break;
        Slot &slot = slots_[static_cast<size_t>(idx)];
        if (auto a = slot.source->next()) {
            ++produced_;
            out[n++] = *a;
        } else {
            markDry(slot);
        }
    }
    return n;
}

size_t
Interleaver::drainHints(PhaseHint *out, size_t max)
{
    size_t n = 0;
    for (Slot &slot : slots_) {
        if (n >= max)
            break;
        n += slot.source->drainHints(out + n, max - n);
    }
    return n;
}

} // namespace molcache
