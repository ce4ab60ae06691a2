/**
 * @file
 * Access sources and multi-application interleaving.
 *
 * A CMP with N cores presents the shared cache with an interleaving of N
 * per-application reference streams.  The paper's concurrency experiments
 * (Table 1, Figure 5, Table 2) replay such merged traces; molcache models
 * the merge explicitly so the mix policy is controllable:
 *
 *  - RoundRobin: one reference per application per turn (symmetric cores);
 *  - Weighted:   applications issue in proportion to weights (models
 *                different memory intensities);
 *  - Random:     each slot picks a uniformly random application.
 */

#ifndef MOLCACHE_MEM_INTERLEAVE_HPP
#define MOLCACHE_MEM_INTERLEAVE_HPP

#include <memory>
#include <optional>
#include <vector>

#include "mem/access.hpp"
#include "mem/phase_hint.hpp"
#include "util/random.hpp"
#include "util/types.hpp"

namespace molcache {

/** Pull-based stream of memory references. */
class AccessSource
{
  public:
    virtual ~AccessSource() = default;

    /** Next reference, or nullopt when the stream is exhausted. */
    virtual std::optional<MemAccess> next() = 0;

    /**
     * Fill @p out with up to @p max references; returns the count
     * produced (0 = exhausted).  The default implementation loops over
     * next(); sources with cheap bulk access override it so the
     * simulate loop pays one virtual dispatch per batch instead of per
     * reference.  Semantics are identical to repeated next() calls.
     */
    virtual size_t nextBatch(MemAccess *out, size_t max);

    /**
     * Drain phase hints queued since the last drain into @p out (up to
     * @p max); returns the count copied.  Hints are side-band claims
     * about the stream's future (mem/phase_hint.hpp) — draining or
     * ignoring them never changes what next()/nextBatch() produce.
     * Default: no hints.
     */
    virtual size_t drainHints(PhaseHint *out, size_t max);
};

/** AccessSource over an in-memory vector. */
class VectorSource final : public AccessSource
{
  public:
    explicit VectorSource(std::vector<MemAccess> accesses);

    std::optional<MemAccess> next() override;
    size_t nextBatch(MemAccess *out, size_t max) override;

  private:
    std::vector<MemAccess> accesses_;
    size_t pos_ = 0;
};

/** Interleaving discipline. */
enum class MixPolicy { RoundRobin, Weighted, Random };

/**
 * Merge several per-application sources into one stream.  Exhausted
 * sources drop out of the rotation; the merged stream ends when all
 * sources are dry or when @p limit references have been produced.
 */
class Interleaver final : public AccessSource
{
  public:
    /**
     * @param sources  one source per application
     * @param policy   mixing discipline
     * @param weights  per-source weights (Weighted policy only; must match
     *                 sources.size(); values need not be normalized)
     * @param seed     RNG seed (Random policy)
     * @param limit    stop after this many merged references (0 = no limit)
     */
    Interleaver(std::vector<std::unique_ptr<AccessSource>> sources,
                MixPolicy policy, std::vector<double> weights = {},
                u64 seed = 1, u64 limit = 0);

    std::optional<MemAccess> next() override;

    /** Bulk merge: identical sequence to repeated next() calls, but the
     * per-reference virtual dispatch and optional boxing stay inside
     * one call so the simulate loop's pull side is batched end to end
     * (docs/perf.md). */
    size_t nextBatch(MemAccess *out, size_t max) override;

    /** Collects whatever the per-application sources queued, in slot
     * order (exhausted sources included — a hint emitted with a source's
     * final references is still delivered). */
    size_t drainHints(PhaseHint *out, size_t max) override;

    u64 produced() const { return produced_; }

  private:
    /** Pick the index of the next live source, or -1 if all are dry. */
    int pickSource();

    struct Slot
    {
        std::unique_ptr<AccessSource> source;
        double weight = 1.0;
        /** Deficit counter for weighted round robin. */
        double credit = 0.0;
        bool live = true;
    };

    /** Take a source that returned nothing out of the rotation. */
    void markDry(Slot &slot);

    std::vector<Slot> slots_;
    MixPolicy policy_;
    Pcg32 rng_;
    u64 limit_;
    u64 produced_ = 0;
    size_t rrNext_ = 0;
    /** Slots still live: an empty rotation ends the stream, and Random
     * draws among this many. */
    u32 liveCount_ = 0;
};

} // namespace molcache

#endif // MOLCACHE_MEM_INTERLEAVE_HPP
