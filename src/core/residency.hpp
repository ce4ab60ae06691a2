/**
 * @file
 * Residency index: which molecule of a region holds a line.
 *
 * Paper section 3.3 looks a line up by probing all of a region's
 * molecules on the home tile at once; on a tile miss Ulmo forwards the
 * request to the region's other tiles.  The hardware probes in
 * parallel, so a simulator that copies the lookup one molecule after
 * another pays 50-170 tag reads on every miss and remote hit.  A line
 * lives in at most one molecule of a region — a fill follows only a
 * lookup that missed every molecule of it — so a table from
 * (ASID, line) to the molecule holding the line answers the same
 * question in O(1).
 *
 * The table is flat open addressing (linear probing, backward-shift
 * deletion, no tombstones; the scheme of the coherence directory) sized
 * once at construction to twice the cache's line slots.  Every entry is
 * a resident line, so the table never fills and never allocates after
 * construction; an insert into a full table is a bug and panics.  A slot
 * holds the line and the molecule (12 bytes); the ASID is not stored
 * per line but per molecule, because every indexed line of a molecule
 * belongs to the region that owns it.
 *
 * The index is only as good as its bookkeeping: MolecularCache notes
 * every line that enters or leaves a molecule of an indexed region
 * (erasing all of a molecule's lines before it changes hands), and reads
 * the index only where it is exact (docs/perf.md "The residency index").
 */

#ifndef MOLCACHE_CORE_RESIDENCY_HPP
#define MOLCACHE_CORE_RESIDENCY_HPP

#include <cstddef>
#include <vector>

#include "util/types.hpp"

namespace molcache {

class ResidencyIndex
{
  public:
    /** @param molecules       molecules of the whole cache
     *  @param linesPerMolecule lines each of them holds */
    ResidencyIndex(u32 molecules, u32 linesPerMolecule);

    /** The molecule holding @p line for @p asid, or kInvalidMolecule. */
    MoleculeId
    find(Asid asid, LineAddr line) const
    {
        for (u32 i = homeOf(line);; i = next(i)) {
            const Slot &s = slots_[i];
            if (s.mol == kInvalidMolecule)
                return kInvalidMolecule;
            if (s.line() == line.value() && owner_[s.mol.value()] == asid)
                return s.mol;
        }
    }

    /** @p line of @p asid was filled into @p mol; the line must not be
     * indexed for @p asid yet (a region holds a line at most once). */
    void insert(Asid asid, LineAddr line, MoleculeId mol);

    /** @p line left @p mol.  A note for a molecule that does not hold
     * the line in the index (an unindexed region's molecule, a no-op
     * invalidation) changes nothing. */
    void erase(LineAddr line, MoleculeId mol);

    /** Indexed lines. */
    size_t entries() const { return entries_; }

  private:
    /** One table slot; mol == kInvalidMolecule marks it empty.  The
     * line is split in two halves to keep the slot at 12 bytes. */
    struct Slot
    {
        u32 lineLo = 0;
        u32 lineHi = 0;
        MoleculeId mol = kInvalidMolecule;

        u64 line() const { return u64{lineHi} << 32 | lineLo; }
    };
    static_assert(sizeof(Slot) == 12, "a residency slot is 12 bytes");

    u32
    homeOf(LineAddr line) const
    {
        // Fibonacci hashing spreads the line-aligned (low-zero)
        // addresses; multiply-shift maps the 32-bit hash onto
        // [0, capacity).
        const u64 hash = (line.value() * 0x9E3779B97F4A7C15ull) >> 32;
        return static_cast<u32>((hash * capacity_) >> 32);
    }
    u32
    next(u32 slot) const
    {
        return slot + 1 == capacity_ ? 0 : slot + 1;
    }

    u32 capacity_ = 0;
    std::vector<Slot> slots_;
    /** Owning ASID of each molecule with indexed lines. */
    std::vector<Asid> owner_;
    size_t entries_ = 0;
};

} // namespace molcache

#endif // MOLCACHE_CORE_RESIDENCY_HPP
