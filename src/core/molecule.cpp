#include "core/molecule.hpp"

#include "contract/contract.hpp"
#include "util/bits.hpp"

namespace molcache {

Molecule::Molecule(MoleculeId id, TileId tile, u32 numLines,
                   u32 lineSize)
    : Molecule(id, tile, numLines, lineSize, nullptr, nullptr)
{
    ownLines_.assign(numLines, 0);
    ownTouched_.assign(numLines, 0);
    lines_ = ownLines_.data();
    touched_ = ownTouched_.data();
}

Molecule::Molecule(MoleculeId id, TileId tile, u32 numLines, u32 lineSize,
                   u64 *lines, Tick *touched)
    : id_(id), tile_(tile), numLines_(numLines), lineSize_(lineSize),
      lines_(lines), touched_(touched)
{
    MOLCACHE_EXPECT(numLines > 0 && isPowerOfTwo(numLines),
                    "molecule lines must be a power of two");
    MOLCACHE_EXPECT(isPowerOfTwo(lineSize), "line size must be 2^k");
    MOLCACHE_EXPECT(static_cast<u64>(numLines) * lineSize >=
                        kMinMoleculeBytes,
                    "molecule too small for the line-state bits");
    lineShift_ = floorLog2(lineSize);
    tagMask_ = ~((static_cast<Addr>(numLines) << lineShift_) - 1);
}

void
Molecule::clearLine(u32 index)
{
    lines_[index] = 0;
    stamp(index, 0);
}

void
Molecule::assignTo(Asid asid)
{
    MOLCACHE_EXPECT(asid != kInvalidAsid, "assigning invalid ASID");
    MOLCACHE_EXPECT(!decommissioned_, "assigning a decommissioned molecule");
    // Reconfiguration invalidates contents: region data must not leak
    // between applications.
    for (u32 i = 0; i < numLines_; ++i)
        clearLine(i);
    valid_ = 0;
    asid_ = asid;
    missCount_ = 0;
}

u32
Molecule::release()
{
    u32 dirty = 0;
    for (u32 i = 0; i < numLines_; ++i) {
        // Poisoned lines are corrupt: dropped, never written back.
        if ((lines_[i] & kLineStateBits) == (kLineValid | kLineDirty))
            ++dirty;
        clearLine(i);
    }
    valid_ = 0;
    asid_ = kInvalidAsid;
    shared_ = false;
    missCount_ = 0;
    return dirty;
}

void
Molecule::markDirty(Addr addr)
{
    const u32 i = indexOf(addr);
    MOLCACHE_EXPECT((lines_[i] & kLineValid) != 0 &&
                        sameTag(lines_[i], addr),
                    "markDirty on non-resident line");
    lines_[i] |= kLineDirty;
}

std::optional<Eviction>
Molecule::fill(Addr addr, bool dirty, Tick tick)
{
    const u32 i = indexOf(addr);
    const u64 w = lines_[i];
    std::optional<Eviction> evicted;
    if ((w & kLineValid) != 0) {
        if (sameTag(w, addr)) {
            // Refill of a resident line.  A poisoned copy is overwritten
            // by the fresh fill, which also clears the corruption — but
            // its dirty bit described lost data, so it must not merge.
            const bool merged = (w & kLinePoisoned) != 0
                                    ? dirty
                                    : ((w & kLineDirty) != 0 || dirty);
            lines_[i] = (addr & tagMask_) | kLineValid |
                        (merged ? kLineDirty : 0);
            stamp(i, tick);
            return std::nullopt;
        }
        evicted = Eviction{lineAddrAt(i, w), (w & kLineDirty) != 0,
                           (w & kLinePoisoned) != 0};
    } else {
        ++valid_;
    }
    lines_[i] = (addr & tagMask_) | kLineValid | (dirty ? kLineDirty : 0);
    stamp(i, tick);
    return evicted;
}

void
Molecule::noteTouch(Addr addr, Tick tick)
{
    const u32 i = indexOf(addr);
    MOLCACHE_EXPECT((lines_[i] & kLineValid) != 0 &&
                        sameTag(lines_[i], addr),
                    "noteTouch on non-resident line");
    MOLCACHE_EXPECT(touched_ != nullptr,
                    "noteTouch on a molecule that keeps no stamps");
    touched_[i] = tick;
}

std::optional<Tick>
Molecule::slotTouchTick(Addr addr) const
{
    const u32 i = indexOf(addr);
    if ((lines_[i] & kLineValid) == 0)
        return std::nullopt;
    MOLCACHE_EXPECT(touched_ != nullptr,
                    "slotTouchTick on a molecule that keeps no stamps");
    return touched_[i];
}

std::vector<Addr>
Molecule::residentLines() const
{
    std::vector<Addr> out;
    out.reserve(valid_);
    for (u32 i = 0; i < numLines_; ++i) {
        if ((lines_[i] & kLineValid) != 0)
            out.push_back(lineAddrAt(i, lines_[i]));
    }
    return out;
}

bool
Molecule::invalidate(Addr addr)
{
    const u32 i = indexOf(addr);
    const u64 w = lines_[i];
    if ((w & kLineValid) == 0 || !sameTag(w, addr))
        return false;
    const bool was_dirty = (w & (kLineDirty | kLinePoisoned)) == kLineDirty;
    clearLine(i);
    --valid_;
    return was_dirty;
}

bool
Molecule::poisonLine(u32 index)
{
    MOLCACHE_EXPECT(index < numLines_, "poisoned line index out of range");
    if ((lines_[index] & kLineValid) == 0)
        return false; // flip in an invalid slot: nothing to corrupt
    lines_[index] |= kLinePoisoned;
    return true;
}

std::optional<Eviction>
Molecule::scrubIfPoisoned(Addr addr)
{
    const u32 i = indexOf(addr);
    const u64 w = lines_[i];
    if ((w & kLineValid) == 0 || (w & kLinePoisoned) == 0)
        return std::nullopt;
    // Parity caught the corruption: drop the line whatever tag it holds
    // (the probe reads the whole slot), and report its identity.
    const Eviction dropped{lineAddrAt(i, w), (w & kLineDirty) != 0, true};
    clearLine(i);
    --valid_;
    return dropped;
}

u32
Molecule::poisonedLines() const
{
    u32 n = 0;
    for (u32 i = 0; i < numLines_; ++i)
        if ((lines_[i] & (kLineValid | kLinePoisoned)) ==
            (kLineValid | kLinePoisoned))
            ++n;
    return n;
}

} // namespace molcache
