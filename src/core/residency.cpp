#include "core/residency.hpp"

#include <algorithm>
#include <limits>

#include "contract/contract.hpp"
#include "util/logging.hpp"

namespace molcache {

ResidencyIndex::ResidencyIndex(u32 molecules, u32 linesPerMolecule)
    : owner_(molecules, kInvalidAsid)
{
    // Every entry is a resident line, so twice the line slots keeps the
    // load factor at or below one half.
    const u64 capacity =
        std::max<u64>(2 * static_cast<u64>(molecules) * linesPerMolecule, 2);
    if (capacity > std::numeric_limits<u32>::max())
        panic("residency index for ", molecules, " molecules of ",
              linesPerMolecule, " lines exceeds the 32-bit table");
    capacity_ = static_cast<u32>(capacity);
    slots_.assign(capacity_, Slot{});
}

void
ResidencyIndex::insert(Asid asid, LineAddr line, MoleculeId mol)
{
    MOLCACHE_EXPECT(mol.value() < owner_.size(), "molecule ", mol,
                    " out of range");
    MOLCACHE_EXPECT(find(asid, line) == kInvalidMolecule, "line ",
                    line.value(), " of ASID ", asid, " already indexed");
    u32 i = homeOf(line);
    while (slots_[i].mol != kInvalidMolecule)
        i = next(i);
    // Keep one slot empty so every probe sequence terminates.
    if (entries_ + 1 >= capacity_)
        panic("residency index full: ", entries_, " lines in ", capacity_,
              " slots");
    slots_[i] = Slot{static_cast<u32>(line.value()),
                     static_cast<u32>(line.value() >> 32), mol};
    owner_[mol.value()] = asid;
    ++entries_;
}

void
ResidencyIndex::erase(LineAddr line, MoleculeId mol)
{
    u32 hole = homeOf(line);
    for (;; hole = next(hole)) {
        const Slot &s = slots_[hole];
        if (s.mol == kInvalidMolecule)
            return;
        if (s.mol == mol && s.line() == line.value())
            break;
    }
    // Backward-shift deletion: pull each later member of the probe run
    // into the hole unless its home lies cyclically in (hole, member].
    const auto distance = [this](u32 from, u32 to) {
        return to >= from ? to - from : to + capacity_ - from;
    };
    for (u32 j = next(hole); slots_[j].mol != kInvalidMolecule;
         j = next(j)) {
        if (distance(homeOf(LineAddr{slots_[j].line()}), j) >=
            distance(hole, j)) {
            slots_[hole] = slots_[j];
            hole = j;
        }
    }
    slots_[hole] = Slot{};
    --entries_;
}

} // namespace molcache
