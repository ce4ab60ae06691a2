#include "core/coherence.hpp"

#include <algorithm>
#include <bit>
#include <limits>

#include "util/logging.hpp"

namespace molcache {

CoherenceDirectory::CoherenceDirectory(u32 numClusters, u64 lineSlots)
    : numClusters_(numClusters)
{
    // Always on: a wider geometry would silently alias holder bits.
    if (numClusters < 1 || numClusters > kMaxClusters)
        panic("directory supports 1..32 clusters, got ", numClusters);
    if (numClusters == 1)
        return;
    // Every tracked line is resident, so twice the line slots keeps the
    // load factor at or below one half.
    const u64 capacity = std::max<u64>(2 * lineSlots, 2);
    if (capacity > std::numeric_limits<u32>::max())
        panic("coherence directory for ", lineSlots,
              " line slots exceeds the 32-bit table");
    capacity_ = static_cast<u32>(capacity);
    lines_.assign(capacity_, 0);
    holders_.assign(capacity_, 0);
    modified_.assign(capacity_, 0);
}

u32
CoherenceDirectory::homeOf(u64 line) const
{
    // Fibonacci hashing spreads the line-aligned (low-zero) addresses;
    // multiply-shift maps the 32-bit hash onto [0, capacity_).
    const u64 hash = (line * 0x9E3779B97F4A7C15ull) >> 32;
    return static_cast<u32>((hash * capacity_) >> 32);
}

u32
CoherenceDirectory::find(u64 line) const
{
    for (u32 i = homeOf(line);; i = next(i)) {
        if (holders_[i] == 0)
            return kAbsent;
        if (lines_[i] == line)
            return i;
    }
}

u32
CoherenceDirectory::findOrInsert(u64 line)
{
    u32 i = homeOf(line);
    for (; holders_[i] != 0; i = next(i)) {
        if (lines_[i] == line)
            return i;
    }
    // Keep one slot empty so every probe sequence terminates.
    if (entries_ + 1 >= capacity_)
        panic("coherence directory full: ", entries_, " lines in ",
              capacity_, " slots");
    ++entries_;
    lines_[i] = line;
    return i;
}

void
CoherenceDirectory::eraseAt(u32 slot)
{
    // Backward-shift deletion: pull each later member of the probe run
    // into the hole unless its home lies cyclically in (hole, member].
    const auto distance = [this](u32 from, u32 to) {
        return to >= from ? to - from : to + capacity_ - from;
    };
    u32 hole = slot;
    for (u32 j = next(slot); holders_[j] != 0; j = next(j)) {
        if (distance(homeOf(lines_[j]), j) >= distance(hole, j)) {
            lines_[hole] = lines_[j];
            holders_[hole] = holders_[j];
            modified_[hole] = modified_[j];
            hole = j;
        }
    }
    holders_[hole] = 0;
    modified_[hole] = 0;
    --entries_;
}

ClusterMask
CoherenceDirectory::claim(u32 slot, ClusterId cluster)
{
    const ClusterMask bit = 1u << cluster.value();
    const ClusterMask invalidate = holders_[slot] & ~bit;
    stats_.invalidationsSent += static_cast<u64>(std::popcount(invalidate));
    holders_[slot] = bit;
    modified_[slot] = 1;
    return invalidate;
}

ClusterMask
CoherenceDirectory::trackFill(LineAddr lineAddr, ClusterId cluster,
                              bool exclusive)
{
    const u32 i = findOrInsert(lineAddr.value());
    if (exclusive)
        return claim(i, cluster);

    // Read fill: a remote modified copy (the line's only holder) is
    // downgraded to shared — its data is assumed written back — and
    // everyone keeps a copy.
    const ClusterMask bit = 1u << cluster.value();
    if (modified_[i] != 0 && holders_[i] != bit) {
        modified_[i] = 0;
        ++stats_.downgrades;
    }
    holders_[i] |= bit;
    return 0;
}

void
CoherenceDirectory::trackEviction(LineAddr lineAddr, ClusterId cluster)
{
    const u32 i = find(lineAddr.value());
    if (i == kAbsent)
        return;
    ++stats_.evictions;
    // A modified line's only holder is its owner: the owner's eviction
    // empties the entry, anyone else's leaves it modified.
    holders_[i] &= ~(1u << cluster.value());
    if (holders_[i] == 0)
        eraseAt(i);
}

u32
CoherenceDirectory::query(LineAddr lineAddr) const
{
    if (numClusters_ == 1)
        panic("per-line directory queries need more than one cluster");
    return find(lineAddr.value());
}

bool
CoherenceDirectory::isHeld(LineAddr lineAddr, ClusterId cluster) const
{
    const u32 i = query(lineAddr);
    return i != kAbsent && (holders_[i] & (1u << cluster.value())) != 0;
}

u32
CoherenceDirectory::holderCount(LineAddr lineAddr) const
{
    const u32 i = query(lineAddr);
    return i == kAbsent ? 0 : static_cast<u32>(std::popcount(holders_[i]));
}

bool
CoherenceDirectory::isModified(LineAddr lineAddr) const
{
    const u32 i = query(lineAddr);
    return i != kAbsent && modified_[i] != 0;
}

} // namespace molcache
