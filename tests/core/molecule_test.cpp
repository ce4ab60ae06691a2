#include "core/molecule.hpp"

#include <gtest/gtest.h>

#include <algorithm>

#include "core/params.hpp"

namespace molcache {
namespace {

Molecule
makeMol()
{
    return Molecule(MoleculeId{5}, TileId{1}, /*numLines=*/128,
                    /*lineSize=*/64);
}

TEST(Molecule, StartsFree)
{
    const Molecule m = makeMol();
    EXPECT_TRUE(m.isFree());
    EXPECT_EQ(m.configuredAsid(), kInvalidAsid);
    EXPECT_FALSE(m.sharedBit());
    EXPECT_EQ(m.validLines(), 0u);
    EXPECT_EQ(m.id(), MoleculeId{5});
    EXPECT_EQ(m.tile(), TileId{1});
}

TEST(Molecule, AsidGate)
{
    Molecule m = makeMol();
    m.assignTo(Asid{7});
    EXPECT_TRUE(m.admits(Asid{7}));
    EXPECT_FALSE(m.admits(Asid{8}));
    m.setSharedBit(true);
    EXPECT_TRUE(m.admits(Asid{8})); // shared bit overrides the comparator
}

TEST(Molecule, FillThenLookup)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    EXPECT_FALSE(m.lookup(0x4000));
    EXPECT_FALSE(m.fill(0x4000, false).has_value()); // cold fill
    EXPECT_TRUE(m.lookup(0x4000));
    EXPECT_TRUE(m.lookup(0x403f)); // same 64B line
    EXPECT_FALSE(m.lookup(0x4040)); // next line
    EXPECT_EQ(m.validLines(), 1u);
}

TEST(Molecule, DirectMappedConflict)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    const u64 span = 128 * 64; // lines * lineSize
    m.fill(0x0, false);
    const auto ev = m.fill(span, false); // same index, different tag
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->addr, 0x0u);
    EXPECT_FALSE(ev->dirty);
    EXPECT_FALSE(m.lookup(0x0));
    EXPECT_TRUE(m.lookup(span));
    EXPECT_EQ(m.validLines(), 1u); // replaced, not added
}

TEST(Molecule, DirtyEvictionReported)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    const u64 span = 128 * 64;
    m.fill(0x40, true); // dirty
    const auto ev = m.fill(0x40 + span, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty);
    EXPECT_EQ(ev->addr, 0x40u);
}

TEST(Molecule, RefillMergesDirtyBit)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    m.fill(0x80, true);
    EXPECT_FALSE(m.fill(0x80, false).has_value()); // refill, no eviction
    const u64 span = 128 * 64;
    const auto ev = m.fill(0x80 + span, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_TRUE(ev->dirty); // dirty bit survived the clean refill
}

TEST(Molecule, MarkDirty)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    m.fill(0xc0, false);
    m.markDirty(0xc0);
    const u64 span = 128 * 64;
    EXPECT_TRUE(m.fill(0xc0 + span, false)->dirty);
}

TEST(Molecule, InvalidateReportsDirty)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    m.fill(0x100, true);
    EXPECT_FALSE(m.invalidate(0x9999999)); // not resident
    EXPECT_TRUE(m.invalidate(0x100));      // resident + dirty
    EXPECT_FALSE(m.lookup(0x100));
    EXPECT_EQ(m.validLines(), 0u);
    m.fill(0x100, false);
    EXPECT_FALSE(m.invalidate(0x100)); // resident but clean
}

TEST(Molecule, AssignInvalidatesContents)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    m.fill(0x200, false);
    m.assignTo(Asid{2}); // region handover must not leak lines
    EXPECT_FALSE(m.lookup(0x200));
    EXPECT_EQ(m.validLines(), 0u);
    EXPECT_EQ(m.configuredAsid(), Asid{2});
}

TEST(Molecule, ReleaseCountsDirtyLines)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    m.fill(0x0, true);
    m.fill(0x40, false);
    m.fill(0x80, true);
    EXPECT_EQ(m.release(), 2u);
    EXPECT_TRUE(m.isFree());
    EXPECT_EQ(m.validLines(), 0u);
}

TEST(Molecule, MissCounter)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    m.noteMiss();
    m.noteMiss();
    EXPECT_EQ(m.missCount(), 2u);
    m.resetMissCount();
    EXPECT_EQ(m.missCount(), 0u);
}

TEST(Molecule, ResidentLinesRoundTrip)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    const std::vector<Addr> filled = {0x0, 0x40, 0x1000, 0x1fc0};
    for (const Addr a : filled)
        m.fill(a, false);
    auto resident = m.residentLines();
    std::sort(resident.begin(), resident.end());
    EXPECT_EQ(resident, filled);
}

TEST(Molecule, ResidentLinesReconstructHighAddresses)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    const Addr high = (static_cast<Addr>(3) << 34) + 5 * 64;
    m.fill(high, false);
    const auto resident = m.residentLines();
    ASSERT_EQ(resident.size(), 1u);
    EXPECT_EQ(resident[0], high);
}

/**
 * A line is one word: the tag in place plus the state bits in the low
 * end.  Round-trip lines at the top of the address space (bit 63 set,
 * every tag bit set) through dirty, poison, scrub, refill, invalidate
 * and eviction, checking that no state bit leaks into the tag or the
 * tag into the state.
 */
TEST(Molecule, PackedWordRoundTripAtTopOfAddressSpace)
{
    Molecule m = makeMol();
    m.assignTo(Asid{1});
    const u64 span = 128 * 64;
    const Addr top = ~Addr{0} - 63; // last line of the address space
    const Addr low_tag = top - span; // same slot, tag differs in bit 13
    const Addr other_top = (Addr{1} << 63) + 0x40; // bit 63, other slot
    ASSERT_EQ(top % span, low_tag % span);

    EXPECT_FALSE(m.fill(top + 5, true).has_value());
    EXPECT_TRUE(m.lookup(top));
    EXPECT_TRUE(m.lookup(top + 63));
    EXPECT_EQ(m.probe(top), Molecule::ProbeOutcome::Hit);
    EXPECT_FALSE(m.lookup(low_tag));
    EXPECT_EQ(m.residentLines(), std::vector<Addr>{top});

    // Dirty eviction by a conflicting tag reports the full address.
    const auto ev = m.fill(low_tag, false);
    ASSERT_TRUE(ev.has_value());
    EXPECT_EQ(ev->addr, top);
    EXPECT_TRUE(ev->dirty);
    EXPECT_FALSE(ev->poisoned);
    EXPECT_TRUE(m.lookup(low_tag));
    EXPECT_FALSE(m.lookup(top));

    // Clean line back at the top; markDirty then poison it.
    ASSERT_TRUE(m.fill(top, false).has_value());
    m.markDirty(top);
    const u32 slot = static_cast<u32>((top / 64) % 128);
    EXPECT_TRUE(m.poisonLine(slot));
    EXPECT_EQ(m.poisonedLines(), 1u);
    EXPECT_EQ(m.probe(top), Molecule::ProbeOutcome::Poisoned);
    // A poisoned line is never written back.
    EXPECT_FALSE(m.invalidate(top));
    EXPECT_EQ(m.validLines(), 0u);

    // Poisoned dirty line displaced by a fill: identity intact, data lost.
    m.fill(top, true);
    EXPECT_TRUE(m.poisonLine(slot));
    const auto lost = m.fill(low_tag, false);
    ASSERT_TRUE(lost.has_value());
    EXPECT_EQ(lost->addr, top);
    EXPECT_TRUE(lost->dirty);
    EXPECT_TRUE(lost->poisoned);

    // Scrub reports the poisoned line whatever tag the probe carried.
    EXPECT_TRUE(m.poisonLine(slot));
    const auto scrubbed = m.scrubIfPoisoned(top);
    ASSERT_TRUE(scrubbed.has_value());
    EXPECT_EQ(scrubbed->addr, low_tag);
    EXPECT_FALSE(scrubbed->dirty);
    EXPECT_TRUE(scrubbed->poisoned);
    EXPECT_EQ(m.validLines(), 0u);

    // Refill over a poisoned copy of the same line clears the poison
    // and does not merge the lost dirty bit.
    m.fill(top, true);
    EXPECT_TRUE(m.poisonLine(slot));
    EXPECT_FALSE(m.fill(top, false).has_value());
    EXPECT_EQ(m.probe(top), Molecule::ProbeOutcome::Hit);
    EXPECT_EQ(m.poisonedLines(), 0u);
    EXPECT_FALSE(m.invalidate(top)); // clean

    // Bit 63 in another slot, next to a full-tag line.
    m.fill(top, true);
    m.fill(other_top, true);
    auto resident = m.residentLines();
    std::sort(resident.begin(), resident.end());
    EXPECT_EQ(resident, (std::vector<Addr>{other_top, top}));
    EXPECT_EQ(m.release(), 2u);
    EXPECT_FALSE(m.lookup(top));
    EXPECT_FALSE(m.lookup(other_top));
}

/** The state bits live in the index and offset bits, so a geometry
 * with fewer than three of them is rejected up front, by name. */
TEST(MoleculeDeathTest, ParamsRejectMoleculesWithoutRoomForStateBits)
{
    MolecularCacheParams p;
    p.lineSize = 4;
    p.moleculeSize = Bytes{4};
    EXPECT_EXIT(p.validate(), ::testing::ExitedWithCode(1),
                "molecule size 4 B is below the 8 B minimum");
    p.moleculeSize = Bytes{kMinMoleculeBytes};
    p.validate(); // the smallest molecule that fits passes
}

} // namespace
} // namespace molcache
