#include "core/ulmo.hpp"

#include <gtest/gtest.h>

namespace molcache {
namespace {

TEST(Ulmo, Construction)
{
    Ulmo ulmo(ClusterId{1}, {TileId{4}, TileId{5}, TileId{6}, TileId{7}});
    EXPECT_EQ(ulmo.cluster(), ClusterId{1});
    EXPECT_EQ(ulmo.tiles().size(), 4u);
    EXPECT_TRUE(ulmo.managesTile(TileId{4}));
    EXPECT_TRUE(ulmo.managesTile(TileId{7}));
    EXPECT_FALSE(ulmo.managesTile(TileId{3}));
    EXPECT_FALSE(ulmo.managesTile(TileId{8}));
}

TEST(Ulmo, StatCounters)
{
    Ulmo ulmo(ClusterId{0}, {TileId{0}});
    ulmo.noteTileMiss();
    ulmo.noteTileMiss();
    ulmo.noteRemoteProbes(5);
    ulmo.noteRemoteProbes(3);
    ulmo.noteRemoteHit();
    ulmo.noteDonation();
    ulmo.noteInvalidation();
    EXPECT_EQ(ulmo.tileMisses(), 2u);
    EXPECT_EQ(ulmo.remoteProbes(), 8u);
    EXPECT_EQ(ulmo.remoteHits(), 1u);
    EXPECT_EQ(ulmo.donations(), 1u);
    EXPECT_EQ(ulmo.invalidationsApplied(), 1u);
}

TEST(UlmoDeath, NoTiles)
{
    EXPECT_DEATH(Ulmo(ClusterId{0}, {}), "no tiles");
}

} // namespace
} // namespace molcache
