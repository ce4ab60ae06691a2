#include "noc/topology.hpp"

#include <gtest/gtest.h>

namespace molcache {
namespace {

NocParams
params(NocTopology t, u32 cyclesPerHop = 2, double energy = 0.15)
{
    NocParams p;
    p.topology = t;
    p.cyclesPerHop = cyclesPerHop;
    p.energyPerHopNj = energy;
    return p;
}

TEST(Noc, ParseAndName)
{
    EXPECT_EQ(parseNocTopology("ring"), NocTopology::Ring);
    EXPECT_EQ(parseNocTopology("mesh"), NocTopology::Mesh);
    EXPECT_EQ(parseNocTopology("crossbar"), NocTopology::Crossbar);
    EXPECT_EQ(nocTopologyName(NocTopology::Ring), "ring");
}

TEST(Noc, SelfMessagesAreFree)
{
    for (const auto t : {NocTopology::Crossbar, NocTopology::Ring,
                         NocTopology::Mesh}) {
        NocModel noc(4, params(t));
        EXPECT_EQ(noc.hopCount(2, 2), 0u) << nocTopologyName(t);
        EXPECT_EQ(noc.latencyCycles(2, 2), 0u);
    }
}

TEST(Noc, CrossbarIsOneHop)
{
    NocModel noc(8, params(NocTopology::Crossbar));
    for (u32 a = 0; a < 8; ++a)
        for (u32 b = 0; b < 8; ++b)
            if (a != b) {
                EXPECT_EQ(noc.hopCount(a, b), 1u);
            }
    EXPECT_EQ(noc.diameter(), 1u);
}

TEST(Noc, RingTakesTheShortWay)
{
    NocModel noc(6, params(NocTopology::Ring));
    EXPECT_EQ(noc.hopCount(0, 1), 1u);
    EXPECT_EQ(noc.hopCount(0, 3), 3u);
    EXPECT_EQ(noc.hopCount(0, 5), 1u); // wrap-around
    EXPECT_EQ(noc.hopCount(1, 5), 2u);
    EXPECT_EQ(noc.diameter(), 3u);
}

TEST(Noc, MeshUsesManhattanDistance)
{
    // 4 clusters => 2x2 mesh: corners are 2 hops apart.
    NocModel noc(4, params(NocTopology::Mesh));
    EXPECT_EQ(noc.hopCount(0, 1), 1u);
    EXPECT_EQ(noc.hopCount(0, 2), 1u);
    EXPECT_EQ(noc.hopCount(0, 3), 2u);
    EXPECT_EQ(noc.diameter(), 2u);

    // 9 clusters => 3x3 mesh: opposite corners are 4 hops.
    NocModel mesh9(9, params(NocTopology::Mesh));
    EXPECT_EQ(mesh9.hopCount(0, 8), 4u);
    EXPECT_EQ(mesh9.diameter(), 4u);
}

TEST(Noc, SymmetricDistances)
{
    for (const auto t : {NocTopology::Crossbar, NocTopology::Ring,
                         NocTopology::Mesh}) {
        NocModel noc(7, params(t));
        for (u32 a = 0; a < 7; ++a)
            for (u32 b = 0; b < 7; ++b)
                EXPECT_EQ(noc.hopCount(a, b), noc.hopCount(b, a))
                    << nocTopologyName(t);
    }
}

TEST(Noc, CostsScaleWithHops)
{
    NocModel noc(6, params(NocTopology::Ring, 3, 0.5));
    EXPECT_EQ(noc.latencyCycles(0, 3), 9u);
    EXPECT_DOUBLE_EQ(noc.messageEnergyNj(0, 3), 1.5);
}

TEST(Noc, StatsAccumulate)
{
    NocModel noc(4, params(NocTopology::Ring, 2, 0.25));
    EXPECT_EQ(noc.sendMessage(0, 2), 4u); // 2 hops x 2 cycles
    EXPECT_EQ(noc.sendMessage(0, 1), 2u);
    EXPECT_EQ(noc.stats().messages, 2u);
    EXPECT_EQ(noc.stats().hops, 3u);
    EXPECT_EQ(noc.stats().cycles, 6u);
    EXPECT_DOUBLE_EQ(noc.stats().energyNj, 0.75);
    noc.resetStats();
    EXPECT_EQ(noc.stats().messages, 0u);
}

TEST(Noc, SingleClusterDegenerate)
{
    NocModel noc(1, params(NocTopology::Mesh));
    EXPECT_EQ(noc.diameter(), 0u);
    EXPECT_EQ(noc.sendMessage(0, 0), 0u);
}

} // namespace
} // namespace molcache
