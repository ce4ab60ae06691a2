#include "workload/generator.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "workload/profiles.hpp"

namespace molcache {
namespace {

TEST(Generator, ProducesExactlyLimit)
{
    TraceGenerator gen(profileByName("ammp"), Asid{0}, 1000, 1);
    u64 n = 0;
    while (gen.next())
        ++n;
    EXPECT_EQ(n, 1000u);
    EXPECT_EQ(gen.produced(), 1000u);
}

TEST(Generator, StampsAsid)
{
    TraceGenerator gen(profileByName("art"), Asid{7}, 100, 1);
    while (auto a = gen.next())
        EXPECT_EQ(a->asid, Asid{7});
}

TEST(Generator, DeterministicPerSeed)
{
    const auto a = generateTrace(profileByName("parser"), Asid{0}, 500, 42);
    const auto b = generateTrace(profileByName("parser"), Asid{0}, 500, 42);
    EXPECT_EQ(a, b);
}

TEST(Generator, DifferentSeedsDiffer)
{
    const auto a = generateTrace(profileByName("parser"), Asid{0}, 500, 1);
    const auto b = generateTrace(profileByName("parser"), Asid{0}, 500, 2);
    EXPECT_NE(a, b);
}

TEST(Generator, DifferentAsidsUseDifferentWindows)
{
    const auto a = generateTrace(profileByName("ammp"), Asid{0}, 200, 1);
    const auto b = generateTrace(profileByName("ammp"), Asid{1}, 200, 1);
    for (const auto &acc : a)
        EXPECT_LT(acc.addr, applicationBase(Asid{1}));
    for (const auto &acc : b)
        EXPECT_GE(acc.addr, applicationBase(Asid{1}));
}

TEST(Generator, WriteFractionApproximatelyHonoured)
{
    const auto &profile = profileByName("mcf"); // writeFraction 0.25
    const auto trace = generateTrace(profile, Asid{0}, 50000, 3);
    u64 writes = 0;
    for (const auto &a : trace)
        writes += a.isWrite() ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(writes) / trace.size(),
                profile.writeFraction, 0.02);
}

TEST(MultiProgram, InterleavesAllApps)
{
    auto src = makeMultiProgramSource({"art", "ammp"}, 1000);
    std::map<Asid, u64> counts;
    while (auto a = src->next())
        ++counts[a->asid];
    EXPECT_EQ(counts.size(), 2u);
    EXPECT_EQ(counts[Asid{0}], 500u);
    EXPECT_EQ(counts[Asid{1}], 500u);
}

TEST(MultiProgram, TotalReferenceBudget)
{
    auto src = makeMultiProgramSource(spec4Names(), 4004);
    u64 n = 0;
    while (src->next())
        ++n;
    EXPECT_EQ(n, 4004u);
}

// Golden hashes: the merged streams the sweeps replay, pinned bit for bit
// so a faster sampler or interleaver cannot change a single reference
// (docs/perf.md "Trace generation").

/** 64-bit FNV-1a over the first @p n references of @p src (address,
 * ASID and type of each), pulled through nextBatch() as Simulator::run
 * does. */
u64
traceHash(AccessSource &src, u64 n)
{
    u64 hash = 0xcbf29ce484222325ull;
    const auto mix = [&hash](u64 value, int bytes) {
        for (int b = 0; b < bytes; ++b) {
            hash ^= (value >> (8 * b)) & 0xff;
            hash *= 0x100000001b3ull;
        }
    };
    std::vector<MemAccess> block(4096);
    u64 seen = 0;
    while (seen < n) {
        const size_t got = src.nextBatch(
            block.data(), static_cast<size_t>(std::min<u64>(
                              block.size(), n - seen)));
        if (got == 0)
            break;
        for (size_t i = 0; i < got; ++i) {
            mix(block[i].addr, 8);
            mix(block[i].asid.value(), 2);
            mix(block[i].isWrite() ? 1 : 0, 1);
        }
        seen += got;
    }
    EXPECT_EQ(seen, n) << "stream ended early";
    return hash;
}

constexpr u64 kGoldenRefs = 200000;

/** One TraceGenerator per profile, ASIDs in list order, each stopping
 * after its own limit (0 = unbounded). */
std::vector<std::unique_ptr<AccessSource>>
generators(const std::vector<std::string> &names,
           const std::vector<u64> &limits, u64 seed)
{
    std::vector<std::unique_ptr<AccessSource>> sources;
    for (size_t i = 0; i < names.size(); ++i)
        sources.push_back(std::make_unique<TraceGenerator>(
            profileByName(names[i]), static_cast<Asid>(i),
            limits.empty() ? 0 : limits[i], seed));
    return sources;
}

TEST(GoldenTrace, Spec4RoundRobin)
{
    auto src = makeMultiProgramSource(spec4Names(), kGoldenRefs,
                                      MixPolicy::RoundRobin, 1);
    EXPECT_EQ(traceHash(*src, kGoldenRefs), 0x9816e9c787146712ull);
}

TEST(GoldenTrace, Mixed12RoundRobin)
{
    auto src = makeMultiProgramSource(mixed12Names(), kGoldenRefs,
                                      MixPolicy::RoundRobin, 1);
    EXPECT_EQ(traceHash(*src, kGoldenRefs), 0x85614eb3e16bf61bull);
}

TEST(GoldenTrace, Spec4Random)
{
    auto src = makeMultiProgramSource(spec4Names(), kGoldenRefs,
                                      MixPolicy::Random, 5);
    EXPECT_EQ(traceHash(*src, kGoldenRefs), 0x84aa808e01ed415cull);
}

TEST(GoldenTrace, Spec4Weighted)
{
    Interleaver src(generators(spec4Names(), {}, 3), MixPolicy::Weighted,
                    {1.0, 2.5, 0.5, 4.0}, 3, kGoldenRefs);
    EXPECT_EQ(traceHash(src, kGoldenRefs), 0xa83b9ed9cd35faeaull);
}

TEST(GoldenTrace, RoundRobinSourcesRunDryAtDifferentLengths)
{
    // Two sources stop early, at different points, so most of the
    // stream is picked by the scan over live slots.
    Interleaver src(generators(spec4Names(), {1000, 0, 37001, 90000}, 1),
                    MixPolicy::RoundRobin, {}, 1, kGoldenRefs);
    EXPECT_EQ(traceHash(src, kGoldenRefs), 0xcf822adc6b615f6dull);
}

TEST(GoldenTrace, RoundRobinScanWrapsPastDrySlots)
{
    // Only slot 1 outlives the first few picks, so each pick scans
    // from slot 2 past the end and past dry slot 0 before reaching it.
    Interleaver src(generators(spec4Names(), {2, 0, 5, 3}, 6),
                    MixPolicy::RoundRobin, {}, 6, kGoldenRefs);
    EXPECT_EQ(traceHash(src, kGoldenRefs), 0xd306c495d6ac7923ull);
}

TEST(GoldenTrace, RandomSourcesRunDryAtDifferentLengths)
{
    Interleaver src(generators(spec4Names(), {5000, 60000, 0, 777}, 2),
                    MixPolicy::Random, {}, 2, kGoldenRefs);
    EXPECT_EQ(traceHash(src, kGoldenRefs), 0x5fe73d72b5c5ac6full);
}

TEST(GoldenTrace, EveryRoundRobinSourceRunsDry)
{
    // The merged stream ends when the last source does, before the
    // interleaver's own limit.
    Interleaver src(generators(spec4Names(), {3, 20000, 1, 55555}, 4),
                    MixPolicy::RoundRobin, {}, 4, kGoldenRefs);
    EXPECT_EQ(traceHash(src, 75559), 0xac652cd9ee29e8f4ull);
    MemAccess rest[8];
    EXPECT_EQ(src.nextBatch(rest, 8), 0u);
    EXPECT_EQ(src.produced(), 75559u);
}

} // namespace
} // namespace molcache
