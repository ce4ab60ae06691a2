/**
 * @file
 * Phase-hint emission tests (workload/adversarial.hpp, HintPolicy):
 * the side-band channel's determinism, its degradation knobs (jitter,
 * magnitude, inverted sign, dropout), and the contract that emitting or
 * suppressing hints never changes the address stream.
 */

#include "workload/adversarial.hpp"

#include <cstdlib>

#include <gtest/gtest.h>

#include "util/config.hpp"

namespace molcache {
namespace {

constexpr u64 kRefs = 200'000;
constexpr u64 kPhaseLength = 40'000; // PhaseFlip phase spacing

/** Run @p gen to exhaustion (or @p refs) collecting every hint. */
std::vector<PhaseHint>
collectHints(AdversaryGenerator &gen, u64 refs)
{
    std::vector<PhaseHint> out;
    PhaseHint buf[8];
    for (u64 i = 0; i < refs; ++i) {
        if (!gen.next())
            break;
        const size_t n = gen.drainHints(buf, 8);
        out.insert(out.end(), buf, buf + n);
    }
    return out;
}

HintPolicy
policy()
{
    HintPolicy p;
    p.enabled = true;
    p.leadAccesses = 12'000;
    p.confidence = 0.9;
    return p;
}

TEST(AdversarialHints, PhaseFlipEmitsOnePerBoundaryDeterministically)
{
    AdversaryGenerator a(AdversaryKind::PhaseFlip, Asid{0}, kRefs, 1,
                         policy());
    const std::vector<PhaseHint> hints = collectHints(a, kRefs);
    // Boundaries at 40k, 80k, 120k, 160k, 200k; the last one's emission
    // point (188k) is still inside the run.
    EXPECT_EQ(hints.size(), kRefs / kPhaseLength);
    for (const PhaseHint &h : hints) {
        EXPECT_EQ(h.asid, Asid{0});
        EXPECT_LE(h.leadAccesses, policy().leadAccesses);
        EXPECT_DOUBLE_EQ(h.confidence, 0.9);
    }
    // Alternating promised footprints: cold (1 MiB) then hot (48 KiB).
    EXPECT_EQ(hints[0].predictedFootprintBytes, 1024u * 1024u);
    EXPECT_EQ(hints[1].predictedFootprintBytes, 48u * 1024u);

    // Same seed, same policy => identical schedule.
    AdversaryGenerator b(AdversaryKind::PhaseFlip, Asid{0}, kRefs, 1,
                         policy());
    const std::vector<PhaseHint> again = collectHints(b, kRefs);
    ASSERT_EQ(again.size(), hints.size());
    for (size_t i = 0; i < hints.size(); ++i) {
        EXPECT_EQ(again[i].leadAccesses, hints[i].leadAccesses);
        EXPECT_EQ(again[i].predictedFootprintBytes,
                  hints[i].predictedFootprintBytes);
    }
}

TEST(AdversarialHints, AddressStreamIdenticalWithHintsOnDegradedOrOff)
{
    AdversaryGenerator off(AdversaryKind::PhaseFlip, Asid{0}, kRefs, 7);
    AdversaryGenerator on(AdversaryKind::PhaseFlip, Asid{0}, kRefs, 7,
                          policy());
    HintPolicy degraded = policy();
    degraded.jitterAccesses = 5'000;
    degraded.invertPhase = true;
    degraded.dropProbability = 0.5;
    AdversaryGenerator bad(AdversaryKind::PhaseFlip, Asid{0}, kRefs, 7,
                           degraded);
    PhaseHint buf[8];
    for (u64 i = 0; i < kRefs; ++i) {
        const auto x = off.next();
        const auto y = on.next();
        const auto z = bad.next();
        ASSERT_TRUE(x && y && z);
        EXPECT_EQ(x->addr, y->addr);
        EXPECT_EQ(x->addr, z->addr);
        EXPECT_EQ(x->type, y->type);
        EXPECT_EQ(x->type, z->type);
        while (on.drainHints(buf, 8) > 0) {
        }
        while (bad.drainHints(buf, 8) > 0) {
        }
    }
}

TEST(AdversarialHints, InvertPhasePromisesTheDepartingFootprint)
{
    HintPolicy lying = policy();
    lying.invertPhase = true;
    AdversaryGenerator honest(AdversaryKind::PhaseFlip, Asid{0}, kRefs,
                              1, policy());
    AdversaryGenerator liar(AdversaryKind::PhaseFlip, Asid{0}, kRefs, 1,
                            lying);
    const auto truth = collectHints(honest, kRefs);
    const auto lies = collectHints(liar, kRefs);
    ASSERT_EQ(truth.size(), lies.size());
    for (size_t i = 0; i < truth.size(); ++i) {
        // The liar promises the phase being left, so its footprints are
        // exactly one phase out of step with the honest schedule.
        EXPECT_NE(lies[i].predictedFootprintBytes,
                  truth[i].predictedFootprintBytes);
        if (i > 0) {
            EXPECT_EQ(lies[i].predictedFootprintBytes,
                      truth[i - 1].predictedFootprintBytes);
        }
    }
}

TEST(AdversarialHints, MagnitudeScaleDistortsThePromise)
{
    HintPolicy inflated = policy();
    inflated.magnitudeScale = 2.0;
    AdversaryGenerator honest(AdversaryKind::PhaseFlip, Asid{0}, kRefs,
                              1, policy());
    AdversaryGenerator big(AdversaryKind::PhaseFlip, Asid{0}, kRefs, 1,
                           inflated);
    const auto truth = collectHints(honest, kRefs);
    const auto scaled = collectHints(big, kRefs);
    ASSERT_EQ(truth.size(), scaled.size());
    for (size_t i = 0; i < truth.size(); ++i)
        EXPECT_EQ(scaled[i].predictedFootprintBytes,
                  2 * truth[i].predictedFootprintBytes);
}

TEST(AdversarialHints, DropoutSilentlyThinsTheSchedule)
{
    HintPolicy mute = policy();
    mute.dropProbability = 1.0;
    AdversaryGenerator gen(AdversaryKind::PhaseFlip, Asid{0}, kRefs, 1,
                           mute);
    EXPECT_TRUE(collectHints(gen, kRefs).empty());

    // Partial dropout thins the schedule deterministically; the hints
    // that do survive are indistinguishable from a reliable tenant's
    // (no jitter here, so the timing stays exact).
    HintPolicy flaky = policy();
    flaky.dropProbability = 0.5;
    AdversaryGenerator some(AdversaryKind::PhaseFlip, Asid{0}, kRefs, 1,
                            flaky);
    const auto thinned = collectHints(some, kRefs);
    const size_t boundaries = kRefs / kPhaseLength;
    EXPECT_LT(thinned.size(), boundaries);
    for (const PhaseHint &h : thinned) {
        EXPECT_EQ(h.leadAccesses, policy().leadAccesses);
        EXPECT_TRUE(h.predictedFootprintBytes == 48u * 1024u ||
                    h.predictedFootprintBytes == 1024u * 1024u);
    }

    AdversaryGenerator again(AdversaryKind::PhaseFlip, Asid{0}, kRefs,
                             1, flaky);
    EXPECT_EQ(collectHints(again, kRefs).size(), thinned.size());
}

TEST(AdversarialHints, JitterMovesTheEmissionPointOnly)
{
    HintPolicy jittered = policy();
    jittered.jitterAccesses = 5'000;
    AdversaryGenerator crisp(AdversaryKind::PhaseFlip, Asid{0}, kRefs, 1,
                             policy());
    AdversaryGenerator noisy(AdversaryKind::PhaseFlip, Asid{0}, kRefs, 1,
                             jittered);
    const auto exact = collectHints(crisp, kRefs);
    const auto moved = collectHints(noisy, kRefs);
    ASSERT_EQ(exact.size(), moved.size());
    bool any_shift = false;
    for (size_t i = 0; i < exact.size(); ++i) {
        // The promise itself is untouched; only the timing wobbles
        // within the configured bound.
        EXPECT_EQ(moved[i].predictedFootprintBytes,
                  exact[i].predictedFootprintBytes);
        const i64 lead_delta =
            static_cast<i64>(moved[i].leadAccesses) -
            static_cast<i64>(exact[i].leadAccesses);
        EXPECT_LE(std::llabs(lead_delta),
                  static_cast<i64>(jittered.jitterAccesses));
        any_shift = any_shift || lead_delta != 0;
    }
    EXPECT_TRUE(any_shift);
}

TEST(AdversarialHints, UnstructuredKindsNeverEmit)
{
    AdversaryGenerator hog(AdversaryKind::Hog, Asid{0}, kRefs, 1,
                           policy());
    AdversaryGenerator steady(AdversaryKind::Steady, Asid{1}, kRefs, 1,
                              policy());
    EXPECT_TRUE(collectHints(hog, kRefs).empty());
    EXPECT_TRUE(collectHints(steady, kRefs).empty());
}

TEST(AdversarialHints, HintsFlowThroughTheMergedSource)
{
    const std::vector<AdversaryKind> mix = {AdversaryKind::PhaseFlip,
                                            AdversaryKind::Hog};
    std::vector<HintPolicy> hints(mix.size());
    hints[0] = policy();
    auto source = makeAdversarialSource(mix, hints, kRefs, 1);
    PhaseHint buf[8];
    size_t seen = 0;
    while (source->next()) {
        for (size_t n = source->drainHints(buf, 8); n > 0;) {
            const PhaseHint &h = buf[--n];
            EXPECT_EQ(h.asid, Asid{0}); // only the phase-flipper hints
            ++seen;
        }
    }
    EXPECT_GT(seen, 0u);
}

TEST(AdversarialHints, PolicyFromConfigReadsTheWorkloadHintKeys)
{
    const Config cfg = Config::fromTokens(
        {"workload.hint.enabled=1", "workload.hint.lead=9000",
         "workload.hint.jitter=500", "workload.hint.magnitude=1.5",
         "workload.hint.invert=1", "workload.hint.drop=0.25",
         "workload.hint.confidence=0.8"});
    const HintPolicy p = hintPolicyFromConfig(cfg);
    EXPECT_TRUE(p.enabled);
    EXPECT_EQ(p.leadAccesses, 9000u);
    EXPECT_EQ(p.jitterAccesses, 500u);
    EXPECT_DOUBLE_EQ(p.magnitudeScale, 1.5);
    EXPECT_TRUE(p.invertPhase);
    EXPECT_DOUBLE_EQ(p.dropProbability, 0.25);
    EXPECT_DOUBLE_EQ(p.confidence, 0.8);

    // Defaults survive an empty config.
    const HintPolicy d = hintPolicyFromConfig(Config{});
    EXPECT_FALSE(d.enabled);
    EXPECT_EQ(d.leadAccesses, 12'000u);
}

} // namespace
} // namespace molcache
