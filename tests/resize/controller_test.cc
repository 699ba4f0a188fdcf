/**
 * @file
 * Unit tests for the resize controllers: the Fig. 5 algorithm's
 * enlarge/shrink behaviour, drain stalls, transition penalties, and
 * the occupancy-policy ablation.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "resize/controller.hh"

namespace mlpwin
{
namespace
{

MlpControllerConfig
fastCfg()
{
    MlpControllerConfig cfg;
    cfg.memoryLatency = 100;
    cfg.transitionPenalty = 0; // Most tests ignore the stall.
    return cfg;
}

WindowOccupancy
occ(unsigned rob, unsigned iq, unsigned lsq)
{
    WindowOccupancy o;
    o.rob = rob;
    o.iq = iq;
    o.lsq = lsq;
    return o;
}

TEST(LevelTableTest, PaperDefaultMatchesTable2)
{
    LevelTable t = LevelTable::paperDefault();
    EXPECT_EQ(t.maxLevel(), 3u);
    EXPECT_EQ(t.at(1).iqSize, 64u);
    EXPECT_EQ(t.at(1).robSize, 128u);
    EXPECT_EQ(t.at(1).lsqSize, 64u);
    EXPECT_EQ(t.at(1).iqDepth, 1u);
    EXPECT_EQ(t.at(2).iqSize, 160u);
    EXPECT_EQ(t.at(2).robSize, 320u);
    EXPECT_EQ(t.at(2).iqDepth, 2u);
    EXPECT_EQ(t.at(3).iqSize, 256u);
    EXPECT_EQ(t.at(3).robSize, 512u);
    EXPECT_EQ(t.at(3).lsqSize, 256u);
    EXPECT_EQ(t.at(3).iqDepth, 2u);
}

TEST(LevelTableTest, ExtraMispredictPenalty)
{
    LevelTable t = LevelTable::paperDefault();
    EXPECT_EQ(t.at(1).extraMispredictPenalty(), 0u);
    EXPECT_EQ(t.at(2).extraMispredictPenalty(), 2u);
    EXPECT_EQ(t.at(3).extraMispredictPenalty(), 2u);
}

TEST(FixedControllerTest, NeverMoves)
{
    LevelTable t = LevelTable::paperDefault();
    FixedLevelController c(t, 2);
    EXPECT_EQ(c.level(), 2u);
    c.onL2DemandMiss(5);
    c.tick(6, occ(500, 250, 250));
    EXPECT_EQ(c.level(), 2u);
    EXPECT_FALSE(c.allocStopped());
}

TEST(MlpControllerTest, EnlargesOnMiss)
{
    LevelTable t = LevelTable::paperDefault();
    MlpAwareController c(t, fastCfg(), nullptr);
    EXPECT_EQ(c.level(), 1u);
    c.onL2DemandMiss(10);
    EXPECT_EQ(c.level(), 2u);
    c.onL2DemandMiss(11);
    EXPECT_EQ(c.level(), 3u);
    c.onL2DemandMiss(12); // Saturates at max.
    EXPECT_EQ(c.level(), 3u);
    EXPECT_EQ(c.upTransitions(), 2u);
}

TEST(MlpControllerTest, ShrinksAfterMemoryLatencyQuiet)
{
    LevelTable t = LevelTable::paperDefault();
    MlpAwareController c(t, fastCfg(), nullptr);
    c.onL2DemandMiss(0); // Level 2; shrink timer = 100.
    WindowOccupancy small = occ(10, 5, 5);
    for (Cycle cyc = 1; cyc < 100; ++cyc) {
        c.tick(cyc, small);
        EXPECT_EQ(c.level(), 2u) << "cycle " << cyc;
    }
    c.tick(100, small);
    EXPECT_EQ(c.level(), 1u);
    EXPECT_EQ(c.downTransitions(), 1u);
}

TEST(MlpControllerTest, MissReArmsShrinkTimer)
{
    LevelTable t = LevelTable::paperDefault();
    MlpAwareController c(t, fastCfg(), nullptr);
    c.onL2DemandMiss(0);
    WindowOccupancy small = occ(10, 5, 5);
    for (Cycle cyc = 1; cyc <= 90; ++cyc)
        c.tick(cyc, small);
    c.onL2DemandMiss(90); // Re-arms: level 3, timer 190.
    EXPECT_EQ(c.level(), 3u);
    for (Cycle cyc = 91; cyc < 190; ++cyc) {
        c.tick(cyc, small);
        EXPECT_EQ(c.level(), 3u);
    }
    c.tick(190, small);
    EXPECT_EQ(c.level(), 2u);
}

TEST(MlpControllerTest, ShrinkWaitsForDrainAndStopsAlloc)
{
    LevelTable t = LevelTable::paperDefault();
    MlpAwareController c(t, fastCfg(), nullptr);
    c.onL2DemandMiss(0); // Level 2.
    // Occupancy too large to fit level 1 (rob > 128).
    WindowOccupancy big = occ(300, 100, 100);
    for (Cycle cyc = 1; cyc <= 150; ++cyc)
        c.tick(cyc, big);
    EXPECT_EQ(c.level(), 2u);     // Cannot shrink yet.
    EXPECT_TRUE(c.allocStopped()); // Draining.
    // Once occupancy fits, the shrink completes.
    c.tick(151, occ(100, 50, 50));
    EXPECT_EQ(c.level(), 1u);
    c.tick(152, occ(100, 50, 50));
    EXPECT_FALSE(c.allocStopped());
}

TEST(MlpControllerTest, ShrinkRequiresAllThreeQueuesToFit)
{
    LevelTable t = LevelTable::paperDefault();
    MlpAwareController c(t, fastCfg(), nullptr);
    c.onL2DemandMiss(0);
    for (Cycle cyc = 1; cyc <= 100; ++cyc)
        c.tick(cyc, occ(100, 100, 10)); // IQ 100 > level-1 64.
    EXPECT_EQ(c.level(), 2u);
    c.tick(101, occ(100, 60, 10));
    EXPECT_EQ(c.level(), 1u);
}

TEST(MlpControllerTest, TransitionPenaltyStallsAllocation)
{
    LevelTable t = LevelTable::paperDefault();
    MlpControllerConfig cfg = fastCfg();
    cfg.transitionPenalty = 10;
    MlpAwareController c(t, cfg, nullptr);
    c.onL2DemandMiss(0);
    for (Cycle cyc = 1; cyc < 10; ++cyc) {
        c.tick(cyc, occ(10, 5, 5));
        EXPECT_TRUE(c.allocStopped()) << "cycle " << cyc;
    }
    c.tick(10, occ(10, 5, 5));
    EXPECT_FALSE(c.allocStopped());
}

TEST(MlpControllerTest, ResidencyAccumulates)
{
    LevelTable t = LevelTable::paperDefault();
    MlpAwareController c(t, fastCfg(), nullptr);
    WindowOccupancy small = occ(1, 1, 1);
    for (Cycle cyc = 0; cyc < 10; ++cyc)
        c.tick(cyc, small);
    c.onL2DemandMiss(10);
    for (Cycle cyc = 10; cyc < 20; ++cyc)
        c.tick(cyc, small);
    const auto &res = c.residency().cyclesAtLevel;
    EXPECT_EQ(res[0], 10u);
    EXPECT_EQ(res[1], 10u);
    EXPECT_EQ(res[2], 0u);
}

TEST(MlpControllerTest, FollowsFig6Scenario)
{
    // Reproduce the paper's Fig. 6 timeline: three misses climbing to
    // max level, then two timed shrinks back to level 1.
    LevelTable t = LevelTable::paperDefault();
    MlpControllerConfig cfg;
    cfg.memoryLatency = 300;
    cfg.transitionPenalty = 0;
    MlpAwareController c(t, cfg, nullptr);
    WindowOccupancy small = occ(4, 2, 2);

    c.onL2DemandMiss(0);   // t0 -> level 2.
    c.onL2DemandMiss(50);  // t1 -> level 3.
    c.onL2DemandMiss(120); // t2 -> stays 3, re-arms timer to 420.
    EXPECT_EQ(c.level(), 3u);
    for (Cycle cyc = 121; cyc < 420; ++cyc)
        c.tick(cyc, small);
    EXPECT_EQ(c.level(), 3u);
    c.tick(420, small); // t4: first shrink.
    EXPECT_EQ(c.level(), 2u);
    for (Cycle cyc = 421; cyc < 720; ++cyc)
        c.tick(cyc, small);
    EXPECT_EQ(c.level(), 2u);
    c.tick(720, small); // t6: second shrink.
    EXPECT_EQ(c.level(), 1u);
}

TEST(OccupancyControllerTest, GrowsOnSustainedFullStalls)
{
    LevelTable t = LevelTable::paperDefault();
    OccupancyControllerConfig cfg;
    cfg.samplePeriod = 64;
    cfg.growStallThreshold = 16;
    cfg.transitionPenalty = 0;
    OccupancyController c(t, cfg, nullptr);
    WindowOccupancy full = occ(128, 64, 64);
    full.allocStalledFull = true;
    for (Cycle cyc = 0; cyc < 64; ++cyc)
        c.tick(cyc, full);
    EXPECT_EQ(c.level(), 2u);
}

TEST(OccupancyControllerTest, ShrinksWhenUnderused)
{
    LevelTable t = LevelTable::paperDefault();
    OccupancyControllerConfig cfg;
    cfg.samplePeriod = 64;
    cfg.growStallThreshold = 16;
    cfg.transitionPenalty = 0;
    OccupancyController c(t, cfg, nullptr);
    // Force to level 2 first.
    WindowOccupancy full = occ(128, 64, 64);
    full.allocStalledFull = true;
    for (Cycle cyc = 0; cyc < 64; ++cyc)
        c.tick(cyc, full);
    ASSERT_EQ(c.level(), 2u);
    // Now run nearly idle: shrinks back.
    WindowOccupancy idle = occ(4, 2, 2);
    for (Cycle cyc = 64; cyc < 200 && c.level() > 1; ++cyc)
        c.tick(cyc, idle);
    EXPECT_EQ(c.level(), 1u);
}

// ---------------------------------------------------------------------
// Property sweeps: invariants under randomized miss/occupancy traces.
// ---------------------------------------------------------------------

struct TraceParams
{
    std::uint64_t seed;
    unsigned memoryLatency;
    unsigned transitionPenalty;
    double missProb; // Per-cycle L2 miss probability.
};

/** Printed into the ctest name, not as bytes. */
void
PrintTo(const TraceParams &p, std::ostream *os)
{
    *os << "seed " << p.seed << " lat " << p.memoryLatency << " pen "
        << p.transitionPenalty << " miss " << p.missProb;
}

class MlpControllerProperty
    : public ::testing::TestWithParam<TraceParams>
{
};

TEST_P(MlpControllerProperty, InvariantsHoldOnRandomTrace)
{
    const TraceParams p = GetParam();
    LevelTable t = LevelTable::paperDefault();
    MlpControllerConfig cfg;
    cfg.memoryLatency = p.memoryLatency;
    cfg.transitionPenalty = p.transitionPenalty;
    MlpAwareController c(t, cfg, nullptr);
    Rng rng(p.seed);

    Cycle last_miss = kNoCycle;
    unsigned prev_level = c.level();
    std::uint64_t ticks = 0;

    for (Cycle cyc = 0; cyc < 20000; ++cyc) {
        if (rng.chance(p.missProb)) {
            unsigned before = c.level();
            c.onL2DemandMiss(cyc);
            // Enlarge exactly one level, saturating at max.
            EXPECT_EQ(c.level(),
                      std::min(before + 1, t.maxLevel()));
            last_miss = cyc;
        }
        WindowOccupancy o =
            occ(static_cast<unsigned>(rng.below(512)),
                static_cast<unsigned>(rng.below(256)),
                static_cast<unsigned>(rng.below(256)));
        c.tick(cyc, o);
        ++ticks;

        // Level always in range.
        EXPECT_GE(c.level(), 1u);
        EXPECT_LE(c.level(), t.maxLevel());

        // A shrink never happens within memoryLatency of a miss.
        if (c.level() < prev_level && last_miss != kNoCycle)
            EXPECT_GE(cyc, last_miss + p.memoryLatency);
        // Shrinks move one level at a time.
        if (c.level() < prev_level)
            EXPECT_EQ(c.level(), prev_level - 1);
        prev_level = c.level();
    }

    // Residency accounts for every tick exactly once.
    std::uint64_t total = 0;
    for (std::uint64_t n : c.residency().cyclesAtLevel)
        total += n;
    EXPECT_EQ(total, ticks);
}

INSTANTIATE_TEST_SUITE_P(
    Traces, MlpControllerProperty,
    ::testing::Values(
        TraceParams{1, 300, 10, 0.001},
        TraceParams{2, 300, 10, 0.02},
        TraceParams{3, 300, 0, 0.1},
        TraceParams{4, 100, 10, 0.005},
        TraceParams{5, 100, 30, 0.05},
        TraceParams{6, 500, 10, 0.01},
        TraceParams{7, 300, 10, 0.5},
        TraceParams{8, 50, 0, 0.0005}),
    [](const ::testing::TestParamInfo<TraceParams> &info) {
        return "seed" + std::to_string(info.param.seed) + "_lat" +
               std::to_string(info.param.memoryLatency) + "_pen" +
               std::to_string(info.param.transitionPenalty);
    });

class OccupancyControllerProperty
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(OccupancyControllerProperty, LevelStaysInRangeOnRandomTrace)
{
    LevelTable t = LevelTable::paperDefault();
    OccupancyControllerConfig cfg;
    cfg.transitionPenalty = 0;
    OccupancyController c(t, cfg, nullptr);
    Rng rng(GetParam());
    std::uint64_t ticks = 0;
    for (Cycle cyc = 0; cyc < 30000; ++cyc) {
        WindowOccupancy o =
            occ(static_cast<unsigned>(rng.below(512)),
                static_cast<unsigned>(rng.below(256)),
                static_cast<unsigned>(rng.below(256)));
        o.allocStalledFull = rng.chance(0.3);
        c.tick(cyc, o);
        ++ticks;
        EXPECT_GE(c.level(), 1u);
        EXPECT_LE(c.level(), t.maxLevel());
    }
    std::uint64_t total = 0;
    for (std::uint64_t n : c.residency().cyclesAtLevel)
        total += n;
    EXPECT_EQ(total, ticks);
}

INSTANTIATE_TEST_SUITE_P(Seeds, OccupancyControllerProperty,
                         ::testing::Values(11u, 22u, 33u, 44u));

TEST(MlpControllerTest, ResetMeasurementZeroesResidency)
{
    LevelTable t = LevelTable::paperDefault();
    MlpAwareController c(t, fastCfg(), nullptr);
    for (Cycle cyc = 0; cyc < 50; ++cyc)
        c.tick(cyc, occ(1, 1, 1));
    c.onL2DemandMiss(50);
    c.resetMeasurement();
    EXPECT_EQ(c.upTransitions(), 0u);
    for (std::uint64_t n : c.residency().cyclesAtLevel)
        EXPECT_EQ(n, 0u);
    EXPECT_EQ(c.level(), 2u); // The *state* is preserved.
}

} // namespace
} // namespace mlpwin
