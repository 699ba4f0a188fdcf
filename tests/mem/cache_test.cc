/**
 * @file
 * Unit and property tests for the cache timing model.
 */

#include <gtest/gtest.h>

#include "common/random.hh"
#include "mem/cache.hh"

namespace mlpwin
{
namespace
{

CacheConfig
smallCache()
{
    // 4 sets x 2 ways x 64B lines = 512B.
    return CacheConfig{512, 2, 64, 2, 4};
}

TEST(CacheTest, MissThenHit)
{
    Cache c("c", smallCache(), nullptr);
    EXPECT_FALSE(c.lookup(0x1000, 0, false).hit);
    c.insert(0x1000, 10, Provenance::CorrPath);
    CacheLookup l = c.lookup(0x1000, 20, false);
    EXPECT_TRUE(l.hit);
    EXPECT_EQ(l.readyAt, 20u); // Already filled.
}

TEST(CacheTest, InFlightLineReportsFillTime)
{
    Cache c("c", smallCache(), nullptr);
    c.insert(0x1000, 100, Provenance::CorrPath);
    CacheLookup l = c.lookup(0x1000, 5, false);
    EXPECT_TRUE(l.hit);
    EXPECT_EQ(l.readyAt, 100u); // MSHR-style merge.
}

TEST(CacheTest, LineGranularity)
{
    Cache c("c", smallCache(), nullptr);
    c.insert(0x1000, 0, Provenance::CorrPath);
    EXPECT_TRUE(c.lookup(0x103f, 1, false).hit); // Same 64B line.
    EXPECT_FALSE(c.lookup(0x1040, 1, false).hit); // Next line.
}

TEST(CacheTest, LruEvictsOldest)
{
    Cache c("c", smallCache(), nullptr);
    // Set index = (addr/64) & 3. Use addresses in set 0.
    Addr a0 = 0 * 256, a1 = 1 * 256, a2 = 2 * 256;
    c.insert(a0, 0, Provenance::CorrPath);
    c.insert(a1, 0, Provenance::CorrPath);
    c.lookup(a0, 1, false); // Refresh a0; a1 is now LRU.
    Cache::Eviction ev = c.insert(a2, 2, Provenance::CorrPath);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.addr, a1);
    EXPECT_TRUE(c.contains(a0));
    EXPECT_FALSE(c.contains(a1));
    EXPECT_TRUE(c.contains(a2));
}

TEST(CacheTest, DirtyEvictionReported)
{
    Cache c("c", smallCache(), nullptr);
    Addr a0 = 0, a1 = 256, a2 = 512;
    c.insert(a0, 0, Provenance::CorrPath);
    c.setDirty(a0);
    c.insert(a1, 0, Provenance::CorrPath);
    c.lookup(a1, 1, false);
    c.lookup(a1, 2, false);
    // a0 older in LRU: refresh a1 so a0 evicts.
    Cache::Eviction ev = c.insert(a2, 3, Provenance::CorrPath);
    EXPECT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.addr, a0);
}

TEST(CacheTest, MshrLimitsOutstandingFills)
{
    CacheConfig cfg = smallCache();
    cfg.mshrs = 2;
    Cache c("c", cfg, nullptr);
    EXPECT_TRUE(c.canAllocateFill(0));
    c.insert(0x0000, 100, Provenance::CorrPath);
    EXPECT_TRUE(c.canAllocateFill(0));
    c.insert(0x1000, 100, Provenance::CorrPath);
    EXPECT_FALSE(c.canAllocateFill(0)); // 2 fills in flight.
    EXPECT_FALSE(c.canAllocateFill(99));
    EXPECT_TRUE(c.canAllocateFill(100)); // Fills completed.
}

TEST(CacheTest, PollutionAccountsProvenanceAndUsefulness)
{
    Cache c("c", smallCache(), nullptr);
    c.insert(0x0000, 0, Provenance::CorrPath);
    c.insert(0x2000, 0, Provenance::WrongPath);
    c.insert(0x4000, 0, Provenance::Prefetch);
    // Touch the prefetch line with a correct-path demand load.
    c.lookup(0x4000, 1, true);

    PollutionStats ps = c.pollution();
    auto corr = static_cast<unsigned>(Provenance::CorrPath);
    auto wrong = static_cast<unsigned>(Provenance::WrongPath);
    auto pref = static_cast<unsigned>(Provenance::Prefetch);
    EXPECT_EQ(ps.brought[corr], 1u);
    EXPECT_EQ(ps.brought[wrong], 1u);
    EXPECT_EQ(ps.brought[pref], 1u);
    EXPECT_EQ(ps.useful[pref], 1u);
    EXPECT_EQ(ps.useful[wrong], 0u);
    EXPECT_EQ(ps.useful[corr], 0u); // Inserted but never demand-read.
}

TEST(CacheTest, PollutionSurvivesEviction)
{
    Cache c("c", smallCache(), nullptr);
    // Fill set 0 beyond capacity with wrong-path lines.
    c.insert(0, 0, Provenance::WrongPath);
    c.insert(256, 0, Provenance::WrongPath);
    c.insert(512, 0, Provenance::WrongPath);
    PollutionStats ps = c.pollution();
    auto wrong = static_cast<unsigned>(Provenance::WrongPath);
    EXPECT_EQ(ps.brought[wrong], 3u); // 2 resident + 1 evicted.
}

TEST(CacheTest, StatsCountAccessesAndMisses)
{
    StatSet stats;
    Cache c("c", smallCache(), &stats);
    c.lookup(0, 0, false);
    c.insert(0, 0, Provenance::CorrPath);
    c.lookup(0, 1, false);
    EXPECT_EQ(c.accesses(), 2u);
    EXPECT_EQ(c.misses(), 1u);
}

/** Property: brought == useful + useless across random traffic. */
TEST(CacheTest, PollutionInvariantUnderRandomTraffic)
{
    Cache c("c", CacheConfig{4096, 4, 64, 2, 8}, nullptr);
    Rng rng(5);
    std::uint64_t inserts = 0;
    for (int i = 0; i < 20000; ++i) {
        Addr addr = (rng.below(1 << 16)) * 64;
        bool demand = rng.chance(0.7);
        auto prov = static_cast<Provenance>(rng.below(3));
        if (!c.lookup(addr, i, demand && prov ==
                      Provenance::CorrPath).hit) {
            if (c.canAllocateFill(i)) {
                c.insert(addr, i + 10, prov);
                ++inserts;
            }
        }
    }
    PollutionStats ps = c.pollution();
    std::uint64_t brought = 0;
    for (unsigned p = 0; p < kNumProvenances; ++p) {
        EXPECT_LE(ps.useful[p], ps.brought[p]);
        brought += ps.brought[p];
    }
    EXPECT_EQ(brought, inserts);
}

// Parameterized geometry sweep: basic behaviour holds for all shapes.
struct Geometry
{
    std::uint64_t size;
    unsigned assoc;
    unsigned line;
};

/** Printed into the ctest name (e.g. 1024B/2way/32B), not as bytes. */
void
PrintTo(const Geometry &g, std::ostream *os)
{
    *os << g.size << "B/" << g.assoc << "way/" << g.line << 'B';
}

class CacheGeometryTest : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheGeometryTest, FillThenSweepHitsAll)
{
    const Geometry g = GetParam();
    Cache c("c", CacheConfig{g.size, g.assoc, g.line, 1, 64}, nullptr);
    std::uint64_t lines = g.size / g.line;
    for (std::uint64_t i = 0; i < lines; ++i)
        c.insert(i * g.line, 0, Provenance::CorrPath);
    for (std::uint64_t i = 0; i < lines; ++i)
        EXPECT_TRUE(c.lookup(i * g.line, 1, false).hit) << i;
    // One more distinct line must evict something.
    c.insert(lines * g.line, 2, Provenance::CorrPath);
    std::uint64_t still = 0;
    for (std::uint64_t i = 0; i <= lines; ++i) {
        if (c.contains(i * g.line))
            ++still;
    }
    EXPECT_EQ(still, lines); // Capacity unchanged.
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, CacheGeometryTest,
    ::testing::Values(Geometry{1024, 1, 32}, Geometry{1024, 2, 32},
                      Geometry{4096, 4, 64}, Geometry{8192, 8, 64},
                      Geometry{65536, 2, 32}));

} // namespace
} // namespace mlpwin
