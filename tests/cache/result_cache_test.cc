/**
 * @file
 * Result-cache tests: key folding, verified put/get round-trips,
 * quarantine of every injected corruption kind, graceful degradation
 * on an unusable directory, the offline maintenance operations
 * (fsck/ls/gc/clear), and the batch-runner integration — a repeated
 * spec adopts every cell from cache bit-identically, a poisoned
 * entry quarantines and re-simulates, and the determinism knobs
 * (budgets, checker, test hooks) miss the cache when they change.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "cache/result_cache.hh"
#include "exp/checkpoint.hh"
#include "exp/experiment.hh"
#include "exp/result_writer.hh"

namespace mlpwin
{
namespace cache
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory under the gtest temp dir. */
std::string
scratchDir(const std::string &name)
{
    std::string path = testing::TempDir() + name;
    fs::remove_all(path);
    return path;
}

/** Cheap synthetic executor: derives a result from the job cell. */
SimResult
syntheticResult(const exp::ExperimentJob &job)
{
    SimResult r;
    r.workload = job.workload;
    r.model = job.model.displayLabel();
    r.halted = true;
    r.committed = 1000 + job.index;
    r.cycles = 3000 + 7 * job.index;
    // Non-terminating decimal: exercises the %.17g round-trip.
    r.ipc = static_cast<double>(r.committed) /
            static_cast<double>(r.cycles);
    return r;
}

/** Spec over synthetic cells, run through the executor seam. */
exp::ExperimentSpec
syntheticSpec(std::size_t workloads)
{
    exp::ExperimentSpec spec;
    for (std::size_t i = 0; i < workloads; ++i)
        spec.workloads.push_back("wl" + std::to_string(i));
    spec.models = {{ModelKind::Base, 1, ""}};
    spec.executor = syntheticResult;
    return spec;
}

/** All ok-state result lines of a batch, submission order. */
std::string
jsonlOf(const exp::BatchOutcome &batch)
{
    std::ostringstream os;
    for (const exp::JobOutcome &o : batch.outcomes)
        if (o.state == exp::JobState::Ok)
            os << exp::resultToJson(o.result) << '\n';
    return os.str();
}

std::string
slurp(const fs::path &p)
{
    std::ifstream is(p, std::ios::binary);
    std::stringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

TEST(FoldKeyTest, StableAndOrderSensitive)
{
    EXPECT_EQ(foldKey({1, 2, 3}), foldKey({1, 2, 3}));
    EXPECT_NE(foldKey({1, 2, 3}), foldKey({3, 2, 1}));
    EXPECT_NE(foldKey({1, 2}), foldKey({1, 2, 0}));
    // fnv1a over equal bytes agrees with itself, differs on content.
    EXPECT_EQ(fnv1a("abc", 3), fnv1a("abc", 3));
    EXPECT_NE(fnv1a("abc", 3), fnv1a("abd", 3));
}

TEST(ResultCacheTest, PutGetRoundTripsExactBytes)
{
    ResultCache rc(scratchDir("mlpwin_cache_rt"));
    ASSERT_TRUE(rc.enabled());

    const std::string payload =
        "{\"workload\":\"wl0\",\"ipc\":0.33299999999999999}";
    ASSERT_TRUE(rc.put(0xabcdef0123456789ULL, payload, "wl0", "base",
                       1, 2));
    EXPECT_TRUE(fs::exists(rc.entryPath(0xabcdef0123456789ULL)));

    std::string got;
    ASSERT_TRUE(rc.get(0xabcdef0123456789ULL, got));
    EXPECT_EQ(got, payload);

    // An absent key is a plain miss.
    std::string none;
    EXPECT_FALSE(rc.get(0x1111, none));

    CacheStats s = rc.stats();
    EXPECT_EQ(s.stores, 1u);
    EXPECT_EQ(s.hits, 1u);
    EXPECT_EQ(s.misses, 1u);
    EXPECT_EQ(s.quarantined, 0u);
}

/**
 * Every injected corruption kind turns the next lookup into a
 * quarantine-plus-miss with a .reason diagnostic, and a re-put heals
 * the slot.
 */
TEST(ResultCacheTest, EveryCorruptionKindQuarantinesThenHeals)
{
    struct Kind
    {
        const char *name;
        bool (*corrupt)(const std::string &);
    };
    const Kind kinds[] = {
        {"bitflip", &ResultCache::corruptBitflip},
        {"trunc", &ResultCache::corruptTruncate},
        {"staleschema", &ResultCache::corruptStaleSchema},
    };
    const std::string payload = "{\"workload\":\"wl0\",\"ipc\":0.5}";

    for (const Kind &k : kinds) {
        SCOPED_TRACE(k.name);
        std::string dir =
            scratchDir(std::string("mlpwin_cache_") + k.name);
        ResultCache rc(dir);
        ASSERT_TRUE(rc.enabled());
        ASSERT_TRUE(rc.put(0x42, payload, "wl0", "base", 1, 2));
        ASSERT_TRUE(k.corrupt(rc.entryPath(0x42)));

        std::string got;
        EXPECT_FALSE(rc.get(0x42, got));
        EXPECT_FALSE(fs::exists(rc.entryPath(0x42)));

        fs::path q = fs::path(dir) / "quarantine";
        EXPECT_TRUE(
            fs::exists(q / "0000000000000042.entry"));
        std::string reason =
            slurp(q / "0000000000000042.reason");
        EXPECT_FALSE(reason.empty());
        EXPECT_EQ(rc.stats().quarantined, 1u);

        // The slot self-heals on the next store.
        ASSERT_TRUE(rc.put(0x42, payload, "wl0", "base", 1, 2));
        ASSERT_TRUE(rc.get(0x42, got));
        EXPECT_EQ(got, payload);
    }
}

TEST(ResultCacheTest, UnusableDirectoryDegradesToCacheOff)
{
    // A regular file where the cache directory should be: the
    // constructor cannot create the layout, so everything no-ops.
    std::string path = scratchDir("mlpwin_cache_blocked");
    {
        std::ofstream os(path);
        os << "not a directory\n";
    }
    ResultCache rc(path);
    EXPECT_FALSE(rc.enabled());
    EXPECT_FALSE(rc.put(1, "{}", "w", "m", 0, 0));
    std::string got;
    EXPECT_FALSE(rc.get(1, got));
    EXPECT_EQ(rc.clear(), 0u);
    fs::remove(path);
}

TEST(ResultCacheTest, FsckQuarantinesOnlyTheCorruptEntries)
{
    ResultCache rc(scratchDir("mlpwin_cache_fsck"));
    ASSERT_TRUE(rc.enabled());
    ASSERT_TRUE(rc.put(1, "{\"a\":1}", "wl0", "base", 0, 0));
    ASSERT_TRUE(rc.put(2, "{\"a\":2}", "wl1", "base", 0, 0));
    ASSERT_TRUE(ResultCache::corruptBitflip(rc.entryPath(2)));

    ResultCache::FsckReport rep = rc.fsck();
    EXPECT_EQ(rep.scanned, 2u);
    EXPECT_EQ(rep.ok, 1u);
    EXPECT_EQ(rep.quarantined, 1u);
    EXPECT_TRUE(fs::exists(rc.entryPath(1)));
    EXPECT_FALSE(fs::exists(rc.entryPath(2)));
}

TEST(ResultCacheTest, ListReportsTriageFieldsAndGcEvictsOldest)
{
    std::string dir = scratchDir("mlpwin_cache_gc");
    ResultCache rc(dir);
    ASSERT_TRUE(rc.enabled());
    const std::string payload(200, 'x');
    ASSERT_TRUE(rc.put(1, payload, "mcf", "base", 0, 0));
    ASSERT_TRUE(rc.put(2, payload, "gcc", "resizing", 0, 0));

    // Age entry 1 well below mtime granularity concerns.
    fs::last_write_time(rc.entryPath(1),
                        fs::last_write_time(rc.entryPath(1)) -
                            std::chrono::hours(1));

    std::vector<ResultCache::EntryInfo> entries = rc.list();
    ASSERT_EQ(entries.size(), 2u);
    EXPECT_EQ(entries[0].key, 1u); // Oldest first.
    EXPECT_EQ(entries[0].workload, "mcf");
    EXPECT_EQ(entries[0].model, "base");
    EXPECT_EQ(entries[1].workload, "gcc");
    EXPECT_GT(entries[0].bytes, payload.size());

    // A budget that fits exactly one entry evicts the oldest.
    ResultCache::GcReport rep = rc.gc(entries[1].bytes);
    EXPECT_EQ(rep.scanned, 2u);
    EXPECT_EQ(rep.removed, 1u);
    EXPECT_LE(rep.bytesAfter, entries[1].bytes);
    EXPECT_FALSE(fs::exists(rc.entryPath(1)));
    EXPECT_TRUE(fs::exists(rc.entryPath(2)));
}

/**
 * `gc --dry-run` support: the report and victim list are exactly
 * those of a real gc with the same budget, but the store's bytes are
 * untouched.
 */
TEST(ResultCacheTest, GcDryRunReportsEvictionsWithoutDeleting)
{
    std::string dir = scratchDir("mlpwin_cache_gc_dry");
    ResultCache rc(dir);
    ASSERT_TRUE(rc.enabled());
    const std::string payload(200, 'x');
    ASSERT_TRUE(rc.put(1, payload, "mcf", "base", 0, 0));
    ASSERT_TRUE(rc.put(2, payload, "gcc", "resizing", 0, 0));
    fs::last_write_time(rc.entryPath(1),
                        fs::last_write_time(rc.entryPath(1)) -
                            std::chrono::hours(1));

    std::vector<ResultCache::EntryInfo> entries = rc.list();
    ASSERT_EQ(entries.size(), 2u);
    const std::uint64_t budget = entries[1].bytes;
    const std::string bytes1 = slurp(rc.entryPath(1));
    const std::string bytes2 = slurp(rc.entryPath(2));

    std::vector<ResultCache::EntryInfo> victims;
    ResultCache::GcReport dry = rc.gc(budget, true, &victims);
    EXPECT_EQ(dry.scanned, 2u);
    EXPECT_EQ(dry.removed, 1u);
    ASSERT_EQ(victims.size(), 1u);
    EXPECT_EQ(victims[0].key, 1u); // Oldest-first eviction order.
    EXPECT_EQ(victims[0].workload, "mcf");

    // Nothing moved: both entries still present, byte for byte.
    EXPECT_EQ(slurp(rc.entryPath(1)), bytes1);
    EXPECT_EQ(slurp(rc.entryPath(2)), bytes2);
    std::string got;
    EXPECT_TRUE(rc.get(1, got));
    EXPECT_EQ(got, payload);

    // The real gc then does exactly what the rehearsal promised.
    std::vector<ResultCache::EntryInfo> removed;
    ResultCache::GcReport wet = rc.gc(budget, false, &removed);
    EXPECT_EQ(wet.removed, dry.removed);
    EXPECT_EQ(wet.bytesAfter, dry.bytesAfter);
    ASSERT_EQ(removed.size(), 1u);
    EXPECT_EQ(removed[0].key, victims[0].key);
    EXPECT_FALSE(fs::exists(rc.entryPath(1)));
    EXPECT_TRUE(fs::exists(rc.entryPath(2)));
}

TEST(ResultCacheTest, ClearEmptiesObjectsAndQuarantine)
{
    std::string dir = scratchDir("mlpwin_cache_clear");
    ResultCache rc(dir);
    ASSERT_TRUE(rc.enabled());
    ASSERT_TRUE(rc.put(1, "{\"a\":1}", "wl0", "base", 0, 0));
    ASSERT_TRUE(rc.put(2, "{\"a\":2}", "wl1", "base", 0, 0));
    ASSERT_TRUE(ResultCache::corruptTruncate(rc.entryPath(2)));
    std::string got;
    EXPECT_FALSE(rc.get(2, got)); // Quarantines entry 2.

    EXPECT_GE(rc.clear(), 3u); // entry 1 + quarantined entry + reason
    EXPECT_FALSE(rc.get(1, got));
    EXPECT_TRUE(
        fs::is_empty(fs::path(dir) / "quarantine"));
}

/**
 * The tentpole guarantee on the runner: re-running an identical spec
 * adopts every cell from cache without calling the executor, and the
 * adopted results are bit-identical to the cold run's.
 */
TEST(CacheRunnerTest, SecondRunAdoptsEveryCellBitIdentically)
{
    exp::ExperimentSpec spec = syntheticSpec(3);
    spec.cacheDir = scratchDir("mlpwin_cache_run");
    static std::atomic<unsigned> calls;
    calls = 0;
    spec.executor = [](const exp::ExperimentJob &job) {
        ++calls;
        return syntheticResult(job);
    };

    exp::BatchOutcome cold = exp::ExperimentRunner(2, false).runAll(spec);
    ASSERT_TRUE(cold.allOk());
    EXPECT_EQ(calls.load(), 3u);
    EXPECT_EQ(cold.cacheStores, 3u);
    EXPECT_EQ(cold.cacheHits, 0u);
    for (const exp::JobOutcome &o : cold.outcomes)
        EXPECT_FALSE(o.cacheHit);

    exp::BatchOutcome warm = exp::ExperimentRunner(2, false).runAll(spec);
    ASSERT_TRUE(warm.allOk());
    EXPECT_EQ(calls.load(), 3u); // Executor never ran again.
    EXPECT_EQ(warm.cacheHits, 3u);
    EXPECT_EQ(warm.cacheStores, 0u);
    for (const exp::JobOutcome &o : warm.outcomes)
        EXPECT_TRUE(o.cacheHit);
    EXPECT_EQ(jsonlOf(warm), jsonlOf(cold));
}

/**
 * Hit provenance is recorded in the checkpoint record ("cache":"hit")
 * but never leaks into the result payload, which must stay
 * bit-identical to a cold run's.
 */
TEST(CacheRunnerTest, HitProvenanceInCheckpointNotInResult)
{
    exp::ExperimentSpec spec = syntheticSpec(2);
    spec.cacheDir = scratchDir("mlpwin_cache_prov");
    spec.checkpointPath =
        testing::TempDir() + "mlpwin_cache_prov_cold.ckpt";
    fs::remove(spec.checkpointPath);

    exp::BatchOutcome cold = exp::ExperimentRunner(1, false).runAll(spec);
    ASSERT_TRUE(cold.allOk());
    std::string cold_ckpt = slurp(spec.checkpointPath);
    EXPECT_EQ(cold_ckpt.find("\"cache\":\"hit\""),
              std::string::npos);

    spec.checkpointPath =
        testing::TempDir() + "mlpwin_cache_prov_warm.ckpt";
    fs::remove(spec.checkpointPath);
    exp::BatchOutcome warm = exp::ExperimentRunner(1, false).runAll(spec);
    ASSERT_TRUE(warm.allOk());
    EXPECT_EQ(warm.cacheHits, 2u);
    std::string warm_ckpt = slurp(spec.checkpointPath);
    EXPECT_NE(warm_ckpt.find("\"cache\":\"hit\""),
              std::string::npos);
    EXPECT_EQ(jsonlOf(warm), jsonlOf(cold));

    // The warm checkpoint still resumes: records parse despite the
    // extra provenance field, "result" staying last.
    std::size_t torn = 99;
    EXPECT_EQ(exp::loadCheckpoint(spec.checkpointPath, &torn).size(),
              2u);
    EXPECT_EQ(torn, 0u);
}

/**
 * The acceptance criterion for fault injection: a poisoned entry is
 * quarantined on lookup and the cell re-simulates to a result
 * bit-identical to the cold run's.
 */
TEST(CacheRunnerTest, PoisonedEntryQuarantinesAndReRunsIdentical)
{
    exp::ExperimentSpec spec = syntheticSpec(2);
    spec.cacheDir = scratchDir("mlpwin_cache_poison");

    // Poison job 0's entry at store time, exactly as
    // `mlpwin_batch --inject bitflip@0` does.
    spec.onCacheStored = [](const std::string &entry_path,
                            std::size_t job, unsigned) {
        if (job == 0) {
            ASSERT_TRUE(
                cache::ResultCache::corruptBitflip(entry_path));
        }
    };
    exp::BatchOutcome cold = exp::ExperimentRunner(1, false).runAll(spec);
    ASSERT_TRUE(cold.allOk());
    EXPECT_EQ(cold.cacheStores, 2u);

    spec.onCacheStored = nullptr;
    exp::BatchOutcome warm = exp::ExperimentRunner(1, false).runAll(spec);
    ASSERT_TRUE(warm.allOk());
    EXPECT_EQ(warm.cacheQuarantined, 1u);
    EXPECT_EQ(warm.cacheHits, 1u); // Job 1's entry was intact.
    EXPECT_FALSE(warm.outcomes[0].cacheHit); // Re-simulated.
    EXPECT_TRUE(warm.outcomes[1].cacheHit);
    EXPECT_EQ(jsonlOf(warm), jsonlOf(cold));
    EXPECT_FALSE(fs::is_empty(fs::path(spec.cacheDir) /
                              "quarantine"));
}

/**
 * Determinism knobs such as the cycle ceiling change result bytes
 * (early stops, commitStreamHash under the checker); they reach the
 * key through configFingerprint like every other identity field of
 * the registry. Flipping one must miss, not replay a result computed
 * under different rules.
 */
TEST(CacheRunnerTest, NonFingerprintKnobsStillAddressTheCache)
{
    exp::ExperimentSpec spec = syntheticSpec(1);
    spec.cacheDir = scratchDir("mlpwin_cache_knobs");

    exp::BatchOutcome first = exp::ExperimentRunner(1, false).runAll(spec);
    ASSERT_TRUE(first.allOk());
    EXPECT_EQ(first.cacheStores, 1u);

    exp::ExperimentSpec changed = spec;
    changed.base.maxCycles = 123456;
    exp::BatchOutcome miss = exp::ExperimentRunner(1, false).runAll(changed);
    ASSERT_TRUE(miss.allOk());
    EXPECT_EQ(miss.cacheHits, 0u);
    EXPECT_EQ(miss.cacheStores, 1u);

    // And the unchanged spec still hits.
    exp::BatchOutcome hit = exp::ExperimentRunner(1, false).runAll(spec);
    ASSERT_TRUE(hit.allOk());
    EXPECT_EQ(hit.cacheHits, 1u);
}

/**
 * The MMU geometry is part of the cell's identity: a paging run must
 * never replay a result cached under different TLB/page-table knobs,
 * and re-running the identical geometry must hit.
 */
TEST(CacheRunnerTest, MmuGeometryAddressesTheCache)
{
    exp::ExperimentSpec spec = syntheticSpec(1);
    spec.cacheDir = scratchDir("mlpwin_cache_vm");
    spec.base.vm.enabled = true;

    exp::BatchOutcome cold = exp::ExperimentRunner(1, false).runAll(spec);
    ASSERT_TRUE(cold.allOk());
    EXPECT_EQ(cold.cacheStores, 1u);

    // Every geometry/policy knob re-keys the cell.
    exp::ExperimentSpec variants[4] = {spec, spec, spec, spec};
    variants[0].base.vm.dtlb.entries = 128;
    variants[1].base.vm.stlb.hitLatency = 9;
    variants[2].base.vm.hugePages = true;
    variants[3].base.vm.resizeOnWalk = true;
    for (exp::ExperimentSpec &v : variants) {
        exp::BatchOutcome miss = exp::ExperimentRunner(1, false).runAll(v);
        ASSERT_TRUE(miss.allOk());
        EXPECT_EQ(miss.cacheHits, 0u);
        EXPECT_EQ(miss.cacheStores, 1u);
    }

    // The identical geometry still hits.
    exp::BatchOutcome warm = exp::ExperimentRunner(1, false).runAll(spec);
    ASSERT_TRUE(warm.allOk());
    EXPECT_EQ(warm.cacheHits, 1u);
    EXPECT_EQ(warm.cacheStores, 0u);
}

} // namespace
} // namespace cache
} // namespace mlpwin
