/**
 * @file
 * The SimConfig field registry: the one list of every configuration
 * field, each with its wire name, bounds, and role. It generates
 * configFingerprint (every Identity field, sim/simulator.cc), the
 * `cfg` object of the --isolate job frame (serve/protocol.cc), and
 * the bounds of the flags the tools share (sim/config_flags.cc).
 * A field added to a config struct must be registered here; the
 * sizeof guards at the end of this file fail the build until it is.
 * SimConfig::startCheckpoint is deliberately absent: a worker gets
 * the checkpoint by path, and its program hash is already part of the
 * program identity the cache key folds.
 */

#ifndef MLPWIN_SIM_CONFIG_FIELDS_HH
#define MLPWIN_SIM_CONFIG_FIELDS_HH

#include <bit>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "common/json.hh"
#include "common/parse.hh"
#include "sim/sim_config.hh"

namespace mlpwin
{

/** Whether a field can change the bytes of a run's result. */
enum class FieldRole
{
    Identity, ///< Folded into configFingerprint.
    HostOnly, ///< Host behaviour only (the watchdog).
};

/** "prefix" + "leaf" on the stack: a visit allocates no names. */
struct FieldName
{
    char text[32]; // Registry names are literals of at most 20 chars.

    FieldName(const char *prefix, const char *leaf)
    {
        const std::size_t n = std::strlen(prefix);
        std::memcpy(text, prefix, n);
        std::strcpy(text + n, leaf);
    }
    operator const char *() const { return text; }
};

/**
 * Visit every field of `c` (a SimConfig, const or not) once, in a
 * fixed order, as `v(name, ref, lo, hi, role)`: `name` is the field's
 * dotted path and wire name, `ref` a reference to it, and [lo, hi]
 * its inclusive bounds in the field's own type (bool, unsigned,
 * std::uint64_t, double, or a scoped enum bounded by its first and
 * last enumerators).
 */
template <class Cfg, class V>
    requires std::is_same_v<std::remove_const_t<Cfg>, SimConfig>
void
visitFields(Cfg &c, V &v)
{
    constexpr unsigned kU = std::numeric_limits<unsigned>::max();
    constexpr std::uint64_t kU64 = ~std::uint64_t(0);
    constexpr unsigned kTlb = 1u << 20;
    auto f = [&v](const char *name, auto &ref, auto lo, auto hi,
                  FieldRole role = FieldRole::Identity) {
        using T = std::remove_cvref_t<decltype(ref)>;
        v(name, ref, static_cast<T>(lo), static_cast<T>(hi), role);
    };
    auto b = [&f](const char *name, auto &ref,
                  FieldRole role = FieldRole::Identity) {
        f(name, ref, false, true, role);
    };

    auto &smt = c.core.smt;
    f("core.smt.nThreads", smt.nThreads, 1, kMaxSmtThreads);
    f("core.smt.fetchPolicy", smt.fetchPolicy, FetchPolicy::RoundRobin,
      FetchPolicy::Predictive);
    f("core.smt.partitionPolicy", smt.partitionPolicy,
      PartitionPolicy::Static, PartitionPolicy::MlpAware);
    f("core.smt.predictorHistoryLength", smt.predictorHistoryLength, 1, kU);
    f("core.smt.predictorIntervalCycles", smt.predictorIntervalCycles, 1, kU);
    f("core.smt.mlpFetchThreshold", smt.mlpFetchThreshold, 0, 1e9);
    f("core.smt.fetchThrottlePenalty", smt.fetchThrottlePenalty, 0, kU);
    auto &core = c.core;
    f("core.fetchWidth", core.fetchWidth, 1, kU);
    f("core.decodeWidth", core.decodeWidth, 1, kU);
    f("core.issueWidth", core.issueWidth, 1, kU);
    f("core.commitWidth", core.commitWidth, 1, kU);
    f("core.mispredictPenalty", core.mispredictPenalty, 0, kU);
    f("core.fetchQueueSize", core.fetchQueueSize, 1, kU);
    f("core.storeBufferSize", core.storeBufferSize, 1, kU);
    f("core.numIntAlu", core.numIntAlu, 1, kU);
    f("core.numIntMulDiv", core.numIntMulDiv, 1, kU);
    f("core.numMemPorts", core.numMemPorts, 1, kU);
    f("core.numFpAlu", core.numFpAlu, 1, kU);
    f("core.numFpMulDiv", core.numFpMulDiv, 1, kU);
    b("core.pipelinePenalties", core.pipelinePenalties);
    b("core.wrongPathExecution", core.wrongPathExecution);
    b("core.wibEnabled", core.wibEnabled);
    f("core.wibSize", core.wibSize, 1, kU);
    f("core.wibReinsertWidth", core.wibReinsertWidth, 1, kU);
    f("core.wibReinsertDelay", core.wibReinsertDelay, 0, kU);
    f("core.debugStallCommitAt", core.debugStallCommitAt, 0, kU64);
    b("core.debugCorruptUndo", core.debugCorruptUndo);

    for (auto [p, cc] : {std::pair{"mem.l1i.", &c.mem.l1i},
                         std::pair{"mem.l1d.", &c.mem.l1d},
                         std::pair{"mem.l2.", &c.mem.l2}}) {
        f(FieldName(p, "sizeBytes"), cc->sizeBytes, 1, kU64);
        f(FieldName(p, "assoc"), cc->assoc, 1, kU);
        f(FieldName(p, "lineBytes"), cc->lineBytes, 1, kU);
        f(FieldName(p, "hitLatency"), cc->hitLatency, 0, kU);
        f(FieldName(p, "mshrs"), cc->mshrs, 1, kU);
    }
    f("mem.dram.minLatency", c.mem.dram.minLatency, 0, kU);
    f("mem.dram.bytesPerCycle", c.mem.dram.bytesPerCycle, 1, kU);
    auto &pf = c.mem.prefetcher;
    b("mem.prefetcher.enabled", pf.enabled);
    f("mem.prefetcher.kind", pf.kind, PrefetcherKind::Stride,
      PrefetcherKind::Stream);
    f("mem.prefetcher.tableEntries", pf.tableEntries, 1, kU);
    f("mem.prefetcher.tableAssoc", pf.tableAssoc, 1, kU);
    f("mem.prefetcher.degree", pf.degree, 0, kU);
    f("mem.prefetcher.streamEntries", pf.streamEntries, 1, kU);

    f("bp.kind", c.bp.kind, DirectionKind::Gshare, DirectionKind::Tournament);
    f("bp.historyBits", c.bp.historyBits, 0, 64);
    f("bp.phtEntries", c.bp.phtEntries, 1, kU64);
    f("bp.btbSets", c.bp.btbSets, 1, kU64);
    f("bp.btbAssoc", c.bp.btbAssoc, 1, kU);
    f("bp.rasEntries", c.bp.rasEntries, 0, kU);

    // The level table is a row count, then the rows. Visitors see a
    // copy that a mutating visit writes back, so a decoded count
    // resizes the table before its rows are read.
    std::vector<ResourceLevel> rows;
    for (unsigned l = 1; l <= c.levels.maxLevel(); ++l)
        rows.push_back(c.levels.at(l));
    unsigned n = c.levels.maxLevel();
    f("levels", n, 1, kMaxLevels);
    rows.resize(n, rows.back());
    for (unsigned l = 0; l < n; ++l) {
        char p[12] = "levels.";
        char *end = std::to_chars(p + 7, p + 10, l + 1).ptr;
        end[0] = '.';
        end[1] = '\0';
        f(FieldName(p, "iqSize"), rows[l].iqSize, 1, kU);
        f(FieldName(p, "iqDepth"), rows[l].iqDepth, 1, kU);
        f(FieldName(p, "robSize"), rows[l].robSize, 1, kU);
        f(FieldName(p, "robDepth"), rows[l].robDepth, 1, kU);
        f(FieldName(p, "lsqSize"), rows[l].lsqSize, 1, kU);
        f(FieldName(p, "lsqDepth"), rows[l].lsqDepth, 1, kU);
    }
    if constexpr (!std::is_const_v<Cfg>)
        c.levels = LevelTable(std::move(rows));
    f("model", c.model, ModelKind::Base, ModelKind::Wib);
    f("fixedLevel", c.fixedLevel, 1, kMaxLevels);

    f("mlp.memoryLatency", c.mlp.memoryLatency, 0, kU);
    f("mlp.transitionPenalty", c.mlp.transitionPenalty, 0, kU);
    auto &occ = c.occupancy;
    f("occupancy.samplePeriod", occ.samplePeriod, 1, kU);
    f("occupancy.growStallThreshold", occ.growStallThreshold, 0, kU);
    f("occupancy.shrinkHeadroom", occ.shrinkHeadroom, 0, 1e9);
    f("occupancy.transitionPenalty", occ.transitionPenalty, 0, kU);
    auto &ra = c.runahead;
    b("runahead.enabled", ra.enabled);
    b("runahead.useRcst", ra.useRcst);
    f("runahead.runaheadCacheWords", ra.runaheadCacheWords, 1, kU);
    f("runahead.exitPenalty", ra.exitPenalty, 0, kU);

    b("vm.enabled", c.vm.enabled);
    for (auto [p, t] : {std::pair{"vm.itlb.", &c.vm.itlb},
                        std::pair{"vm.dtlb.", &c.vm.dtlb},
                        std::pair{"vm.stlb.", &c.vm.stlb}}) {
        f(FieldName(p, "entries"), t->entries, 1, kTlb);
        f(FieldName(p, "assoc"), t->assoc, 1, kTlb);
        f(FieldName(p, "hitLatency"), t->hitLatency, 0, 100);
    }
    f("vm.walkLevels", c.vm.walkLevels, 2, 5);
    b("vm.hugePages", c.vm.hugePages);
    f("vm.fragPermille", c.vm.fragPermille, 0, 1000);
    b("vm.resizeOnWalk", c.vm.resizeOnWalk);

    b("warmInstCaches", c.warmInstCaches);
    b("warmDataCaches", c.warmDataCaches);
    f("warmupInsts", c.warmupInsts, 0, kU64);
    b("functionalWarmup", c.functionalWarmup);
    auto &smp = c.sampling;
    b("sampling.enabled", smp.enabled);
    f("sampling.intervalInsts", smp.intervalInsts, 0, kU64);
    f("sampling.periodInsts", smp.periodInsts, 0, kU64);
    f("sampling.detailedWarmupInsts", smp.detailedWarmupInsts, 0, kU64);
    b("lockstepCheck", c.lockstepCheck);
    f("maxInsts", c.maxInsts, 0, kU64);
    f("maxCycles", c.maxCycles, 0, kU64);

    auto &wd = c.watchdog;
    const FieldRole host = FieldRole::HostOnly;
    b("watchdog.enabled", wd.enabled, host);
    f("watchdog.noCommitWindow", wd.noCommitWindow, 0, kU64, host);
    f("watchdog.checkInterval", wd.checkInterval, 1, kU64, host);
}

/** A field value as 64 bits: integers and enums widened, doubles by
 *  bit pattern. */
template <class T>
std::uint64_t
fieldBits(T value)
{
    if constexpr (std::is_same_v<T, double>)
        return std::bit_cast<std::uint64_t>(value);
    else
        return static_cast<std::uint64_t>(value);
}

/** A field value as text: true/false, decimal, or %.17g (exact). */
template <class T>
std::string
formatField(T value)
{
    if constexpr (std::is_same_v<T, bool>)
        return value ? "true" : "false";
    else if constexpr (std::is_same_v<T, double>)
        return fmtDouble(value);
    else
        return fmtU64(fieldBits(value));
}

/**
 * Strict parse of a non-bool field value within [lo, hi]: the whole
 * string must be a decimal integer (a finite number for doubles).
 * @return false, leaving `out` untouched, on junk or out of bounds.
 */
template <class T>
bool
parseField(const char *text, T lo, T hi, T &out)
{
    if constexpr (std::is_same_v<T, double>) {
        char *end = nullptr;
        double v = std::strtod(text, &end);
        if (end == text || *end || !std::isfinite(v) || v < lo || v > hi)
            return false;
        out = v;
    } else {
        std::uint64_t v = 0;
        if (!parseU64(text, v) || v < fieldBits(lo) || v > fieldBits(hi))
            return false;
        out = static_cast<T>(v);
    }
    return true;
}

// Registry completeness: a config struct that grows has a field the
// registry does not list yet. Register it, then update its size here.
#if defined(__LP64__)
static_assert(sizeof(SimConfig) == 496);
static_assert(sizeof(CoreConfig) == 120);
static_assert(sizeof(SmtConfig) == 40);
static_assert(sizeof(MemSystemConfig) == 104);
static_assert(sizeof(CacheConfig) == 24);
static_assert(sizeof(DramConfig) == 8);
static_assert(sizeof(PrefetcherConfig) == 24);
static_assert(sizeof(BranchPredictorConfig) == 32);
static_assert(sizeof(LevelTable) == 24);
static_assert(sizeof(ResourceLevel) == 24);
static_assert(sizeof(MlpControllerConfig) == 8);
static_assert(sizeof(OccupancyControllerConfig) == 24);
static_assert(sizeof(RunaheadConfig) == 12);
static_assert(sizeof(vm::MmuConfig) == 56);
static_assert(sizeof(vm::TlbConfig) == 12);
static_assert(sizeof(SamplingConfig) == 32);
static_assert(sizeof(WatchdogConfig) == 24);
#endif

} // namespace mlpwin

#endif // MLPWIN_SIM_CONFIG_FIELDS_HH
