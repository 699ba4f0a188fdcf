/**
 * @file
 * Top-level simulation configuration: the paper's evaluated models
 * (Section 5.3) and all component configs, defaulting to Table 1.
 */

#ifndef MLPWIN_SIM_SIM_CONFIG_HH
#define MLPWIN_SIM_SIM_CONFIG_HH

#include <cstdint>
#include <string>

#include "branch/predictor.hh"
#include "cpu/core_config.hh"
#include "mem/mem_config.hh"
#include "resize/controller.hh"
#include "resize/level_table.hh"
#include "runahead/runahead.hh"
#include "sample/sample_config.hh"
#include "vm/mmu_config.hh"

namespace mlpwin
{

class ArchCheckpoint;

/** The evaluated processor models. */
enum class ModelKind
{
    /** Conventional processor: fixed at level 1 (the paper's base). */
    Base,
    /** Fixed size at `fixedLevel`, pipelined (issue/branch penalty). */
    Fixed,
    /** Fixed size at `fixedLevel`, NOT pipelined (no penalties). */
    Ideal,
    /** The paper's MLP-aware dynamic window resizing. */
    Resizing,
    /** Runahead execution on the base window (Section 5.7). */
    Runahead,
    /** Occupancy-driven resizing ablation (Section 6.2). */
    Occupancy,
    /**
     * Waiting-instruction-buffer model (Lebeck et al.; paper Section
     * 6.3): level-3 ROB/LSQ with the small level-1 single-cycle IQ,
     * plus a WIB that parks miss-dependent instructions.
     */
    Wib,
};

/** Most instruction-window levels a config may have (model levels
 *  are 1-based, so also the largest fixedLevel). */
constexpr unsigned kMaxLevels = 16;

/** Printable model name. */
const char *modelName(ModelKind kind);

/** Inverse of modelName; false (out untouched) on an unknown name. */
bool parseModelName(const std::string &name, ModelKind &out);

/**
 * Forward-progress watchdog (see Simulator::runUntil). A wedged core
 * — a lost wakeup, a drain that can never complete, a leaked window
 * entry — would otherwise spin silently to the 4-billion-cycle
 * maxCycles ceiling; the watchdog turns that into a prompt SimError
 * carrying a DiagnosticDump of the stuck machine state.
 */
struct WatchdogConfig
{
    bool enabled = true;

    /**
     * Abort if no instruction commits for this many cycles. 0 = auto:
     * 2 x MLP-controller memory latency x the largest level's ROB
     * size — a full window of back-to-back DRAM misses, doubled.
     * Any legitimate stall (mispredict recovery + a chain of misses)
     * resolves well inside that.
     */
    Cycle noCommitWindow = 0;

    /**
     * Structural-invariant / deadline / cancellation poll period in
     * cycles. Checks are O(1); the default adds no measurable cost.
     */
    Cycle checkInterval = 1024;
};

/** See file comment. */
struct SimConfig
{
    CoreConfig core;
    MemSystemConfig mem;
    BranchPredictorConfig bp;
    LevelTable levels = LevelTable::paperDefault();

    ModelKind model = ModelKind::Base;
    /** Level used by Fixed/Ideal models (1-based). */
    unsigned fixedLevel = 1;

    MlpControllerConfig mlp;
    OccupancyControllerConfig occupancy;
    RunaheadConfig runahead;

    /**
     * Virtual-memory (paging) configuration. Off by default; a
     * disabled MMU leaves every cycle, hash, and statistic
     * bit-identical to a build that predates the vm subsystem.
     */
    vm::MmuConfig vm;

    /**
     * Pre-install the program text in the L1I/L2 before the run. The
     * paper measures 100M-instruction samples after a 16G-instruction
     * fast-forward, so instruction fetch is warm; our runs start cold,
     * and this restores the paper's I-side conditions. Data stays cold.
     */
    bool warmInstCaches = true;

    /**
     * Pre-install the program's data segments (BSS included) in the
     * L2 — and in the L1D too when the whole footprint fits it —
     * before the run. Complements warmupInsts for working sets too
     * large for a short warm-up run to touch completely; footprints
     * beyond the L2 capacity wrap, leaving the tail resident as LRU
     * would. Off by default; the benchmark harness enables it.
     */
    bool warmDataCaches = false;

    /**
     * Committed instructions to execute *before* the measurement
     * window opens; all statistics are zeroed afterwards. Stands in
     * for the paper's 16G-instruction fast-forward, which warms the
     * data caches, predictors, and prefetcher tables.
     */
    std::uint64_t warmupInsts = 0;

    /**
     * Execute the warm-up phase on the functional emulator with
     * cache/predictor warming (sample/fastforward.hh) instead of on
     * the detailed core — orders of magnitude faster, with the same
     * architectural state and near-identical cache/predictor contents
     * at the measurement boundary. The CLI tools and the benchmark
     * harness enable this; the default stays detailed so existing
     * configurations measure exactly what they did before.
     */
    bool functionalWarmup = false;

    /**
     * SMARTS-style systematic sampling (see sample/sample_config.hh).
     * When enabled, maxInsts bounds the *total* instructions executed
     * after warm-up (fast-forwarded + detailed), and SimResult.ipc
     * becomes the sampled estimate with a confidence interval.
     */
    SamplingConfig sampling;

    /**
     * Resume from an architectural checkpoint (not owned; must
     * outlive the Simulator). The checkpoint's program hash must
     * match the program, or the Simulator constructor throws
     * SimError{InvalidArgument}. One checkpoint, being read-only
     * here, may be shared by every cell of a sweep matrix.
     */
    const ArchCheckpoint *startCheckpoint = nullptr;

    /**
     * Run a lockstep architectural checker alongside the core: an
     * independent reference emulator on a shadow memory, stepped and
     * cross-checked at every commit (see check/lockstep.hh). The
     * first divergent commit aborts the run with ErrorCode::
     * ArchDivergence and a dump naming the PC and field. Purely
     * observational: a checked run's cycles and statistics are
     * bit-identical to an unchecked run.
     */
    bool lockstepCheck = false;

    /** Stop after this many committed instructions (0 = run to Halt). */
    std::uint64_t maxInsts = 0;
    /** Hard cycle ceiling (guards against deadlock bugs). */
    std::uint64_t maxCycles = 4'000'000'000ULL;

    /** Forward-progress watchdog; on by default. */
    WatchdogConfig watchdog;
};

} // namespace mlpwin

#endif // MLPWIN_SIM_SIM_CONFIG_HH
