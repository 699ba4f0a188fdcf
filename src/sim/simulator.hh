/**
 * @file
 * The Simulator facade: builds a full system (functional memory,
 * cache hierarchy, resize controller, out-of-order core) for one
 * program and one model, runs it, and collects a SimResult with
 * everything the paper's figures and tables need.
 *
 * With cfg.core.smt.nThreads > 1 the facade builds an SMT system
 * instead: one functional memory, program, and lockstep checker per
 * hardware thread, co-scheduled on one core whose shared windows are
 * divided by an SmtPartitionController. SMT runs use the base model
 * (the partition policy governs window sizing) and report per-thread
 * IPC alongside the aggregates.
 */

#ifndef MLPWIN_SIM_SIMULATOR_HH
#define MLPWIN_SIM_SIMULATOR_HH

#include <atomic>
#include <chrono>
#include <deque>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "check/lockstep.hh"
#include "common/stats.hh"
#include "common/status.hh"
#include "cpu/core.hh"
#include "energy/energy_model.hh"
#include "isa/program.hh"
#include "mem/hierarchy.hh"
#include "mem/main_memory.hh"
#include "sample/checkpoint.hh"
#include "sample/sampling.hh"
#include "sim/sim_config.hh"
#include "smt/partition.hh"
#include "telemetry/sampler.hh"
#include "telemetry/timeline.hh"

namespace mlpwin
{

/** Everything measured in one finished run. */
struct SimResult
{
    std::string workload;
    std::string model;
    bool halted = false;

    std::uint64_t cycles = 0;
    std::uint64_t committed = 0;
    double ipc = 0.0;
    double avgLoadLatency = 0.0;
    double observedMlp = 0.0;

    std::uint64_t committedBranches = 0;
    std::uint64_t committedMispredicts = 0;
    std::uint64_t squashed = 0;

    std::uint64_t l2DemandMisses = 0;
    PollutionStats l2Pollution;

    std::vector<std::uint64_t> cyclesAtLevel;

    EnergyInputs energyInputs;
    double energyTotal = 0.0; ///< pJ (model units).
    double edp = 0.0;         ///< energy x cycles.

    std::uint64_t runaheadEpisodes = 0;
    std::uint64_t runaheadUseless = 0;

    /** True when the run simulated virtual memory (paging on). */
    bool vmEnabled = false;
    /** TLB / page-walk counters (all zero when vmEnabled is false). */
    vm::VmStats vm;

    /**
     * Per-thread CPI stacks over the measurement window (one per
     * hardware thread, thread-id order; a single entry on
     * single-thread runs). Each stack's leaves sum exactly to
     * `cycles` — the cycle-accounting invariant.
     */
    std::vector<CpiStack> threadCpi;

    /** Leaf-wise sum of threadCpi (whole-core stall breakdown). */
    CpiStack
    cpiTotal() const
    {
        CpiStack total;
        for (const CpiStack &t : threadCpi)
            total += t;
        return total;
    }

    std::uint64_t archRegChecksum = 0;

    /**
     * Commit-stream fingerprint from the lockstep checker (pc,
     * result, memAddr, storeData of every committed instruction);
     * 0 when the run was unchecked. Two checked runs with equal
     * hashes committed identical instruction streams — the property
     * the differential fuzzer requires across models. On SMT runs
     * this is an FNV fold of the per-thread stream hashes.
     */
    std::uint64_t commitStreamHash = 0;

    // --- SMT fields (nThreads > 1 runs) --------------------------------
    unsigned nThreads = 1;
    std::string fetchPolicy;     ///< "rr"/"icount"/"predictive".
    std::string partitionPolicy; ///< "static"/"shared"/"mlp".
    /** Per-thread IPC over the measurement window. */
    std::vector<double> threadIpc;
    /** Per-thread committed instructions (measurement window). */
    std::vector<std::uint64_t> threadCommitted;
    /** Per-thread commit-stream hashes (0 when unchecked). */
    std::vector<std::uint64_t> threadCommitHash;
    /** Per-thread observed MLP. */
    std::vector<double> threadObservedMlp;
    /**
     * Fairness aggregates vs single-thread alone-run IPC baselines:
     * system throughput Σ(smt/alone), average normalized turnaround
     * mean(alone/smt), and harmonic mean of speedups. Filled by the
     * experiment driver (smt/metrics.hh) when baselines exist; 0
     * otherwise.
     */
    double stp = 0.0;
    double antt = 0.0;
    double hmeanSpeedup = 0.0;

    // --- sampled-simulation fields (sampled == true runs) -------------
    /** True when this result came from a sampled run. */
    bool sampled = false;
    /** Fully measured sampling intervals behind the IPC estimate. */
    std::uint64_t sampleIntervals = 0;
    /** Instructions fast-forwarded functionally (excluded from
     *  `committed`, which counts detailed-mode instructions only). */
    std::uint64_t ffInsts = 0;
    /**
     * Half-width of the CLT 95% confidence interval on `ipc`. In a
     * sampled run, `ipc` is the mean of the per-interval IPCs; the
     * full-detail IPC is expected inside ipc +/- ipcCi95. Zero for
     * unsampled runs and for runs with fewer than two intervals.
     */
    double ipcCi95 = 0.0;

    /** Committed instructions per committed mispredict (Table 5). */
    double
    instsPerMispredict() const
    {
        return committedMispredicts
            ? static_cast<double>(committed) /
                  static_cast<double>(committedMispredicts)
            : static_cast<double>(committed);
    }
};

/** See file comment. */
class Simulator
{
  public:
    Simulator(const SimConfig &cfg, const Program &prog);

    /**
     * SMT construction: one program per hardware thread.
     * progs.size() must equal cfg.core.smt.nThreads; with more than
     * one thread the model must be Base and sampling / checkpoints /
     * functional warm-up are unavailable.
     */
    Simulator(const SimConfig &cfg, const std::vector<Program> &progs);

    /**
     * Run to Halt / instruction budget / cycle ceiling.
     *
     * @throws SimError (NoProgress / InvariantViolation) if the
     *         forward-progress watchdog fires, with a DiagnosticDump
     *         of the wedged machine state; (Timeout) past a deadline
     *         set via setDeadline; (Interrupted) once an attached
     *         abort flag goes true.
     */
    SimResult run();

    /**
     * Tick until the committed-instruction count reaches the target
     * (0 = until Halt), the cycle ceiling, or Halt. Watchdog/deadline
     * semantics as in run().
     */
    void runUntil(std::uint64_t committed_target);

    /**
     * Execute up to n instructions on the functional emulator with
     * cache/predictor warming, from a drained pipeline (the core must
     * satisfy readyForFastForward(); trivially true before the first
     * cycle and after drainPipeline()). The lockstep checker, when
     * attached, skips in lockstep so checking resumes seamlessly.
     * Single-thread runs only.
     *
     * @return Instructions actually executed (less than n at Halt).
     */
    std::uint64_t fastForward(std::uint64_t n);

    /**
     * Pause fetch and tick until nothing is in flight, leaving the
     * core at an architectural boundary (readyForFastForward()), then
     * re-allow fetch. Watchdog-bounded.
     */
    void drainPipeline();

    /**
     * Abort the run (SimError{Timeout}) once the wall clock passes
     * `deadline`. Polled every watchdog.checkInterval cycles, so
     * enforcement lags by at most one poll period.
     */
    void
    setDeadline(std::chrono::steady_clock::time_point deadline)
    {
        deadline_ = deadline;
        hasDeadline_ = true;
    }

    /**
     * Abort the run (SimError{Interrupted}) once *flag becomes true
     * (not owned; nullptr detaches). Lets a batch driver cancel
     * in-flight simulations from a signal handler.
     */
    void setAbortFlag(const std::atomic<bool> *flag)
    {
        abortFlag_ = flag;
    }

    /**
     * Check the structural invariants the watchdog enforces (window
     * occupancies within the largest level's capacities, outstanding
     * misses bounded). Cheap; callable any time.
     */
    Status checkInvariants() const;

    /**
     * The effective no-commit window in cycles: the configured value,
     * or the auto default (2 x memory latency x max ROB size) when
     * the configuration says 0. Returns 0 if the watchdog is off.
     */
    Cycle watchdogWindow() const;

    /** Build the machine-state dump a watchdog abort would carry. */
    DiagnosticDump diagnosticDump() const;

    /** Advance a single cycle (fine-grained control for tests). */
    void tick() { stepCycle(); }

    /**
     * Attach a pipeline tracer to the core (not owned). Pass nullptr
     * to detach. See cpu/tracer.hh for categories.
     */
    void setTracer(PipelineTracer *t) { core_->setTracer(t); }

    /**
     * Attach an interval sampler (not owned; nullptr detaches). The
     * simulator polls it once per cycle and snapshots when a sample is
     * due — one pointer test per cycle when disabled.
     */
    void setSampler(IntervalSampler *s) { sampler_ = s; }

    /**
     * Attach an event timeline (not owned; nullptr detaches). Wired
     * through to the core (runahead episodes) and, on single-thread
     * runs, the resize controller (grow/shrink transitions).
     */
    void
    setTimeline(EventTimeline *t)
    {
        timeline_ = t;
        core_->setTimeline(t);
        if (resize_)
            resize_->setTimeline(t);
    }

    /** Build a telemetry snapshot of the current machine state. */
    IntervalSnapshot snapshot() const;

    /** Thread 0's lockstep checker, when cfg.lockstepCheck enabled. */
    const LockstepChecker *
    checker() const
    {
        return checkers_.empty() ? nullptr : checkers_[0].get();
    }

    /** Per-thread checker (nullptr when unchecked). */
    const LockstepChecker *
    checker(unsigned tid) const
    {
        return tid < checkers_.size() ? checkers_[tid].get() : nullptr;
    }

    unsigned nThreads() const { return core_->nThreads(); }

    OooCore &core() { return *core_; }
    CacheHierarchy &hierarchy() { return mem_; }
    MainMemory &memory() { return fmems_.front(); }
    MainMemory &memory(unsigned tid) { return fmems_[tid]; }
    /** Single-thread runs only (SMT uses partitionController()). */
    ResizeController &controller() { return *resize_; }
    /** SMT runs only (nullptr on single-thread runs). */
    const SmtPartitionController *
    partitionController() const
    {
        return partition_.get();
    }
    StatSet &stats() { return stats_; }

    /** Dump all registered stats. */
    void dumpStats(std::ostream &os) const { stats_.dump(os); }

  private:
    /** One core cycle plus the telemetry sampling poll. */
    void
    stepCycle()
    {
        core_->tick();
        for (unsigned tid = 0; tid < checkers_.size(); ++tid) {
            if (checkers_[tid] && checkers_[tid]->diverged())
                abortDivergence(tid);
        }
        if (sampler_ && sampler_->due(core_->cycle()))
            sampler_->record(snapshot());
    }

    /** The level table in force: resize controller's or partition's. */
    const LevelTable &activeTable() const;

    /** Periodic (checkInterval) watchdog work; throws SimError. */
    void pollWatchdog(Cycle window);

    /** The sampled-mode run loop (cfg.sampling.enabled). */
    SimResult runSampled();

    /** Warm-up phase shared by run() and runSampled(). */
    PollutionStats warmupPhase();

    /** End-of-run bookkeeping + SimResult assembly (both modes). */
    SimResult collectResult(const PollutionStats &pollution_base);

    /** Throw a watchdog SimError with the diagnostic dump attached. */
    [[noreturn]] void abortRun(ErrorCode code,
                               const std::string &why) const;

    /**
     * Throw the ArchDivergence SimError for thread tid's recorded
     * first divergent commit, dump attached.
     */
    [[noreturn]] void abortDivergence(unsigned tid) const;

    SimConfig cfg_;
    std::string workloadName_;
    StatSet stats_;
    /** One functional memory per hardware thread (address-stable). */
    std::deque<MainMemory> fmems_;
    CacheHierarchy mem_;
    std::unique_ptr<ResizeController> resize_;
    std::unique_ptr<SmtPartitionController> partition_;
    std::unique_ptr<OooCore> core_;
    /** One checker per thread (empty when unchecked). */
    std::vector<std::unique_ptr<LockstepChecker>> checkers_;
    std::unique_ptr<SamplingController> sampling_;
    IntervalSampler *sampler_ = nullptr;
    EventTimeline *timeline_ = nullptr;

    // --- watchdog state -----------------------------------------------
    /** Cycle of the most recent commit (watchdog + dumps). */
    Cycle lastCommitCycle_ = 0;
    /** Consecutive cycles with allocation stopped (drain tracking). */
    Cycle allocStoppedRun_ = 0;
    bool hasDeadline_ = false;
    std::chrono::steady_clock::time_point deadline_;
    const std::atomic<bool> *abortFlag_ = nullptr;
};

/**
 * FNV-1a fingerprint of every result-identity field of the SimConfig
 * field registry (sim/config_fields.hh): all fields but the host-only
 * watchdog knobs, in registry order. Two configs with equal
 * fingerprints produce the same result for the same program, so the
 * result cache keys on it; BENCH_<n>.json records it so cross-commit
 * comparisons can tell "the simulator got faster" from "the config
 * changed".
 */
std::uint64_t configFingerprint(const SimConfig &cfg);

/**
 * Convenience: build and run one workload under one model. With
 * cfg.core.smt.nThreads > 1, `name` may be a '+'-separated pair/quad
 * of workload names ("mcf+gamess") co-scheduled one per thread; a
 * single name is replicated across all threads.
 *
 * @param name Workload name (or '+'-separated co-schedule).
 * @param cfg Full configuration (model field selects the model).
 * @param iterations Outer iterations for the program generator.
 */
SimResult runWorkload(const std::string &name, const SimConfig &cfg,
                      std::uint64_t iterations);

/** Split a '+'-separated co-schedule spec into workload names. */
std::vector<std::string> splitWorkloadSpec(const std::string &name);

} // namespace mlpwin

#endif // MLPWIN_SIM_SIMULATOR_HH
