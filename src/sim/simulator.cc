#include "simulator.hh"

#include <algorithm>
#include <sstream>

#include "common/logging.hh"
#include "profile/profiler.hh"
#include "sample/fastforward.hh"
#include "sim/config_fields.hh"
#include "workloads/suite.hh"

namespace mlpwin
{

const char *
modelName(ModelKind kind)
{
    switch (kind) {
      case ModelKind::Base:
        return "base";
      case ModelKind::Fixed:
        return "fixed";
      case ModelKind::Ideal:
        return "ideal";
      case ModelKind::Resizing:
        return "resizing";
      case ModelKind::Runahead:
        return "runahead";
      case ModelKind::Occupancy:
        return "occupancy";
      case ModelKind::Wib:
        return "wib";
    }
    return "?";
}

bool
parseModelName(const std::string &name, ModelKind &out)
{
    for (unsigned k = 0; k <= static_cast<unsigned>(ModelKind::Wib); ++k) {
        if (name == modelName(static_cast<ModelKind>(k))) {
            out = static_cast<ModelKind>(k);
            return true;
        }
    }
    return false;
}

namespace
{

std::unique_ptr<ResizeController>
buildController(const SimConfig &cfg, StatSet *stats)
{
    switch (cfg.model) {
      case ModelKind::Base:
      case ModelKind::Runahead:
        return std::make_unique<FixedLevelController>(cfg.levels, 1);
      case ModelKind::Fixed:
      case ModelKind::Ideal:
        return std::make_unique<FixedLevelController>(cfg.levels,
                                                      cfg.fixedLevel);
      case ModelKind::Resizing:
        return std::make_unique<MlpAwareController>(cfg.levels,
                                                    cfg.mlp, stats);
      case ModelKind::Occupancy:
        return std::make_unique<OccupancyController>(
            cfg.levels, cfg.occupancy, stats);
      case ModelKind::Wib: {
        // Large window everywhere except the IQ, which stays at the
        // base's single-cycle size; the WIB supplies the capacity.
        const ResourceLevel &big = cfg.levels.at(cfg.levels.maxLevel());
        const ResourceLevel &small = cfg.levels.at(1);
        ResourceLevel wib_level = big;
        wib_level.iqSize = small.iqSize;
        wib_level.iqDepth = small.iqDepth;
        wib_level.robDepth = small.robDepth;
        wib_level.lsqDepth = small.lsqDepth;
        return std::make_unique<FixedLevelController>(
            LevelTable({wib_level}), 1);
      }
    }
    mlpwin_panic("bad model kind");
}

std::string
joinNames(const std::vector<Program> &progs)
{
    std::string s;
    for (const Program &p : progs) {
        if (!s.empty())
            s += '+';
        s += p.name();
    }
    return s;
}

} // namespace

Simulator::Simulator(const SimConfig &cfg, const Program &prog)
    : Simulator(cfg, std::vector<Program>{prog})
{
}

Simulator::Simulator(const SimConfig &cfg,
                     const std::vector<Program> &progs)
    : cfg_(cfg), workloadName_(joinNames(progs)),
      mem_(cfg.mem, &stats_, cfg.vm)
{
    std::string vm_err = cfg_.vm.validate();
    if (!vm_err.empty())
        throw SimError(ErrorCode::InvalidArgument, vm_err);
    const SmtConfig &smt = cfg_.core.smt;
    if (smt.nThreads < 1 || smt.nThreads > kMaxSmtThreads)
        throw SimError(ErrorCode::InvalidArgument,
                       "nThreads must be in [1, " +
                           std::to_string(kMaxSmtThreads) + "], got " +
                           std::to_string(smt.nThreads));
    if (progs.size() != smt.nThreads)
        throw SimError(ErrorCode::InvalidArgument,
                       "SMT run needs one program per thread: " +
                           std::to_string(smt.nThreads) +
                           " threads but " +
                           std::to_string(progs.size()) +
                           " programs");
    const bool smt_run = smt.nThreads > 1;
    if (smt_run) {
        // The partition policy is authoritative over window sizing on
        // an SMT core; single-thread-only machinery is rejected
        // rather than silently misbehaving.
        if (cfg_.model != ModelKind::Base)
            throw SimError(
                ErrorCode::InvalidArgument,
                std::string("SMT runs support only the base model "
                            "(the partition policy governs window "
                            "sizing); got ") +
                    modelName(cfg_.model));
        if (cfg_.sampling.enabled)
            throw SimError(ErrorCode::InvalidArgument,
                           "sampled simulation is single-thread only");
        if (cfg_.startCheckpoint)
            throw SimError(ErrorCode::InvalidArgument,
                           "checkpoint resume is single-thread only");
    }

    // Per-model adjustments.
    if (cfg_.model == ModelKind::Ideal)
        cfg_.core.pipelinePenalties = false;
    if (cfg_.model == ModelKind::Wib)
        cfg_.core.wibEnabled = true;
    RunaheadConfig ra = cfg_.runahead;
    ra.enabled = cfg_.model == ModelKind::Runahead;

    for (unsigned tid = 0; tid < progs.size(); ++tid) {
        const Program &prog = progs[tid];
        fmems_.emplace_back().loadProgram(prog);
        // Timing-side warming at the thread's address offset (thread
        // 0's offset is zero, preserving single-thread behaviour).
        Addr base = static_cast<Addr>(tid) << kThreadAddrShift;
        if (cfg_.warmInstCaches) {
            unsigned line = mem_.l1i().lineBytes();
            for (Addr a = prog.codeBase(); a < prog.codeEnd();
                 a += line)
                mem_.warmInstLine(base + a);
        }
        if (cfg_.warmDataCaches && prog.dataEnd() > prog.dataBase()) {
            unsigned line = mem_.l2().lineBytes();
            std::uint64_t bytes = prog.dataEnd() - prog.dataBase();
            bool fits_l1d = bytes <= cfg_.mem.l1d.sizeBytes;
            for (Addr a = prog.dataBase(); a < prog.dataEnd();
                 a += line)
                mem_.warmDataLine(base + a, fits_l1d);
        }
    }

    if (smt_run) {
        partition_ = std::make_unique<SmtPartitionController>(
            cfg_.levels, smt, cfg_.mlp, &stats_);
        mem_.setL2MissListener([this](Addr a, Cycle c) {
            // The address's high bits name the missing thread.
            auto tid = static_cast<unsigned>(a >> kThreadAddrShift);
            if (tid < partition_->nThreads())
                partition_->onL2DemandMiss(tid, c);
        });
        if (cfg_.vm.enabled && cfg_.vm.resizeOnWalk) {
            // Opt-in: a page-table walk start counts as a miss
            // occurrence for the partition policy, like an L2 miss.
            mem_.setWalkListener([this](Addr a, Cycle c) {
                auto tid =
                    static_cast<unsigned>(a >> kThreadAddrShift);
                if (tid < partition_->nThreads())
                    partition_->onL2DemandMiss(tid, c);
            });
        }
    } else {
        resize_ = buildController(cfg_, &stats_);
        mem_.setL2MissListener([this](Addr, Cycle c) {
            resize_->onL2DemandMiss(c);
        });
        if (cfg_.vm.enabled && cfg_.vm.resizeOnWalk) {
            mem_.setWalkListener([this](Addr, Cycle c) {
                resize_->onL2DemandMiss(c);
            });
        }
    }

    std::vector<SmtThreadSpec> specs;
    specs.reserve(progs.size());
    for (unsigned tid = 0; tid < progs.size(); ++tid)
        specs.push_back(SmtThreadSpec{&fmems_[tid], &progs[tid]});
    core_ = std::make_unique<OooCore>(cfg_.core, resize_.get(),
                                      partition_.get(), mem_, specs,
                                      &stats_, ra, cfg_.bp);
    if (cfg_.lockstepCheck) {
        checkers_.reserve(progs.size());
        for (unsigned tid = 0; tid < progs.size(); ++tid) {
            checkers_.push_back(
                std::make_unique<LockstepChecker>(progs[tid]));
            core_->setChecker(tid, checkers_[tid].get());
        }
    }
    std::string sampling_err = cfg_.sampling.validate();
    if (!sampling_err.empty())
        throw SimError(ErrorCode::InvalidArgument, sampling_err);
    if (cfg_.sampling.enabled)
        sampling_ = std::make_unique<SamplingController>(cfg_.sampling,
                                                         &stats_);
    if (cfg_.startCheckpoint) {
        ScopedSpan span(SpanKind::CheckpointLoad);
        const ArchCheckpoint &ck = *cfg_.startCheckpoint;
        if (ck.programHash() != programHash(progs[0]))
            throw SimError(
                ErrorCode::InvalidArgument,
                "checkpoint (workload " + ck.workload() +
                    ", inst " + std::to_string(ck.instCount()) +
                    ") was taken from a different program than " +
                    progs[0].name() + " (identity hash mismatch)");
        ck.restoreMemory(fmems_[0]);
        core_->restoreArchState(ck.regs(), ck.pc(), ck.instCount());
        if (!checkers_.empty())
            checkers_[0]->restoreState(ck.regs(), ck.pc(),
                                       ck.instCount(), fmems_[0]);
    }
}

const LevelTable &
Simulator::activeTable() const
{
    return resize_ ? resize_->table() : partition_->table();
}

IntervalSnapshot
Simulator::snapshot() const
{
    IntervalSnapshot s;
    s.cycle = core_->cycle();
    s.committed = core_->committedInsts();
    s.l2DemandMisses = mem_.l2DemandMisses();
    s.level = resize_ ? resize_->level() : partition_->levelFor(0);
    s.robOcc = core_->robOccupancy();
    s.iqOcc = core_->iqOccupancy();
    s.lsqOcc = core_->lsqOccupancy();
    s.outstandingMisses = core_->outstandingL2Misses();
    // The DRAM model is analytic (no literal queue); report the bus
    // backlog — how far ahead of "now" the bus is already booked.
    Cycle bus_free = mem_.dram().busFreeAt();
    s.dramBacklog = bus_free > s.cycle
        ? static_cast<std::uint64_t>(bus_free - s.cycle) : 0;
    // Per-thread series (one entry per hardware thread; a single
    // entry on single-thread runs).
    for (unsigned tid = 0; tid < core_->nThreads(); ++tid) {
        const ThreadContext &t = core_->thread(tid);
        ThreadSnapshot ts;
        ts.committed = t.committedMeasured;
        ts.level = core_->threadLevel(tid);
        ts.robOcc = static_cast<unsigned>(t.window.size());
        ts.outstandingMisses =
            static_cast<unsigned>(t.activeMissDone.size());
        ts.cpi = t.cpi;
        s.threads.push_back(ts);
    }
    s.cpi = core_->cpiStackTotal();
    s.hasCpi = true;
    if (mem_.mmu().enabled()) {
        s.hasVm = true;
        vm::VmStats v = mem_.mmu().stats();
        s.tlbWalks = v.walks;
        s.walkCycles = v.walkCycles;
    }
    return s;
}

Cycle
Simulator::watchdogWindow() const
{
    if (!cfg_.watchdog.enabled)
        return 0;
    if (cfg_.watchdog.noCommitWindow)
        return cfg_.watchdog.noCommitWindow;
    const LevelTable &table = activeTable();
    Cycle window = 2ULL * cfg_.mlp.memoryLatency *
                   table.at(table.maxLevel()).robSize;
    return std::max<Cycle>(window, 1);
}

DiagnosticDump
Simulator::diagnosticDump() const
{
    DiagnosticDump d;
    d.workload = workloadName_;
    d.model = modelName(cfg_.model);
    d.cycle = core_->cycle();
    d.committed = core_->committedInsts();
    d.lastCommitCycle = lastCommitCycle_;

    d.robEmpty = core_->robEmpty();
    d.robHeadSeq = core_->robHeadSeq();
    d.robHeadPc = core_->robHeadPc();
    d.robHeadCompleted = core_->robHeadCompleted();

    const LevelTable &table = activeTable();
    const ResourceLevel &cap = table.at(table.maxLevel());
    d.robOcc = core_->robOccupancy();
    d.robCap = cap.robSize;
    d.iqOcc = core_->iqOccupancy();
    d.iqCap = cap.iqSize;
    d.lsqOcc = core_->lsqOccupancy();
    d.lsqCap = cap.lsqSize;

    if (resize_) {
        d.level = resize_->level();
        d.allocStopped = resize_->allocStopped();
        d.inTransition = resize_->inTransition();
    } else {
        d.level = partition_->levelFor(0);
        d.allocStopped = partition_->anyAllocStopped();
        d.inTransition = partition_->inTransitionFor(0);
    }

    d.outstandingMisses = core_->outstandingL2Misses();
    Cycle bus_free = mem_.dram().busFreeAt();
    d.dramBacklog = bus_free > d.cycle
        ? static_cast<std::uint64_t>(bus_free - d.cycle) : 0;
    d.fetchHalted = core_->fetchHalted();

    // Tail of the event timeline, when a recorder is attached: the
    // grow/shrink/drain/runahead episodes leading up to the wedge.
    if (timeline_) {
        constexpr std::size_t kTail = 8;
        const std::deque<TimelineEvent> &events = timeline_->events();
        std::size_t first =
            events.size() > kTail ? events.size() - kTail : 0;
        for (std::size_t i = first; i < events.size(); ++i) {
            const TimelineEvent &e = events[i];
            std::ostringstream os;
            os << timelineEventKindName(e.kind);
            if (e.kind == TimelineEventKind::Grow ||
                e.kind == TimelineEventKind::Shrink)
                os << ' ' << e.fromLevel << "->" << e.toLevel;
            if (e.kind == TimelineEventKind::Runahead)
                os << " pc=0x" << std::hex << e.triggerPc << std::dec
                   << " misses=" << e.misses;
            os << " @[" << e.begin << ',' << e.end << ']';
            d.recentEvents.push_back(os.str());
        }
    }
    return d;
}

Status
Simulator::checkInvariants() const
{
    const LevelTable &table = activeTable();
    const ResourceLevel &cap = table.at(table.maxLevel());
    if (core_->robOccupancy() > cap.robSize)
        return Status::error(
            ErrorCode::InvariantViolation,
            "ROB occupancy " +
                std::to_string(core_->robOccupancy()) +
                " exceeds largest-level capacity " +
                std::to_string(cap.robSize));
    if (core_->iqOccupancy() > cap.iqSize)
        return Status::error(
            ErrorCode::InvariantViolation,
            "IQ occupancy " + std::to_string(core_->iqOccupancy()) +
                " exceeds largest-level capacity " +
                std::to_string(cap.iqSize));
    if (core_->lsqOccupancy() > cap.lsqSize)
        return Status::error(
            ErrorCode::InvariantViolation,
            "LSQ occupancy " + std::to_string(core_->lsqOccupancy()) +
                " exceeds largest-level capacity " +
                std::to_string(cap.lsqSize));
    // A miss entry outlives its load only until its fill cycle; a
    // count beyond every structure that can source misses means a
    // leaked entry (e.g. a bogus completion cycle).
    unsigned miss_bound = cap.robSize + cap.lsqSize + 64;
    if (core_->outstandingL2Misses() > miss_bound)
        return Status::error(
            ErrorCode::InvariantViolation,
            "outstanding L2-miss count " +
                std::to_string(core_->outstandingL2Misses()) +
                " exceeds plausibility bound " +
                std::to_string(miss_bound) + " (leaked entry?)");
    // Cycle-accounting invariant: every thread's CPI stack attributes
    // exactly one leaf per cycle since the measurement reset, so the
    // leaf counts must sum to the measured cycle count — exactly.
    const Cycle mc = core_->measuredCycles();
    for (unsigned tid = 0; tid < core_->nThreads(); ++tid) {
        std::uint64_t sum = core_->cpiStack(tid).sum();
        if (sum != mc)
            return Status::error(
                ErrorCode::InvariantViolation,
                "CPI stack of thread " + std::to_string(tid) +
                    " sums to " + std::to_string(sum) + " but " +
                    std::to_string(mc) +
                    " cycles were measured (cycle-accounting leak)");
    }
    return Status();
}

void
Simulator::abortRun(ErrorCode code, const std::string &why) const
{
    throw SimError(code,
                   why + " (workload " + workloadName_ + ", model " +
                       modelName(cfg_.model) + ", cycle " +
                       std::to_string(core_->cycle()) + ")",
                   diagnosticDump());
}

void
Simulator::abortDivergence(unsigned tid) const
{
    const LockstepChecker::Divergence &d =
        checkers_[tid]->divergence();
    DiagnosticDump dump = diagnosticDump();
    dump.hasDivergence = true;
    dump.divergenceThread = tid;
    dump.divergenceCommit = d.commitIndex;
    dump.divergencePc = d.pc;
    dump.divergenceField = d.field;
    dump.divergenceExpected = d.expected;
    dump.divergenceActual = d.actual;
    dump.divergenceInst = d.inst;

    std::ostringstream os;
    os << "lockstep divergence on thread " << tid << " at commit #"
       << d.commitIndex << ": pc 0x" << std::hex << d.pc << " ("
       << d.inst << ") field " << d.field << " expected 0x"
       << d.expected << ", got 0x" << d.actual << std::dec
       << " (workload " << workloadName_ << ", model "
       << modelName(cfg_.model) << ", cycle " << core_->cycle()
       << ")";
    throw SimError(ErrorCode::ArchDivergence, os.str(),
                   std::move(dump));
}

void
Simulator::pollWatchdog(Cycle window)
{
    if (window) {
        Status s = checkInvariants();
        if (!s.ok())
            abortRun(s.code(), s.message());
    }
    if (abortFlag_ && abortFlag_->load(std::memory_order_relaxed))
        abortRun(ErrorCode::Interrupted,
                 "run aborted by cancellation request");
    if (hasDeadline_ &&
        std::chrono::steady_clock::now() >= deadline_)
        abortRun(ErrorCode::Timeout,
                 "wall-clock budget exhausted");
}

void
Simulator::runUntil(std::uint64_t committed_target)
{
    std::uint64_t last_committed = core_->committedInsts();
    lastCommitCycle_ = core_->cycle();

    const Cycle window = watchdogWindow();
    const Cycle interval =
        std::max<Cycle>(cfg_.watchdog.checkInterval, 1);

    try {
        while (!core_->halted() &&
               core_->cycle() < cfg_.maxCycles &&
               (committed_target == 0 ||
                core_->committedInsts() < committed_target)) {
            stepCycle();

            const Cycle now = core_->cycle();
            if (core_->committedInsts() != last_committed) {
                last_committed = core_->committedInsts();
                lastCommitCycle_ = now;
            }
            // Drain tracking: allocation stopped for longer than the
            // watchdog window means a shrink (or transition) that can
            // never complete, even if the ROB keeps retiring
            // meanwhile.
            bool alloc_stopped = resize_
                ? resize_->allocStopped()
                : partition_->anyAllocStopped();
            if (alloc_stopped)
                ++allocStoppedRun_;
            else
                allocStoppedRun_ = 0;

            if (window) {
                if (now - lastCommitCycle_ > window)
                    abortRun(ErrorCode::NoProgress,
                             "no instruction committed for " +
                                 std::to_string(window) + " cycles");
                if (allocStoppedRun_ > window)
                    abortRun(ErrorCode::InvariantViolation,
                             "window resize drain still incomplete "
                             "after " +
                                 std::to_string(allocStoppedRun_) +
                                 " cycles of stopped allocation");
            }
            if (now % interval == 0)
                pollWatchdog(window);
        }
    } catch (const SimError &e) {
        if (e.hasDump())
            throw;
        // Structural invariants promoted out of the core throw bare
        // SimErrors; attach the machine-state dump and run identity
        // they could not build themselves.
        abortRun(e.code(), e.message());
    }
}

std::uint64_t
Simulator::fastForward(std::uint64_t n)
{
    if (n == 0 || core_->halted())
        return 0;
    mlpwin_assert(core_->nThreads() == 1);
    mlpwin_assert(core_->readyForFastForward());
    ScopedSpan span(SpanKind::FastForward);
    FastForwarder ff(core_->oracleForFastForward(), &mem_,
                     &core_->predictorForWarming());
    std::uint64_t done = ff.run(n);
    if (!checkers_.empty())
        checkers_[0]->skip(done);
    core_->resumeAfterFastForward();
    return done;
}

void
Simulator::drainPipeline()
{
    ScopedSpan span(SpanKind::Drain);
    core_->setFetchPaused(true);
    const Cycle window = watchdogWindow();
    const Cycle limit = window ? window : 1'000'000;
    const Cycle start = core_->cycle();
    while (!core_->readyForFastForward() && !core_->halted()) {
        stepCycle();
        if (core_->cycle() - start > limit)
            abortRun(ErrorCode::NoProgress,
                     "pipeline drain toward a fast-forward boundary "
                     "did not complete within " +
                         std::to_string(limit) + " cycles");
    }
    core_->setFetchPaused(false);
}

PollutionStats
Simulator::warmupPhase()
{
    PollutionStats pollution_base;

    // Warm-up phase: execute unmeasured instructions, then zero every
    // statistic. Stands in for the paper's 16G-instruction skip.
    // Sampled runs always warm up functionally — their whole premise
    // is that detailed cycles are spent only where measured. SMT runs
    // always warm up in detail: the functional fast-forward drives a
    // single oracle.
    if (cfg_.warmupInsts > 0 && !core_->halted()) {
        ScopedSpan span(SpanKind::Warmup);
        bool functional = (cfg_.functionalWarmup ||
                           cfg_.sampling.enabled) &&
                          core_->nThreads() == 1;
        if (functional)
            fastForward(cfg_.warmupInsts);
        else
            runUntil(core_->committedInsts() + cfg_.warmupInsts);
        stats_.resetAll();
        core_->resetMeasurement();
        if (resize_)
            resize_->resetMeasurement();
        else
            partition_->resetMeasurement();
        if (sampler_)
            sampler_->notifyReset(core_->cycle());
        pollution_base = mem_.l2().pollution();
    }
    return pollution_base;
}

SimResult
Simulator::run()
{
    if (cfg_.sampling.enabled)
        return runSampled();

    PollutionStats pollution_base = warmupPhase();
    std::uint64_t target = cfg_.maxInsts
        ? core_->committedInsts() + cfg_.maxInsts : 0;
    runUntil(target);
    return collectResult(pollution_base);
}

SimResult
Simulator::runSampled()
{
    const SamplingConfig &sc = cfg_.sampling;
    PollutionStats pollution_base = warmupPhase();

    // In sampled mode maxInsts bounds the total post-warm-up
    // instructions, fast-forwarded and detailed together, so a
    // sampled cell covers the same program region as a full-detail
    // cell with the same budget.
    const std::uint64_t budget = cfg_.maxInsts;
    const std::uint64_t burst =
        sc.detailedWarmupInsts + sc.intervalInsts;

    while (!core_->halted()) {
        std::uint64_t used =
            sampling_->ffInsts() + core_->committedInsts();
        if (budget && used >= budget)
            break;
        std::uint64_t remaining = budget ? budget - used : 0;
        if (budget && remaining <= burst) {
            // The tail cannot fit a warm-up burst plus a full
            // interval; finish it in detail, unmeasured.
            runUntil(core_->committedInsts() + remaining);
            break;
        }

        std::uint64_t ff_len = sc.ffInstsPerPeriod();
        if (budget)
            ff_len = std::min(ff_len, remaining - burst);
        if (ff_len) {
            sampling_->recordFastForward(fastForward(ff_len));
            if (core_->halted())
                break;
        }

        // Detailed warm-up burst: unmeasured detailed execution that
        // rebuilds the in-flight state (ROB/IQ/MSHR occupancy)
        // functional warming cannot reconstruct.
        runUntil(core_->committedInsts() + sc.detailedWarmupInsts);
        if (core_->halted())
            break;

        const Cycle c0 = core_->cycle();
        const std::uint64_t i0 = core_->committedInsts();
        runUntil(i0 + sc.intervalInsts);
        std::uint64_t insts = core_->committedInsts() - i0;
        // A full interval may overshoot by up to commit-width-1
        // instructions in its final cycle; the overshoot stays in the
        // interval's own IPC. Short intervals (Halt mid-measurement)
        // are discarded: they would bias the per-interval population.
        if (insts >= sc.intervalInsts)
            sampling_->recordInterval(insts, core_->cycle() - c0);

        // Return to an architectural boundary so the next period can
        // fast-forward. Drain cycles are outside the measured deltas.
        drainPipeline();
    }

    sampling_->finalize();
    SimResult r = collectResult(pollution_base);
    r.sampled = true;
    r.sampleIntervals = sampling_->intervals();
    r.ffInsts = sampling_->ffInsts();
    r.ipcCi95 = sampling_->ipcCi95();
    if (r.sampleIntervals > 0)
        r.ipc = sampling_->ipcMean();
    return r;
}

SimResult
Simulator::collectResult(const PollutionStats &pollution_base)
{
    // End-of-run full-state verification: registers, PC, and the
    // complete sparse memory image, per thread. Only meaningful at
    // Halt — before that, committed stores may legitimately still sit
    // in the store buffer ahead of functional memory.
    if (!checkers_.empty() && core_->halted()) {
        for (unsigned tid = 0; tid < checkers_.size(); ++tid) {
            Status s = checkers_[tid]->verifyFinalState(
                core_->oracle(tid), fmems_[tid]);
            if (!s.ok())
                abortRun(s.code(),
                         "thread " + std::to_string(tid) + ": " +
                             s.message());
        }
    }

    // Flush the trailing partial interval and close any open episode.
    if (sampler_)
        sampler_->finish(snapshot());
    if (timeline_)
        timeline_->finish(core_->cycle());

    SimResult r;
    r.workload = workloadName_;
    r.model = modelName(cfg_.model);
    r.halted = core_->halted();
    r.cycles = core_->measuredCycles();
    r.committed = core_->committedInsts();
    r.ipc = core_->ipc();
    r.avgLoadLatency = core_->avgLoadLatency();
    r.observedMlp = core_->observedMlp();
    r.committedBranches = core_->committedBranches();
    r.committedMispredicts = core_->committedMispredicts();
    r.squashed = core_->squashedInsts();
    r.l2DemandMisses = mem_.l2DemandMisses();
    r.l2Pollution = mem_.l2().pollution();
    for (unsigned p = 0; p < kNumProvenances; ++p) {
        r.l2Pollution.brought[p] -= std::min(
            pollution_base.brought[p], r.l2Pollution.brought[p]);
        r.l2Pollution.useful[p] -= std::min(
            pollution_base.useful[p], r.l2Pollution.useful[p]);
    }
    if (resize_) {
        r.cyclesAtLevel = resize_->residency().cyclesAtLevel;
    } else {
        // Element-wise sum of the per-thread level residencies: total
        // thread-cycles spent at each level.
        r.cyclesAtLevel.assign(activeTable().maxLevel(), 0);
        for (unsigned tid = 0; tid < core_->nThreads(); ++tid) {
            const LevelResidency &res = partition_->residencyFor(tid);
            for (std::size_t l = 0;
                 l < res.cyclesAtLevel.size() &&
                 l < r.cyclesAtLevel.size();
                 ++l)
                r.cyclesAtLevel[l] += res.cyclesAtLevel[l];
        }
    }
    r.runaheadEpisodes = core_->runaheadEpisodes();
    r.runaheadUseless = core_->runaheadUselessEpisodes();
    r.vmEnabled = mem_.mmu().enabled();
    if (r.vmEnabled)
        r.vm = mem_.mmu().stats();
    r.archRegChecksum = core_->oracle().regs().checksum();

    r.nThreads = core_->nThreads();
    r.fetchPolicy = fetchPolicyName(cfg_.core.smt.fetchPolicy);
    r.partitionPolicy =
        partitionPolicyName(cfg_.core.smt.partitionPolicy);
    const Cycle mc = core_->measuredCycles();
    for (unsigned tid = 0; tid < core_->nThreads(); ++tid) {
        const ThreadContext &t = core_->thread(tid);
        r.threadCommitted.push_back(t.committedMeasured);
        r.threadIpc.push_back(
            mc ? static_cast<double>(t.committedMeasured) / mc : 0.0);
        r.threadObservedMlp.push_back(t.observedMlp());
        r.threadCpi.push_back(t.cpi);
        r.threadCommitHash.push_back(
            tid < checkers_.size() && checkers_[tid]
                ? checkers_[tid]->streamHash() : 0);
    }
    if (r.nThreads == 1) {
        // Single-thread runs keep the original fingerprint exactly.
        r.commitStreamHash = checkers_.empty()
            ? 0 : checkers_[0]->streamHash();
    } else if (!checkers_.empty()) {
        // FNV-1a fold of the per-thread stream hashes.
        std::uint64_t h = 0xcbf29ce484222325ULL;
        for (std::uint64_t th : r.threadCommitHash) {
            h ^= th;
            h *= 0x100000001b3ULL;
        }
        r.commitStreamHash = h;
    }

    EnergyInputs &e = r.energyInputs;
    e.cycles = r.cycles;
    e.fetched = core_->fetchedInsts();
    e.dispatched = r.committed + r.squashed; // Window allocations.
    e.issued = core_->issuedInsts();
    e.committed = r.committed;
    e.loads = core_->committedLoads();
    e.stores = core_->committedStores();
    e.l1iAccesses = mem_.l1i().accesses();
    e.l1dAccesses = mem_.l1d().accesses();
    e.l2Accesses = mem_.l2().accesses();
    e.dramAccesses = mem_.dram().numReads() + mem_.dram().numWritebacks();
    e.iqSizeCycles = core_->iqSizeCycles();
    e.robSizeCycles = core_->robSizeCycles();
    e.lsqSizeCycles = core_->lsqSizeCycles();

    EnergyModel em;
    r.energyTotal = em.evaluate(e).total();
    r.edp = em.edp(e);
    return r;
}

std::uint64_t
configFingerprint(const SimConfig &cfg)
{
    // FNV-1a over every identity field of the registry, in registry
    // order, so the fingerprint is stable across runs and hosts.
    std::uint64_t h = 0xcbf29ce484222325ULL;
    auto fold = [&h](const char *, const auto &ref, auto, auto,
                     FieldRole role) {
        if (role != FieldRole::Identity)
            return;
        const std::uint64_t v = fieldBits(ref);
        for (unsigned i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ULL;
        }
    };
    visitFields(cfg, fold);
    return h;
}

std::vector<std::string>
splitWorkloadSpec(const std::string &name)
{
    std::vector<std::string> parts;
    std::string cur;
    for (char c : name) {
        if (c == '+') {
            parts.push_back(cur);
            cur.clear();
        } else {
            cur += c;
        }
    }
    parts.push_back(cur);
    return parts;
}

SimResult
runWorkload(const std::string &name, const SimConfig &cfg,
            std::uint64_t iterations)
{
    std::vector<std::string> parts = splitWorkloadSpec(name);
    unsigned n = cfg.core.smt.nThreads;
    if (parts.size() == 1 && n > 1) {
        // A single name on an SMT config co-schedules n copies.
        parts.assign(n, parts[0]);
    }
    if (parts.size() != n) {
        throw SimError(ErrorCode::InvalidArgument,
                       "workload spec '" + name + "' names " +
                           std::to_string(parts.size()) +
                           " programs but the configuration has " +
                           std::to_string(n) + " threads");
    }
    std::vector<Program> progs;
    progs.reserve(parts.size());
    for (const std::string &part : parts) {
        const WorkloadSpec &spec = findWorkload(part);
        progs.push_back(spec.make(iterations));
    }
    Simulator sim(cfg, progs);
    return sim.run();
}

} // namespace mlpwin
