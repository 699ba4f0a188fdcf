/**
 * @file
 * Command-line simulator driver: run any suite workload under any
 * model with overridable parameters and print the result (and
 * optionally every internal statistic).
 *
 * Usage:
 *   mlpwin --list
 *   mlpwin --workload soplex --model resizing --insts 300000
 *   mlpwin -w gcc -m fixed --level 3 --stats
 *   mlpwin -w lbm -m resizing --mem-latency 500 --penalty 30
 *
 * Exit code 0 on success; 2 on a usage error; 3 if the run aborted
 * with a SimError (watchdog, invariant violation) — the diagnostic
 * dump is printed to stderr.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "common/parse.hh"
#include "cpu/tracer.hh"
#include "profile/profiler.hh"
#include "sim/config_flags.hh"
#include "sim/simulator.hh"
#include "smt/metrics.hh"
#include "telemetry/export.hh"
#include "workloads/suite.hh"

using namespace mlpwin;

namespace
{

void
usage()
{
    std::fprintf(stderr,
        "usage: mlpwin [options]\n"
        "  --list                 list suite workloads and exit\n"
        "  -w, --workload NAME    workload to run (required); on SMT\n"
        "                         runs a '+'-separated co-schedule,\n"
        "                         e.g. mcf+gcc (a single name is\n"
        "                         replicated onto every thread)\n"
        "  -m, --model NAME       base|fixed|ideal|resizing|runahead|"
        "occupancy (default base)\n"
        "      --threads N        hardware threads, 1-4 (default 1;\n"
        "                         >1 requires the base model)\n"
        "      --fetch-policy K   rr|icount|predictive (default\n"
        "                         icount)\n"
        "      --partition K      static|shared|mlp per-thread window\n"
        "                         partitioning (default static)\n"
        "      --fairness         also run every co-scheduled program\n"
        "                         alone (same budget) and report\n"
        "                         STP/ANTT/harmonic speedup\n"
        "      --level N          level for fixed/ideal models "
        "(default 3)\n"
        "      --insts N          measured instructions "
        "(default 300000)\n"
        "      --warmup N         warm-up instructions "
        "(default 100000)\n"
        "      --no-functional-warmup\n"
        "                         run the warm-up on the detailed\n"
        "                         core instead of the functional\n"
        "                         emulator (slower; pre-sampling\n"
        "                         behaviour)\n"
        "      --ckpt FILE        resume from an architectural\n"
        "                         checkpoint (see mlpwin_ckpt)\n"
        "      --sample-interval N\n"
        "                         enable SMARTS sampling: measure N\n"
        "                         instructions in detail per period\n"
        "      --sample-period N  sampling period (fast-forward +\n"
        "                         warm-up + interval; default 20000)\n"
        "      --detailed-warmup N\n"
        "                         detailed pre-interval warm-up burst\n"
        "                         (default 1000)\n"
        "      --no-warm-caches   start with cold I/D caches\n"
        "      --mem-latency N    DRAM minimum latency, cycles\n"
        "      --penalty N        level-transition penalty, cycles\n"
        "      --no-prefetch      disable the data prefetcher\n"
        "%s"
        "      --check            run the lockstep architectural\n"
        "                         checker alongside the core; abort\n"
        "                         with a divergence dump on the first\n"
        "                         mismatched commit\n"
        "      --prefetcher K     stride (default) or stream\n"
        "      --watchdog-cycles N\n"
        "                         abort after N cycles without a\n"
        "                         commit (default 0 = auto: 2 x\n"
        "                         memory latency x max ROB size)\n"
        "      --no-watchdog      disable the forward-progress\n"
        "                         watchdog\n"
        "      --debug-wedge-at N (testing) stall the commit stage\n"
        "                         from cycle N on, to exercise the\n"
        "                         watchdog\n"
        "      --stats            dump every internal statistic\n"
        "      --stats-json FILE  write every statistic as JSON\n"
        "      --telemetry FILE   write interval telemetry time\n"
        "                         series as JSON Lines\n"
        "      --telemetry-interval N\n"
        "                         sampling interval, cycles, >= 1\n"
        "                         (default 10000)\n"
        "      --profile          enable the host self-profiler:\n"
        "                         print a host-time table per span\n"
        "                         kind after the run and merge host\n"
        "                         spans into the --timeline trace\n"
        "                         (pid 1)\n"
        "      --timeline FILE    write resize/runahead/drain event\n"
        "                         timeline as Chrome trace_event\n"
        "                         JSON (chrome://tracing, Perfetto)\n"
        "      --trace CATS       pipeline trace to stderr; CATS is\n"
        "                         'all' or a comma list of fetch,\n"
        "                         dispatch,issue,complete,commit,\n"
        "                         squash,resize,runahead\n"
        "      --trace-start N    first cycle to trace (default 0)\n",
        vmFlagsUsage());
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workload;
    SimConfig cfg;
    cfg.model = ModelKind::Base;
    cfg.fixedLevel = 3;
    cfg.warmupInsts = kDefaultWarmupInsts;
    cfg.functionalWarmup = true;
    cfg.warmDataCaches = true;
    cfg.maxInsts = 300000;
    bool dump_stats = false;
    bool fairness = false;
    bool profile = false;
    unsigned trace_mask = 0;
    Cycle trace_start = 0;
    std::string telemetry_path;
    std::string timeline_path;
    std::string stats_json_path;
    std::string ckpt_path;
    Cycle telemetry_interval = kDefaultTelemetryInterval;

    for (ArgCursor args(argc, argv); args.next();) {
        const std::string &arg = args.arg();
        if (arg == "--list") {
            std::printf("%-12s %5s  %s\n", "name", "type", "category");
            for (const WorkloadSpec &w : spec2006Suite())
                std::printf("%-12s %5s  %s\n", w.name.c_str(),
                            w.isInt ? "int" : "fp",
                            w.memIntensive ? "memory-intensive"
                                           : "compute-intensive");
            return 0;
        } else if (arg == "-w" || arg == "--workload") {
            workload = args.value();
        } else if (arg == "-m" || arg == "--model") {
            std::string name = args.value();
            if (!parseModelName(name, cfg.model)) {
                std::fprintf(stderr, "unknown model: %s\n",
                             name.c_str());
                return 2;
            }
        } else if (parseConfigFlag(args, ConfigFlagSet::All, cfg)) {
            // Applied to cfg; a bad value exits 2.
        } else if (arg == "--fairness") {
            fairness = true;
        } else if (arg == "--level") {
            cfg.fixedLevel = static_cast<unsigned>(args.number());
        } else if (arg == "--ckpt") {
            ckpt_path = args.value();
        } else if (arg == "--mem-latency") {
            unsigned lat = static_cast<unsigned>(args.number());
            cfg.mem.dram.minLatency = lat;
            cfg.mlp.memoryLatency = lat;
        } else if (arg == "--penalty") {
            cfg.mlp.transitionPenalty = static_cast<unsigned>(args.number());
        } else if (arg == "--no-prefetch") {
            cfg.mem.prefetcher.enabled = false;
        } else if (arg == "--debug-wedge-at") {
            cfg.core.debugStallCommitAt = args.number();
        } else if (arg == "--prefetcher") {
            std::string kind = args.value();
            if (kind == "stride") {
                cfg.mem.prefetcher.kind = PrefetcherKind::Stride;
            } else if (kind == "stream") {
                cfg.mem.prefetcher.kind = PrefetcherKind::Stream;
            } else {
                std::fprintf(stderr, "unknown prefetcher: %s\n",
                             kind.c_str());
                return 2;
            }
        } else if (arg == "--stats") {
            dump_stats = true;
        } else if (arg == "--stats-json") {
            stats_json_path = args.value();
        } else if (arg == "--telemetry") {
            telemetry_path = args.value();
        } else if (arg == "--telemetry-interval") {
            const char *v = args.value();
            if (!parseBoundedU64(v, 1, UINT64_MAX,
                                 telemetry_interval)) {
                std::fprintf(stderr,
                             "--telemetry-interval: expected an "
                             "integer >= 1, got '%s'\n",
                             v);
                return 2;
            }
        } else if (arg == "--profile") {
            profile = true;
        } else if (arg == "--timeline") {
            timeline_path = args.value();
        } else if (arg == "--trace") {
            std::string err;
            trace_mask = parseTraceCategories(args.value(), &err);
            if (!err.empty()) {
                std::fprintf(stderr, "--trace: %s\n", err.c_str());
                return 2;
            }
        } else if (arg == "--trace-start") {
            trace_start = args.number();
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage();
            return 2;
        }
    }

    if (workload.empty()) {
        usage();
        return 2;
    }
    // Cross-field MMU constraints (entries divisible by assoc, ...)
    // are usage errors too, caught here rather than as a SimError
    // mid-construction.
    std::string vm_err = cfg.vm.validate();
    if (!vm_err.empty()) {
        std::fprintf(stderr, "%s\n", vm_err.c_str());
        return 2;
    }

    // Enable before any checkpoint load / construction so the coarse
    // host spans (CheckpointLoad, Warmup, ...) are captured too.
    if (profile)
        Profiler::instance().setEnabled(true);

    std::vector<std::string> parts = splitWorkloadSpec(workload);
    if (parts.size() == 1 && cfg.core.smt.nThreads > 1)
        parts.assign(cfg.core.smt.nThreads, parts[0]);
    if (parts.size() != cfg.core.smt.nThreads) {
        std::fprintf(stderr,
                     "--workload: '%s' names %zu programs but "
                     "--threads is %u\n",
                     workload.c_str(), parts.size(),
                     cfg.core.smt.nThreads);
        return 2;
    }
    std::vector<const WorkloadSpec *> specs;
    std::vector<Program> progs;
    for (const std::string &part : parts) {
        const WorkloadSpec *wspec = tryFindWorkload(part);
        if (!wspec) {
            std::fprintf(stderr,
                         "unknown workload: %s\nvalid names: %s\n",
                         part.c_str(), suiteWorkloadNames().c_str());
            return 2;
        }
        specs.push_back(wspec);
        progs.push_back(wspec->make(1ull << 40));
    }
    const WorkloadSpec &spec = *specs[0];
    std::unique_ptr<ArchCheckpoint> ckpt;
    if (!ckpt_path.empty()) {
        try {
            ckpt = std::make_unique<ArchCheckpoint>(
                ArchCheckpoint::loadFile(ckpt_path));
        } catch (const SimError &e) {
            std::fprintf(stderr, "--ckpt: %s\n", e.what());
            return 2;
        }
        cfg.startCheckpoint = ckpt.get();
    }
    std::unique_ptr<Simulator> simp;
    try {
        simp = std::make_unique<Simulator>(cfg, progs);
    } catch (const SimError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
    Simulator &sim = *simp;
    std::unique_ptr<PipelineTracer> tracer;
    if (trace_mask) {
        tracer = std::make_unique<PipelineTracer>(std::cerr,
                                                  trace_mask,
                                                  trace_start);
        sim.setTracer(tracer.get());
    }
    std::unique_ptr<IntervalSampler> sampler;
    if (!telemetry_path.empty()) {
        sampler = std::make_unique<IntervalSampler>(telemetry_interval);
        sim.setSampler(sampler.get());
    }
    std::unique_ptr<EventTimeline> timeline;
    if (!timeline_path.empty()) {
        timeline = std::make_unique<EventTimeline>();
        sim.setTimeline(timeline.get());
    }
    SimResult r;
    try {
        r = sim.run();
    } catch (const SimError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        if (e.hasDump())
            std::fprintf(stderr, "diagnostic dump:\n%s",
                         e.dump().pretty().c_str());
        return 3;
    }

    // Fairness baselines: each co-scheduled program alone on the
    // single-thread core, same instruction budget.
    std::vector<double> alone_ipc;
    if (fairness && r.nThreads > 1) {
        SimConfig alone_cfg = cfg;
        alone_cfg.core.smt = SmtConfig{};
        for (std::size_t i = 0; i < parts.size(); ++i) {
            try {
                Simulator alone(alone_cfg,
                                specs[i]->make(1ull << 40));
                alone_ipc.push_back(alone.run().ipc);
            } catch (const SimError &e) {
                std::fprintf(stderr, "error (alone run %s): %s\n",
                             parts[i].c_str(), e.what());
                return 3;
            }
        }
        r.stp = stp(r.threadIpc, alone_ipc);
        r.antt = antt(r.threadIpc, alone_ipc);
        r.hmeanSpeedup = harmonicSpeedup(r.threadIpc, alone_ipc);
    }

    if (sampler) {
        std::ofstream os(telemetry_path);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n",
                         telemetry_path.c_str());
            return 1;
        }
        writeTelemetryJsonl(os, *sampler);
    }
    if (timeline) {
        std::ofstream os(timeline_path);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n",
                         timeline_path.c_str());
            return 1;
        }
        writeChromeTrace(os, *timeline,
                         workload + "." + modelName(cfg.model),
                         profile
                             ? Profiler::instance().traceEvents()
                             : std::vector<std::string>{});
    }
    if (!stats_json_path.empty()) {
        std::ofstream os(stats_json_path);
        if (!os) {
            std::fprintf(stderr, "cannot open %s\n",
                         stats_json_path.c_str());
            return 1;
        }
        sim.stats().dumpJson(os);
        os << '\n';
    }

    std::printf("workload            %s (%s)\n", r.workload.c_str(),
                spec.memIntensive ? "memory-intensive"
                                  : "compute-intensive");
    std::printf("model               %s", r.model.c_str());
    if (cfg.model == ModelKind::Fixed || cfg.model == ModelKind::Ideal)
        std::printf(" (level %u)", cfg.fixedLevel);
    std::printf("\n");
    if (r.nThreads > 1) {
        std::printf("SMT                 %u threads, fetch %s, "
                    "partition %s\n",
                    r.nThreads, r.fetchPolicy.c_str(),
                    r.partitionPolicy.c_str());
        for (std::size_t t = 0; t < r.threadIpc.size(); ++t)
            std::printf("  thread %zu          %-10s IPC %.4f "
                        "(%llu committed, MLP %.2f)\n",
                        t, parts[t].c_str(), r.threadIpc[t],
                        static_cast<unsigned long long>(
                            r.threadCommitted[t]),
                        r.threadObservedMlp[t]);
        if (!alone_ipc.empty())
            std::printf("fairness            STP %.3f  ANTT %.3f  "
                        "hmean speedup %.3f\n",
                        r.stp, r.antt, r.hmeanSpeedup);
    }
    std::printf("committed insts     %llu\n",
                static_cast<unsigned long long>(r.committed));
    std::printf("cycles              %llu\n",
                static_cast<unsigned long long>(r.cycles));
    if (r.sampled) {
        std::printf("IPC                 %.4f +/- %.4f (95%% CI, "
                    "%llu intervals)\n",
                    r.ipc, r.ipcCi95,
                    static_cast<unsigned long long>(r.sampleIntervals));
        std::printf("fast-forwarded      %llu insts (functional)\n",
                    static_cast<unsigned long long>(r.ffInsts));
    } else {
        std::printf("IPC                 %.4f\n", r.ipc);
    }
    std::printf("avg load latency    %.1f cycles\n", r.avgLoadLatency);
    std::printf("observed MLP        %.2f\n", r.observedMlp);
    std::printf("L2 demand misses    %llu\n",
                static_cast<unsigned long long>(r.l2DemandMisses));
    std::printf("branch mispredicts  %llu (1 per %.0f insts)\n",
                static_cast<unsigned long long>(r.committedMispredicts),
                r.instsPerMispredict());
    std::printf("squashed insts      %llu\n",
                static_cast<unsigned long long>(r.squashed));
    if (!r.cyclesAtLevel.empty()) {
        std::uint64_t total = 0;
        for (std::uint64_t c : r.cyclesAtLevel)
            total += c;
        std::printf("level residency    ");
        for (std::size_t l = 0; l < r.cyclesAtLevel.size(); ++l)
            std::printf(" L%zu %.1f%%", l + 1,
                        total ? 100.0 *
                                    static_cast<double>(
                                        r.cyclesAtLevel[l]) /
                                    static_cast<double>(total)
                              : 0.0);
        std::printf("\n");
    }
    if (cfg.model == ModelKind::Runahead)
        std::printf("runahead episodes   %llu (%llu useless)\n",
                    static_cast<unsigned long long>(r.runaheadEpisodes),
                    static_cast<unsigned long long>(r.runaheadUseless));
    std::printf("energy (model pJ)   %.3e   EDP %.3e\n", r.energyTotal,
                r.edp);

    // CPI stack: every measured cycle attributed to exactly one leaf,
    // so each thread's row sums to 100%.
    for (std::size_t t = 0; t < r.threadCpi.size(); ++t) {
        const CpiStack &cpi = r.threadCpi[t];
        std::uint64_t total = cpi.sum();
        if (r.threadCpi.size() > 1)
            std::printf("cpi stack (t%zu)     ", t);
        else
            std::printf("cpi stack          ");
        for (std::size_t i = 0; i < kNumCpiComponents; ++i) {
            if (!cpi.counts[i])
                continue;
            std::printf(" %s %.1f%%",
                        cpiComponentName(
                            static_cast<CpiComponent>(i)),
                        total ? 100.0 *
                                    static_cast<double>(
                                        cpi.counts[i]) /
                                    static_cast<double>(total)
                              : 0.0);
        }
        std::printf("\n");
    }

    if (profile) {
        const auto agg = Profiler::instance().aggregate();
        double total_ns = 0.0;
        for (const SpanAggregate &a : agg)
            total_ns += static_cast<double>(a.totalNs);
        std::printf("\n---- host self-profile ----\n");
        std::printf("%-16s %12s %14s %7s\n", "span", "count",
                    "total ms", "share");
        for (std::size_t i = 0; i < kNumSpanKinds; ++i) {
            if (!agg[i].count)
                continue;
            std::printf("%-16s %12llu %14.3f %6.1f%%\n",
                        spanKindName(static_cast<SpanKind>(i)),
                        static_cast<unsigned long long>(agg[i].count),
                        static_cast<double>(agg[i].totalNs) / 1e6,
                        total_ns
                            ? 100.0 *
                                  static_cast<double>(agg[i].totalNs) /
                                  total_ns
                            : 0.0);
        }
        if (Profiler::instance().droppedRecords())
            std::printf("(%llu span records dropped)\n",
                        static_cast<unsigned long long>(
                            Profiler::instance().droppedRecords()));
    }

    if (dump_stats) {
        std::printf("\n---- all statistics ----\n");
        sim.dumpStats(std::cout);
    }
    return 0;
}
