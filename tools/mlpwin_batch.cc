/**
 * @file
 * Parallel batch experiment driver: expand a (workloads x models)
 * run matrix, simulate every cell concurrently across host cores,
 * and emit machine-readable results (JSON Lines and/or CSV) in
 * deterministic submission order — byte-identical for any -j.
 *
 * Fault tolerance: each cell is contained — a wedged core is cut
 * short by the forward-progress watchdog, a crash or timeout is
 * recorded per cell while the rest of the batch completes, transient
 * I/O failures retry with backoff, and every finished cell is
 * checkpointed to <out>.ckpt so an interrupted batch resumes with
 * --resume (final output byte-identical to an uninterrupted run).
 * SIGINT/SIGTERM stop new cells and drain in-flight ones; a second
 * signal aborts in-flight simulations at their next watchdog poll.
 *
 * Usage:
 *   mlpwin_batch --workloads all --models base,resizing -j 8 \
 *       --out results.jsonl
 *   mlpwin_batch --workloads mem --models base,fixed:2,fixed:3 \
 *       --insts 100000 --csv results.csv
 *   mlpwin_batch --workloads all --models base,resizing \
 *       --out results.jsonl --resume   # after an interruption
 *
 * Exit codes: 0 success; 1 internal error; 2 usage error; 3 at least
 * one cell failed or timed out; 4 interrupted (cells skipped).
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "cache/result_cache.hh"
#include "common/parse.hh"
#include "exp/experiment.hh"
#include "exp/result_writer.hh"
#include "serve/fault_inject.hh"
#include "serve/supervisor.hh"
#include "sim/config_flags.hh"
#include "workloads/suite.hh"

using namespace mlpwin;

namespace
{

/** Signals received so far; the handler only does atomic stores. */
volatile std::sig_atomic_t g_signals = 0;
/** Second signal: hard-abort in-flight simulations. */
std::atomic<bool> g_abort{false};

extern "C" void
onSignal(int)
{
    if (g_signals >= 1)
        g_abort.store(true);
    g_signals = g_signals + 1;
}

void
usage()
{
    std::fprintf(stderr,
        "usage: mlpwin_batch [options]\n"
        "  --list                list suite workloads and exit\n"
        "  --workloads LIST      all | mem | comp | comma list of\n"
        "                        names (default all); an entry may be\n"
        "                        a '+'-separated SMT co-schedule,\n"
        "                        e.g. mcf+gcc (needs --threads)\n"
        "  --threads N           hardware threads per cell, 1-4\n"
        "                        (default 1; >1 requires base model)\n"
        "  --fetch-policy K      rr|icount|predictive (default\n"
        "                        icount)\n"
        "  --partition K         static|shared|mlp (default static)\n"
        "  --models LIST         comma list of model[:level], e.g.\n"
        "                        base,resizing,fixed:3\n"
        "                        (default base,resizing)\n"
        "  -j, --jobs N          worker threads (default: one per\n"
        "                        hardware thread)\n"
        "  --out FILE            JSON Lines output ('-' = stdout;\n"
        "                        default -)\n"
        "  --csv FILE            also write CSV to FILE\n"
        "  --insts N             measured instructions per run\n"
        "                        (default 300000)\n"
        "  --warmup N            warm-up instructions (default "
        "100000)\n"
        "  --no-functional-warmup\n"
        "                        run warm-ups on the detailed core\n"
        "                        instead of the functional emulator\n"
        "  --ckpt-dir DIR        resume every cell from an\n"
        "                        architectural checkpoint\n"
        "                        DIR/<workload>.ckpt (see\n"
        "                        mlpwin_ckpt --all)\n"
        "  --cache-dir DIR       content-addressed result cache:\n"
        "                        cells already simulated (by any\n"
        "                        batch or daemon sharing DIR) adopt\n"
        "                        their verified cached result; fresh\n"
        "                        cells are stored back. Corrupt\n"
        "                        entries are quarantined and\n"
        "                        re-simulated (see mlpwin_cachectl)\n"
        "  --sample-interval N   enable SMARTS sampling: measure N\n"
        "                        instructions in detail per period\n"
        "  --sample-period N     sampling period (default 20000)\n"
        "  --detailed-warmup N   detailed pre-interval warm-up burst\n"
        "                        (default 1000)\n"
        "  --no-warm-caches      start with cold I/D caches\n"
        "  --check               run every cell with the lockstep\n"
        "                        architectural checker attached\n"
        "%s"
        "  --telemetry-dir DIR   per-job interval telemetry + event\n"
        "                        timeline files, written as\n"
        "                        DIR/<workload>.<model>.telemetry."
        "jsonl\n"
        "                        and DIR/<workload>.<model>.trace."
        "json\n"
        "  --telemetry-interval N\n"
        "                        sampling interval, cycles (default "
        "10000)\n"
        "  --resume              skip cells already completed in\n"
        "                        FILE.ckpt (requires --out FILE)\n"
        "  --retries N           attempts per cell for transient\n"
        "                        (I/O) failures (default 2)\n"
        "  --job-timeout SECS    wall-clock budget per cell\n"
        "                        (default 0 = unlimited)\n"
        "  --isolate             run every cell in a supervised\n"
        "                        worker process: a SIGSEGV, SIGKILL,\n"
        "                        or wedge in one cell cannot kill\n"
        "                        the batch (-j = worker processes)\n"
        "  --worker-bin PATH     worker binary (default:\n"
        "                        mlpwin_worker next to this "
        "executable)\n"
        "  --heartbeat-timeout SECS\n"
        "                        kill a worker silent for SECS while\n"
        "                        a cell is in flight (default 10)\n"
        "  --max-dispatch N      dispatches per cell before a\n"
        "                        worker-killing cell is quarantined\n"
        "                        (default 3)\n"
        "  --inject SPEC         fault-injection spec (tests/CI; see\n"
        "                        EXPERIMENTS.md), e.g. segv@0 or\n"
        "                        torn@1#*; worker kinds need\n"
        "                        --isolate, the cache kinds\n"
        "                        (bitflip/trunc/staleschema) need\n"
        "                        --cache-dir; env MLPWIN_FAULT_SPEC\n"
        "                        works too\n"
        "  --watchdog-cycles N   abort a cell after N cycles without\n"
        "                        a commit (default 0 = auto: 2 x\n"
        "                        memory latency x max ROB size)\n"
        "  --no-watchdog         disable the forward-progress\n"
        "                        watchdog\n"
        "  --quiet               suppress per-job progress on "
        "stderr\n",
        vmFlagsUsage());
}

std::vector<std::string>
splitList(const std::string &s)
{
    std::vector<std::string> out;
    std::size_t start = 0;
    while (start <= s.size()) {
        std::size_t comma = s.find(',', start);
        if (comma == std::string::npos)
            comma = s.size();
        if (comma > start)
            out.push_back(s.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

bool
resolveWorkloads(const std::string &arg, std::vector<std::string> &out)
{
    if (arg == "all" || arg.empty()) {
        for (const WorkloadSpec &w : spec2006Suite())
            out.push_back(w.name);
        return true;
    }
    if (arg == "mem" || arg == "comp") {
        bool want_mem = arg == "mem";
        for (const WorkloadSpec &w : spec2006Suite())
            if (w.memIntensive == want_mem)
                out.push_back(w.name);
        return true;
    }
    for (const std::string &name : splitList(arg)) {
        // SMT co-schedules validate per '+'-part.
        for (const std::string &part : splitWorkloadSpec(name)) {
            if (!tryFindWorkload(part)) {
                std::fprintf(stderr,
                             "unknown workload: %s\nvalid names: "
                             "%s\n",
                             part.c_str(),
                             suiteWorkloadNames().c_str());
                return false;
            }
        }
        out.push_back(name);
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string workloads_arg = "all";
    std::string models_arg = "base,resizing";
    std::string out_path = "-";
    std::string csv_path;
    unsigned jobs = 0;
    bool quiet = false;
    bool resume = false;
    bool isolate = false;
    serve::SupervisorOptions sup_opts;

    exp::ExperimentSpec spec;
    spec.base.warmupInsts = kDefaultWarmupInsts;
    spec.base.functionalWarmup = true;
    spec.base.warmDataCaches = true;
    spec.base.maxInsts = 300000;

    for (ArgCursor args(argc, argv); args.next();) {
        const std::string &arg = args.arg();
        if (arg == "--list") {
            for (const WorkloadSpec &w : spec2006Suite())
                std::printf("%-12s %5s  %s\n", w.name.c_str(),
                            w.isInt ? "int" : "fp",
                            w.memIntensive ? "memory-intensive"
                                           : "compute-intensive");
            return 0;
        } else if (arg == "--workloads") {
            workloads_arg = args.value();
        } else if (arg == "--models") {
            models_arg = args.value();
        } else if (arg == "-j" || arg == "--jobs") {
            const char *v = args.value();
            if (!parseUnsigned(v, jobs) || jobs == 0) {
                std::fprintf(stderr, "-j: not a positive number: "
                             "'%s'\n", v);
                return 2;
            }
        } else if (parseConfigFlag(args, ConfigFlagSet::All, spec.base)) {
            // Applied to spec.base; a bad value exits 2.
        } else if (arg == "--out") {
            out_path = args.value();
        } else if (arg == "--csv") {
            csv_path = args.value();
        } else if (arg == "--ckpt-dir") {
            spec.archCheckpointDir = args.value();
        } else if (arg == "--cache-dir") {
            spec.cacheDir = args.value();
        } else if (arg == "--telemetry-dir") {
            spec.telemetryDir = args.value();
        } else if (arg == "--telemetry-interval") {
            const char *v = args.value();
            if (!parseBoundedU64(v, 1, UINT64_MAX,
                                 spec.telemetryInterval)) {
                std::fprintf(stderr,
                             "--telemetry-interval: expected an "
                             "integer >= 1, got '%s'\n",
                             v);
                return 2;
            }
        } else if (arg == "--resume") {
            resume = true;
        } else if (arg == "--retries") {
            spec.maxAttempts = static_cast<unsigned>(args.number());
            if (spec.maxAttempts == 0) {
                std::fprintf(stderr, "--retries: must be >= 1\n");
                return 2;
            }
        } else if (arg == "--job-timeout") {
            spec.jobTimeoutSeconds = static_cast<double>(args.number());
        } else if (arg == "--isolate") {
            isolate = true;
        } else if (arg == "--worker-bin") {
            sup_opts.workerBin = args.value();
        } else if (arg == "--heartbeat-timeout") {
            sup_opts.heartbeatTimeoutSeconds =
                static_cast<double>(args.number());
            if (sup_opts.heartbeatTimeoutSeconds <= 0) {
                std::fprintf(stderr,
                             "--heartbeat-timeout: must be >= 1\n");
                return 2;
            }
        } else if (arg == "--max-dispatch") {
            sup_opts.maxDispatch = static_cast<unsigned>(args.number());
            if (sup_opts.maxDispatch == 0) {
                std::fprintf(stderr, "--max-dispatch: must be >= 1\n");
                return 2;
            }
        } else if (arg == "--inject") {
            sup_opts.inject = args.value();
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage();
            return 2;
        }
    }

    std::string vm_err = spec.base.vm.validate();
    if (!vm_err.empty()) {
        std::fprintf(stderr, "%s\n", vm_err.c_str());
        return 2;
    }
    if (!resolveWorkloads(workloads_arg, spec.workloads))
        return 2;
    for (const std::string &token : splitList(models_arg)) {
        exp::ModelSpec m;
        if (!exp::parseModelSpec(token, m)) {
            std::fprintf(stderr, "bad model spec: %s\n",
                         token.c_str());
            return 2;
        }
        spec.models.push_back(m);
    }
    if (spec.workloads.empty() || spec.models.empty()) {
        std::fprintf(stderr, "empty run matrix\n");
        return 2;
    }

    // Checkpointing rides alongside the final output file; stdout
    // output has no stable identity to resume against.
    if (out_path != "-")
        spec.checkpointPath = out_path + ".ckpt";
    if (resume && spec.checkpointPath.empty()) {
        std::fprintf(stderr,
                     "--resume requires --out FILE (the checkpoint "
                     "lives at FILE.ckpt)\n");
        return 2;
    }
    spec.resume = resume;

    // Worker fault kinds only make sense against isolated workers,
    // cache kinds against a cache; a typo in the spec should fail in
    // milliseconds, not after the batch ran fault-free.
    if (sup_opts.inject.empty())
        if (const char *env = std::getenv("MLPWIN_FAULT_SPEC"))
            sup_opts.inject = env;
    if (!sup_opts.inject.empty()) {
        serve::FaultSpec parsed;
        std::string err;
        if (!serve::parseFaultSpec(sup_opts.inject, parsed, &err)) {
            std::fprintf(stderr, "--inject: %s\n", err.c_str());
            return 2;
        }
        bool worker_kinds = false;
        bool cache_kinds = false;
        for (const serve::FaultClause &c : parsed.clauses) {
            if (serve::faultKindTargetsCache(c.kind))
                cache_kinds = true;
            else
                worker_kinds = true;
        }
        if (worker_kinds && !isolate) {
            std::fprintf(stderr,
                         "--inject requires --isolate (faults are "
                         "applied by worker processes)\n");
            return 2;
        }
        if (cache_kinds && spec.cacheDir.empty()) {
            std::fprintf(stderr,
                         "--inject: bitflip/trunc/staleschema "
                         "poison cache entries and require "
                         "--cache-dir\n");
            return 2;
        }
        if (cache_kinds) {
            spec.onCacheStored = [parsed](const std::string &path,
                                          std::size_t job,
                                          unsigned attempt) {
                using serve::FaultKind;
                if (parsed.match(FaultKind::Bitflip, job, attempt))
                    cache::ResultCache::corruptBitflip(path);
                if (parsed.match(FaultKind::Trunc, job, attempt))
                    cache::ResultCache::corruptTruncate(path);
                if (parsed.match(FaultKind::StaleSchema, job,
                                 attempt))
                    cache::ResultCache::corruptStaleSchema(path);
            };
        }
    }

    // First signal: stop launching cells, drain in-flight ones and
    // flush their checkpoints. Second signal: abort in-flight
    // simulations at their next watchdog poll.
    spec.cancelRequested = [] { return g_signals > 0; };
    spec.abortFlag = &g_abort;
    std::signal(SIGINT, onSignal);
    std::signal(SIGTERM, onSignal);

    // Open every sink before burning simulation time, so a bad path
    // fails in milliseconds rather than after the whole batch.
    std::ofstream out_file;
    std::ostream *out = &std::cout;
    if (out_path != "-") {
        out_file.open(out_path);
        if (!out_file) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         out_path.c_str());
            return 2;
        }
        out = &out_file;
    }
    std::ofstream csv_file;
    if (!csv_path.empty()) {
        csv_file.open(csv_path);
        if (!csv_file) {
            std::fprintf(stderr, "cannot open %s for writing\n",
                         csv_path.c_str());
            return 2;
        }
    }

    exp::ExperimentRunner runner(jobs, !quiet);
    if (!quiet)
        std::fprintf(stderr,
                     "running %zu jobs (%zu workloads x %zu models) "
                     "on %u %s\n",
                     spec.jobCount(), spec.workloads.size(),
                     spec.models.size(), runner.jobs(),
                     isolate ? "worker processes" : "threads");

    sup_opts.workers = runner.jobs();
    serve::Supervisor supervisor(sup_opts);

    exp::BatchOutcome batch;
    try {
        batch = runner.runAll(spec, isolate ? &supervisor : nullptr);
    } catch (const SimError &e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return e.code() == ErrorCode::InvalidArgument ? 2 : 1;
    }

    if (batch.tornCheckpointLines > 0)
        std::fprintf(stderr,
                     "checkpoint: %zu torn line(s) skipped; the "
                     "affected cells were re-run\n",
                     batch.tornCheckpointLines);
    if (!spec.cacheDir.empty() &&
        (!quiet || batch.cacheQuarantined))
        std::fprintf(stderr,
                     "cache: %zu hit(s), %zu store(s), %zu "
                     "quarantined\n",
                     batch.cacheHits, batch.cacheStores,
                     batch.cacheQuarantined);
    if (isolate && !quiet) {
        const serve::SupervisorStats &st = supervisor.stats();
        if (st.workerDeaths || st.steals || st.quarantined)
            std::fprintf(
                stderr,
                "supervisor: %llu worker death(s), %llu "
                "redispatch(es), %llu quarantined, %llu steal(s), "
                "%llu respawn(s), %u slot(s) retired\n",
                static_cast<unsigned long long>(st.workerDeaths),
                static_cast<unsigned long long>(st.redispatches),
                static_cast<unsigned long long>(st.quarantined),
                static_cast<unsigned long long>(st.steals),
                static_cast<unsigned long long>(st.respawns),
                st.retiredSlots);
    }

    // Final outputs carry the ok cells only, in submission order;
    // failures are reported on stderr and in the exit code. On
    // resume, adopted results serialize byte-identically, so the
    // final file matches an uninterrupted run's.
    exp::ResultWriter jsonl(*out, exp::ResultWriter::Format::Jsonl);
    for (const exp::JobOutcome &o : batch.outcomes)
        if (o.state == exp::JobState::Ok)
            jsonl.write(o.result);
    out->flush();

    if (csv_file.is_open()) {
        exp::ResultWriter csv(csv_file,
                              exp::ResultWriter::Format::Csv);
        for (const exp::JobOutcome &o : batch.outcomes)
            if (o.state == exp::JobState::Ok)
                csv.write(o.result);
    }

    // Per-cell failure summary on stderr.
    std::size_t failed = batch.count(exp::JobState::Failed) +
                         batch.count(exp::JobState::Timeout);
    std::size_t skipped = batch.count(exp::JobState::Skipped);
    for (std::size_t i = 0; i < batch.outcomes.size(); ++i) {
        const exp::JobOutcome &o = batch.outcomes[i];
        if (o.state == exp::JobState::Ok)
            continue;
        std::fprintf(stderr, "%s: %s [%s] %s (attempts %u)\n",
                     jobKey(batch.jobs[i]).c_str(),
                     jobStateName(o.state), errorCodeName(o.error),
                     o.errorDetail.c_str(), o.attempts);
        if (!o.dumpJson.empty())
            std::fprintf(stderr, "  dump: %s\n", o.dumpJson.c_str());
    }
    if (!quiet || failed || skipped)
        std::fprintf(stderr,
                     "batch: %zu ok (%zu resumed), %zu failed, %zu "
                     "timeout, %zu skipped of %zu cells\n",
                     batch.count(exp::JobState::Ok),
                     [&] {
                         std::size_t n = 0;
                         for (const exp::JobOutcome &o :
                              batch.outcomes)
                             if (o.resumed)
                                 ++n;
                         return n;
                     }(),
                     batch.count(exp::JobState::Failed),
                     batch.count(exp::JobState::Timeout), skipped,
                     batch.jobs.size());

    if (g_signals > 0 || skipped)
        return 4;
    return failed ? 3 : 0;
}
