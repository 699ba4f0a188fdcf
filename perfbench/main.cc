/**
 * @file
 * Host-performance benchmark of the mlpwin simulator, built around the
 * paper's Fig. 7 matrix (300k measured + 100k functional warm-up
 * instructions per cell, benchConfig defaults).
 *
 *   perfbench --workload mem-resize|compute-ilp|batch-mixed
 *             [--seed N] [--seconds S] [--trace 0|1]
 *             [--golden results/fig07_ipc.txt] [--work-dir DIR]
 *   perfbench --self-test [--golden FILE]
 *   perfbench --list-metrics
 *
 * Workloads (closed loop: a worker takes the next cell as soon as its
 * current one finishes; min(4, nproc) workers):
 *
 *  - mem-resize: the 11 memory-intensive programs x {base, resizing},
 *    in process. Most of Fig. 7's host time; the level-3 window waits
 *    on DRAM, so issue/LSU polling and the resize controller dominate.
 *  - compute-ilp: the 17 compute-intensive programs x {base,
 *    resizing}. The window stays small, so fetch/commit, caches, the
 *    predictor and the functional warm-up dominate.
 *  - batch-mixed: a sampled, a paging, an SMT and two plain cells,
 *    through worker processes (serve::Supervisor) and a fresh result
 *    cache, cold then warm; the only workload exercising serve,
 *    cache, sample, vm and smt.
 *
 * Every workload runs its batch cold against a fresh result cache and
 * then warm (all cells adopted), repeating until --seconds have
 * passed; end-to-end metrics are medians over those trials. With
 * --trace 1 each trial is paired with a traced twin (Profiler stage
 * spans plus this file's own spans around every public call), layer
 * probes run afterwards, and only per-layer metrics are printed.
 *
 * Output checks (each mismatch is a failed operation, never a
 * warning): whenever the committed programs run (seed 0, and always
 * in batch-mixed), every program's resizing/base IPC ratio must equal
 * the Res column of the golden Fig. 7 table at its printed
 * precision; at every seed, repeated trials, the warm cache pass, a
 * -j1 rerun of two cells in reverse order and (batch-mixed) the
 * isolated workers must reproduce the in-process results byte for
 * byte (resultToJson).
 *
 * Seeds: seed 0 runs the committed suite. Another seed shifts every
 * kernel's data seed (programs.hh) for mem-resize and compute-ilp.
 * Every seed picks the two cells of the -j1 order check. Timed passes
 * keep the canonical order: one cell (mcf/resizing, mcf+gcc) sets
 * most of a pass's wall time, so rotating it would move wall_s by up
 * to a third with no code change. Worker processes resolve programs
 * by suite name, so batch-mixed always runs the committed programs.
 *
 * The model has no hardware reference: simulated numbers here are
 * unvalidated and carry no error figure.
 */

#include <sys/resource.h>
#include <time.h>
#include <sys/wait.h>
#include <poll.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "branch/predictor.hh"
#include "cache/result_cache.hh"
#include "common/bench_util.hh"
#include "common/parse.hh"
#include "emu/emulator.hh"
#include "exp/experiment.hh"
#include "exp/result_writer.hh"
#include "mem/hierarchy.hh"
#include "mem/main_memory.hh"
#include "profile/profiler.hh"
#include "sample/fastforward.hh"
#include "serve/protocol.hh"
#include "serve/supervisor.hh"
#include "serve/worker_process.hh"
#include "sim/simulator.hh"
#include "workloads/suite.hh"

#include "programs.hh"

using namespace mlpwin;
namespace fs = std::filesystem;

namespace
{

using Clock = std::chrono::steady_clock;

/** Fig. 7 input size: measured instructions per cell. */
constexpr std::uint64_t kMeasuredInsts = 300000;
/** Workers: the Fig. 7 harness default on the reference 4-core host. */
constexpr unsigned kMaxWorkers = 4;
/** Set-up repetitions per run; setup_s is their median. */
constexpr unsigned kSetupReps = 51;
/** Instructions each layer probe replays per program. */
constexpr std::uint64_t kProbeInsts = 200000;
/**
 * Warm (all-hit) passes per trial: at least kWarmMinReps, more while
 * they total under kWarmShare of the trial's cold pass.
 * rerun_wall_s is the median of all. A warm in-process pass takes
 * about a millisecond and its speed drifts by a third over tenths of
 * a second on a shared host, so the passes must cover a good part of
 * the run, not a moment of it.
 */
constexpr unsigned kWarmMinReps = 5;
constexpr double kWarmShare = 1.0 / 6;
/** Paired on/off trials of the vm and serve overhead probes. */
constexpr unsigned kProbePairs = 3;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --- statistics ---------------------------------------------------------

struct Quartiles
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
};

/**
 * Quartiles by the "exclusive" method of Python's
 * statistics.quantiles(n=4); a single value is its own quartiles.
 */
Quartiles
quartiles(std::vector<double> v)
{
    if (v.empty())
        throw std::logic_error("quartiles of an empty sample");
    std::sort(v.begin(), v.end());
    const long n = static_cast<long>(v.size());
    if (n == 1)
        return {v[0], v[0], v[0]};
    auto cut = [&](long i) {
        const long m = n + 1;
        const long j = std::clamp(i * m / 4, 1L, n - 1);
        const double delta = static_cast<double>(i * m - j * 4);
        return (v[static_cast<std::size_t>(j - 1)] * (4.0 - delta) +
                v[static_cast<std::size_t>(j)] * delta) /
               4.0;
    };
    return {cut(1), cut(2), cut(3)};
}

double
median(const std::vector<double> &v)
{
    return quartiles(v).median;
}

/**
 * Signed per-pair overhead of `treated` over `base`, in percent. A
 * treated run faster than its base gives a negative value; nothing is
 * clamped.
 */
std::vector<double>
signedOverheadPct(const std::vector<double> &base,
                  const std::vector<double> &treated)
{
    std::vector<double> out;
    for (std::size_t i = 0; i < base.size() && i < treated.size(); ++i)
        out.push_back(100.0 * (treated[i] - base[i]) / base[i]);
    return out;
}

double
cpuSeconds()
{
    auto sum = [](int who) {
        rusage ru{};
        getrusage(who, &ru);
        return static_cast<double>(ru.ru_utime.tv_sec +
                                   ru.ru_stime.tv_sec) +
               1e-6 * static_cast<double>(ru.ru_utime.tv_usec +
                                          ru.ru_stime.tv_usec);
    };
    return sum(RUSAGE_SELF) + sum(RUSAGE_CHILDREN);
}

double
threadCpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

double
peakRssMb(int who)
{
    rusage ru{};
    getrusage(who, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

// --- spans --------------------------------------------------------------

/**
 * In-memory span log of a traced run. Spans are recorded from this
 * file around calls into the simulator's public API; the spans of one
 * cell share an id. Written out once, when the run ends.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string id;
        std::string name;
        int parent = -1;
        double beginUs = 0.0;
        double endUs = 0.0;
    };

    int
    begin(const std::string &id, const char *name, int parent)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back({id, name, parent, nowUs(), 0.0});
        return static_cast<int>(spans_.size() - 1);
    }

    void
    end(int index)
    {
        double t = nowUs();
        std::lock_guard<std::mutex> lock(mutex_);
        spans_[static_cast<std::size_t>(index)].endUs = t;
    }

    std::size_t
    size() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return spans_.size();
    }

    /** Spans from index `from` on, as "S" lines (see trialInChild). */
    void
    serialize(std::ostream &os, std::size_t from) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (std::size_t i = from; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            const long parent =
                s.parent >= static_cast<int>(from)
                    ? s.parent - static_cast<long>(from)
                    : -1;
            os << "S " << s.id << ' ' << s.name << ' ' << parent << ' '
               << std::to_string(s.beginUs) << ' '
               << std::to_string(s.endUs) << '\n';
        }
    }

    /** Add a span parsed from an "S" line; parents are rebased. */
    void
    adopt(Span s, std::size_t base)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (s.parent >= 0)
            s.parent += static_cast<int>(base);
        spans_.push_back(std::move(s));
    }

    /** Durations (ms) of every finished span called `name`. */
    std::vector<double>
    durationsMs(const std::string &name) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        std::vector<double> out;
        for (const Span &s : spans_)
            if (s.name == name && s.endUs > 0.0)
                out.push_back((s.endUs - s.beginUs) / 1000.0);
        return out;
    }

    /**
     * One JSON line per span (with its self time: duration minus its
     * children's), then one summary line per span name.
     */
    void
    write(const std::string &path) const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        // Self time: duration minus the part of it that child spans
        // cover (children of a pass overlap on parallel workers).
        std::vector<std::vector<std::pair<double, double>>> kids(
            spans_.size());
        for (const Span &s : spans_)
            if (s.parent >= 0)
                kids[static_cast<std::size_t>(s.parent)].push_back(
                    {s.beginUs, s.endUs});
        std::vector<double> child(spans_.size(), 0.0);
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            std::sort(kids[i].begin(), kids[i].end());
            double reach = -1.0;
            for (const auto &[b, e] : kids[i]) {
                const double from = std::max(b, reach);
                if (e > from)
                    child[i] += e - from;
                reach = std::max(reach, e);
            }
        }
        std::ofstream out(path);
        std::map<std::string, std::pair<double, double>> by_name;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            double dur = s.endUs - s.beginUs;
            double self = dur - child[i];
            by_name[s.name].first += dur;
            by_name[s.name].second += self;
            out << "{\"id\":\"" << s.id << "\",\"name\":\"" << s.name
                << "\",\"parent\":" << s.parent
                << ",\"begin_us\":" << s.beginUs
                << ",\"dur_us\":" << dur << ",\"self_us\":" << self
                << "}\n";
        }
        for (const auto &[name, t] : by_name)
            out << "{\"summary\":\"" << name
                << "\",\"total_us\":" << t.first
                << ",\"self_us\":" << t.second << "}\n";
    }

  private:
    double
    nowUs() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         epoch_)
            .count();
    }

    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span; a no-op when `log` is null (untraced trials). */
class SpanScope
{
  public:
    SpanScope(SpanLog *log, const std::string &id, const char *name,
              int parent = -1)
        : log_(log), index_(log ? log->begin(id, name, parent) : -1)
    {}
    ~SpanScope()
    {
        if (log_)
            log_->end(index_);
    }
    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    int index() const { return index_; }

  private:
    SpanLog *log_;
    int index_;
};

// --- workloads ----------------------------------------------------------

enum class CellMode
{
    Plain,
    Sampled,
    Paging,
    Smt,
};

struct CellDef
{
    std::string workload;
    ModelKind model = ModelKind::Base;
    CellMode mode = CellMode::Plain;
};

struct WorkloadDef
{
    std::string name;
    /** Canonical submission order. */
    std::vector<CellDef> cells;
    /** Cold/warm passes go through worker processes. */
    bool isolated = false;
    /** Programs come from makeSeededProgram (else the suite). */
    bool seeded = false;
    /** Cell for the paired paging and isolation probes. */
    CellDef probeCell;
};

WorkloadDef
makeWorkload(const std::string &name)
{
    WorkloadDef w;
    w.name = name;
    if (name == "mem-resize" || name == "compute-ilp") {
        const bool mem = name == "mem-resize";
        for (const WorkloadSpec &s : spec2006Suite()) {
            if (s.memIntensive != mem)
                continue;
            w.cells.push_back({s.name, ModelKind::Base});
            w.cells.push_back({s.name, ModelKind::Resizing});
        }
        w.seeded = true;
        w.probeCell = {mem ? "xalancbmk" : "gcc", ModelKind::Resizing};
    } else if (name == "batch-mixed") {
        w.cells = {
            {"gcc", ModelKind::Resizing, CellMode::Sampled},
            {"xalancbmk", ModelKind::Resizing, CellMode::Paging},
            {"mcf+gcc", ModelKind::Base, CellMode::Smt},
            {"libquantum", ModelKind::Base},
            {"libquantum", ModelKind::Resizing},
        };
        w.isolated = true;
        w.probeCell = {"xalancbmk", ModelKind::Resizing};
    } else {
        throw std::invalid_argument("unknown workload '" + name + "'");
    }
    return w;
}

void
applyCell(SimConfig &c, const CellDef &cell)
{
    c.model = cell.model;
    c.fixedLevel = 1;
    switch (cell.mode) {
    case CellMode::Plain:
        break;
    case CellMode::Sampled:
        c.sampling.enabled = true;
        break;
    case CellMode::Paging:
        c.vm.enabled = true;
        break;
    case CellMode::Smt:
        c.core.smt.nThreads = 2;
        c.core.smt.partitionPolicy = PartitionPolicy::MlpAware;
        break;
    }
}

SimConfig
cellConfig(const CellDef &cell)
{
    SimConfig c = bench::benchConfig(ModelKind::Base, 1);
    c.maxInsts = kMeasuredInsts;
    applyCell(c, cell);
    return c;
}

/** Shared state of one benchmark run. */
struct Ctx
{
    WorkloadDef wl;
    std::uint64_t seed = 0;
    unsigned workers = 1;
    fs::path scratch;
    /** Non-null only inside traced trials. */
    SpanLog *spans = nullptr;
    SpanLog log;
    unsigned dirCounter = 0;
    unsigned passes = 0;
    /** --trace 1: trials come in untraced/traced pairs. */
    bool traceRun = false;

    Program
    program(const std::string &name) const
    {
        return wl.seeded ? perfbench::makeSeededProgram(name, seed,
                                                        bench::kForever)
                         : findWorkload(name).make(bench::kForever);
    }

    std::string
    freshDir(const char *what)
    {
        fs::path p = scratch / (std::string(what) + "-" +
                                std::to_string(dirCounter++));
        fs::remove_all(p);
        return p.string();
    }
};

/** Timing of one pass over a cell list. */
struct Pass
{
    exp::BatchOutcome out;
    /** resultToJson of every outcome, as the pass produced it. */
    std::vector<std::string> json;
    double wall = 0.0;
    double cpu = 0.0;
    /**
     * In-process passes: thread CPU seconds of each cell (program
     * build, Simulator construction and run); 0 for isolated cells.
     */
    std::vector<double> cellCpu;
    /** Start of the pass to the first cell's first simulated cycle. */
    double setup = -1.0;
};

exp::ExperimentSpec
makeSpec(const std::vector<CellDef> &cells)
{
    exp::ExperimentSpec spec;
    for (const CellDef &c : cells)
        spec.workloads.push_back(c.workload);
    spec.models = {exp::ModelSpec{ModelKind::Base, 1, "cell"}};
    spec.base = cellConfig(CellDef{});
    spec.iterations = bench::kForever;
    spec.configure = [cells](SimConfig &c, const exp::ExperimentJob &j) {
        applyCell(c, cells[j.index]);
    };
    return spec;
}

/**
 * Run `cells` once. In process, jobs run through the runner's
 * executor seam so this file can time the program build, Simulator
 * construction and run of every cell; isolated passes use the
 * Supervisor and the workers' own job path. With `stop_at_first`, the
 * pass is cut as soon as one cell starts simulating (set-up
 * repetitions).
 */
Pass
runPass(Ctx &ctx, const std::vector<CellDef> &cells, bool isolated,
        const std::string &cache_dir, unsigned workers,
        bool stop_at_first = false)
{
    exp::ExperimentSpec spec = makeSpec(cells);
    spec.cacheDir = cache_dir;
    std::atomic<bool> stop{false};
    std::mutex first_mutex;
    std::optional<Clock::time_point> first_run;
    if (stop_at_first) {
        spec.abortFlag = &stop;
        spec.cancelRequested = [&stop] { return stop.load(); };
    }
    Pass p;
    p.cellCpu.assign(cells.size(), 0.0);
    int pass_span = -1;
    const std::string pass_id = "p" + std::to_string(ctx.passes++);
    if (!isolated) {
        spec.executor = [&](const exp::ExperimentJob &job) {
            const std::string id =
                pass_id + "-cell-" + std::to_string(job.index);
            const double cpu0 = threadCpuSeconds();
            struct CpuNote
            {
                double &slot;
                double cpu0;
                ~CpuNote() { slot = threadCpuSeconds() - cpu0; }
            } note{p.cellCpu[job.index], cpu0};
            SpanScope cell(ctx.spans, id, "cell", pass_span);
            std::vector<Program> progs;
            {
                SpanScope s(ctx.spans, id, "workloads.build",
                            cell.index());
                std::vector<std::string> parts =
                    splitWorkloadSpec(job.workload);
                for (const std::string &part : parts)
                    progs.push_back(ctx.program(part));
            }
            std::unique_ptr<Simulator> sim;
            {
                SpanScope s(ctx.spans, id, "sim.construct",
                            cell.index());
                sim = std::make_unique<Simulator>(job.cfg, progs);
            }
            {
                std::lock_guard<std::mutex> lock(first_mutex);
                if (!first_run)
                    first_run = Clock::now();
            }
            if (stop_at_first) {
                stop = true;
                sim->setAbortFlag(&stop);
            }
            SpanScope s(ctx.spans, id, "sim.run", cell.index());
            return sim->run();
        };
    }

    const double cpu0 = cpuSeconds();
    const Clock::time_point t0 = Clock::now();
    {
        SpanScope s(ctx.spans, pass_id,
                    isolated ? "serve.supervisor" : "exp.runAll");
        pass_span = s.index();
        exp::ExperimentRunner runner(workers, false);
        if (isolated) {
            serve::SupervisorOptions opts;
            opts.workers = workers;
            serve::Supervisor sup(opts);
            p.out = runner.runAll(spec, &sup);
        } else {
            p.out = runner.runAll(spec);
        }
    }
    p.wall = secondsSince(t0);
    p.cpu = cpuSeconds() - cpu0;
    if (first_run)
        p.setup =
            std::chrono::duration<double>(*first_run - t0).count();
    return p;
}

/**
 * Isolated set-up, timed from outside: open a fresh result cache,
 * spawn the worker processes up to their hello frame, and build the
 * first cell's program and Simulator — the work before the first
 * isolated cell can simulate.
 */
double
isolatedSetup(Ctx &ctx)
{
    const Clock::time_point t0 = Clock::now();
    cache::ResultCache rc(ctx.freshDir("setup-cache"));
    serve::SpawnOptions so;
    so.workerBin = serve::defaultWorkerBin();
    const unsigned n =
        std::min<unsigned>(ctx.workers,
                           static_cast<unsigned>(ctx.wl.cells.size()));
    std::vector<std::unique_ptr<serve::WorkerProcess>> workers;
    for (unsigned i = 0; i < n; ++i)
        workers.push_back(std::make_unique<serve::WorkerProcess>(so));
    for (auto &w : workers) {
        std::string payload;
        for (;;) {
            if (w->frames().next(payload))
                break;
            pollfd pfd{w->readFd(), POLLIN, 0};
            if (poll(&pfd, 1, 10000) <= 0)
                throw std::runtime_error("worker sent no hello");
            char buf[4096];
            ssize_t got = read(w->readFd(), buf, sizeof buf);
            if (got == 0 ||
                (got < 0 && errno != EAGAIN && errno != EINTR))
                throw std::runtime_error("worker died before hello");
            if (got > 0)
                w->frames().feed(buf, static_cast<std::size_t>(got));
        }
        if (serve::parseWorkerMessage(payload).kind !=
            serve::WorkerMessage::Kind::Hello)
            throw std::runtime_error("worker spoke before hello");
    }
    const CellDef &first = ctx.wl.cells.front();
    std::vector<Program> progs;
    for (const std::string &part : splitWorkloadSpec(first.workload))
        progs.push_back(ctx.program(part));
    Simulator sim(cellConfig(first), progs);
    const double t = secondsSince(t0);
    for (auto &w : workers) {
        w->closeIn();
        w->reap();
    }
    return t;
}

// --- golden Fig. 7 table ------------------------------------------------

std::vector<std::string>
tokens(const std::string &line)
{
    std::istringstream ls(line);
    std::vector<std::string> tok;
    for (std::string t; ls >> t;)
        tok.push_back(t);
    return tok;
}

/**
 * Programs whose resizing/base IPC ratio, printed like the Fig. 7
 * table ("%.3f"), differs from the table's Res column. A program
 * missing from the table counts as a mismatch; a table without a Res
 * column fails every program.
 */
std::vector<std::string>
goldenMismatches(const std::string &table,
                 const std::map<std::string, double> &ratios)
{
    std::map<std::string, std::string> res;
    std::istringstream in(table);
    std::string line;
    long col = -1;
    while (std::getline(in, line)) {
        const std::vector<std::string> tok = tokens(line);
        if (tok.empty())
            continue;
        if (tok[0] == "program") {
            auto it = std::find(tok.begin(), tok.end(), "Res");
            col = it == tok.end() ? -1 : it - tok.begin();
        } else if (col > 0 && static_cast<long>(tok.size()) > col &&
                   !res.count(tok[0])) {
            res[tok[0]] = tok[static_cast<std::size_t>(col)];
        }
    }
    std::vector<std::string> bad;
    for (const auto &[prog, ratio] : ratios) {
        char buf[32];
        std::snprintf(buf, sizeof buf, "%.3f", ratio);
        auto it = res.find(prog);
        if (it == res.end() || it->second != buf)
            bad.push_back(prog);
    }
    return bad;
}

std::string
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return {};
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

// --- metric catalogue ---------------------------------------------------

struct MetricDef
{
    const char *name;
    const char *unit;
    /** Printed by traced runs (per-layer) instead of untraced ones. */
    bool layer;
};

const std::vector<MetricDef> &
catalogue()
{
    static const std::vector<MetricDef> m = {
        {"wall_s", "s", false},
        {"cpu_s", "s", false},
        {"sim_cycles_per_s", "1/s", false},
        {"sim_mips", "MIPS", false},
        {"setup_s", "s", false},
        {"peak_rss_mb", "MiB", false},
        {"rerun_wall_s", "s", false},
        {"resize_ipc_gain_gm", "ratio", false},
        {"cpu.ns_per_cycle", "ns", true},
        {"cpu.fetch_share", "ratio", true},
        {"cpu.dispatch_share", "ratio", true},
        {"cpu.issue_share", "ratio", true},
        {"cpu.lsu_share", "ratio", true},
        {"cpu.complete_share", "ratio", true},
        {"cpu.commit_share", "ratio", true},
        {"exp.worker_idle_share", "ratio", true},
        {"workloads.build_ms", "ms", true},
        {"sim.construct_ms", "ms", true},
        {"emu.step_ns", "ns", true},
        {"sample.ff_ns_per_inst", "ns", true},
        {"mem.access_ns", "ns", true},
        {"branch.predict_ns", "ns", true},
        {"branch.mispredict_ratio", "ratio", true},
        {"vm.paging_overhead_pct", "%", true},
        {"vm.paging_overhead_pct_q1", "%", true},
        {"vm.paging_overhead_pct_q3", "%", true},
        {"vm.walks_per_kinst", "1/kinst", true},
        {"cache.get_ms", "ms", true},
        {"cache.put_ms", "ms", true},
        {"cache.hit_ratio", "ratio", true},
        {"serve.isolate_overhead_pct", "%", true},
        {"serve.isolate_overhead_pct_q1", "%", true},
        {"serve.isolate_overhead_pct_q3", "%", true},
        {"serve.job_codec_us", "us", true},
        {"mem.l2_mpki", "1/kinst", true},
        {"mem.observed_mlp", "misses", true},
        {"resize.level3_share", "ratio", true},
        {"cpi.base_share", "ratio", true},
        {"cpi.dram_share", "ratio", true},
        {"cpi.window_full_share", "ratio", true},
        {"trace.overhead_pct", "%", true},
        {"trace.overhead_pct_q1", "%", true},
        {"trace.overhead_pct_q3", "%", true},
    };
    return m;
}

// --- checks -------------------------------------------------------------

struct Tally
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;

    void
    fail(const std::string &why)
    {
        ++failed;
        std::fprintf(stderr, "perfbench: CHECK FAILED: %s\n",
                     why.c_str());
    }

    /** Count a pass's cells; non-ok cells fail. */
    void
    settle(const exp::BatchOutcome &b, const char *pass)
    {
        for (std::size_t i = 0; i < b.jobs.size(); ++i) {
            ++attempted;
            if (b.outcomes[i].state != exp::JobState::Ok)
                fail(std::string(pass) + " " + exp::jobKey(b.jobs[i]) +
                     " " + exp::jobStateName(b.outcomes[i].state) +
                     ": " + b.outcomes[i].errorDetail);
        }
    }

    /** Every cell of `b` must serialize exactly like `ref`. */
    void
    same(const std::vector<std::string> &ref, const exp::BatchOutcome &b,
         const char *what)
    {
        for (std::size_t i = 0; i < b.jobs.size() && i < ref.size(); ++i)
            if (b.outcomes[i].state == exp::JobState::Ok &&
                exp::resultToJson(b.outcomes[i].result) != ref[i])
                fail(std::string(what) + " differs at " +
                     exp::jobKey(b.jobs[i]));
    }
};

std::vector<std::string>
payloads(const exp::BatchOutcome &b)
{
    std::vector<std::string> v;
    for (const exp::JobOutcome &o : b.outcomes)
        v.push_back(exp::resultToJson(o.result));
    return v;
}

// --- one trial ----------------------------------------------------------

/** Everything one cold + warm trial measured. */
struct Trial
{
    Pass cold;     ///< The measured pass (isolated for batch-mixed).
    Pass warm;     ///< First re-run against the cold pass's cache.
    std::vector<double> rerunWalls; ///< Walls of the warm re-runs.
    Pass inproc;   ///< batch-mixed only: in-process cold reference.
    double rssMb = 0.0;
};

Trial
runTrial(Ctx &ctx, Tally &tally, unsigned index,
         std::vector<std::string> &reference)
{
    Trial t;
    const std::vector<CellDef> &cells = ctx.wl.cells;
    const std::string dir = ctx.freshDir("cache");
    if (ctx.wl.isolated) {
        // The in-process reference pass runs in the first trial and in
        // every traced-run trial, where it pairs with the isolated pass
        // for serve.isolate_overhead_pct; those alternate the order so
        // that the pairs are not biased by it.
        const bool inproc = reference.empty() || ctx.traceRun;
        auto reference_pass = [&] {
            t.inproc = runPass(ctx, cells, false,
                               ctx.freshDir("cache-inproc"),
                               ctx.workers);
            tally.settle(t.inproc.out, "in-process");
            if (reference.empty())
                reference = payloads(t.inproc.out);
            tally.same(reference, t.inproc.out, "in-process trial");
        };
        if (inproc && ctx.traceRun && index % 2 == 1)
            reference_pass();
        t.cold = runPass(ctx, cells, true, dir, ctx.workers);
        if (inproc && !(ctx.traceRun && index % 2 == 1))
            reference_pass();
        t.rssMb = peakRssMb(RUSAGE_CHILDREN);
    } else {
        t.cold = runPass(ctx, cells, false, dir, ctx.workers);
        t.rssMb = peakRssMb(RUSAGE_SELF);
    }
    tally.settle(t.cold.out, "cold");
    if (reference.empty())
        reference = payloads(t.cold.out);
    tally.same(reference, t.cold.out,
               ctx.wl.isolated ? "isolated cold pass" : "cold trial");

    double warm_total = 0.0;
    for (unsigned r = 0;
         r < kWarmMinReps || warm_total < kWarmShare * t.cold.wall; ++r) {
        Pass w = runPass(ctx, cells, ctx.wl.isolated, dir, ctx.workers);
        tally.settle(w.out, "warm");
        tally.same(reference, w.out, "warm cache hit");
        if (w.out.cacheHits != cells.size())
            tally.fail("warm pass adopted " +
                       std::to_string(w.out.cacheHits) + " of " +
                       std::to_string(cells.size()) + " cells");
        t.rerunWalls.push_back(w.wall);
        warm_total += w.wall;
        if (r == 0)
            t.warm = std::move(w);
    }
    return t;
}

// --- one trial per child process ----------------------------------------

struct Stage
{
    SpanKind kind;
    const char *name;
};
constexpr std::size_t kNumStages = 6;
constexpr Stage kStages[kNumStages] = {
    {SpanKind::Fetch, "fetch"},       {SpanKind::Dispatch, "dispatch"},
    {SpanKind::Issue, "issue"},       {SpanKind::Lsu, "lsu"},
    {SpanKind::Complete, "complete"}, {SpanKind::Commit, "commit"},
};

std::string
fmtDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

void
writePass(std::ostream &os, const char *tag, const Pass &p)
{
    os << "P " << tag << ' ' << fmtDouble(p.wall) << ' '
       << fmtDouble(p.cpu) << ' ' << p.out.cacheHits << ' '
       << p.out.outcomes.size() << '\n';
    for (std::size_t i = 0; i < p.out.outcomes.size(); ++i) {
        const exp::JobOutcome &o = p.out.outcomes[i];
        os << "C " << static_cast<int>(o.state) << ' '
           << fmtDouble(o.wallSeconds) << ' ' << fmtDouble(p.cellCpu[i])
           << ' '
           << (o.state == exp::JobState::Ok ? exp::resultToJson(o.result)
                                            : std::string("-"))
           << '\n';
    }
}

/**
 * Run one trial in a forked child and return what it measured. The
 * child starts from this process's heap (which has run only set-up
 * repetitions) and reports back over a pipe in a line format: passes
 * ("P"/"C" lines, results as resultToJson), rerun walls ("W"), peak
 * RSS ("R"), its check tally ("T"), spans ("S") and Profiler stage
 * totals ("A"). The child's failed checks are already on stderr.
 */
Trial
trialInChild(Ctx &ctx, Tally &tally, unsigned index,
             const std::vector<std::string> &reference, bool traced,
             std::array<double, kNumStages> &stage_ns)
{
    int fds[2];
    if (pipe(fds) != 0)
        throw std::runtime_error("pipe failed");
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0)
        throw std::runtime_error("fork failed");
    if (pid == 0) {
        close(fds[0]);
        int rc = 0;
        try {
            Profiler &prof = Profiler::instance();
            prof.reset();
            prof.setEnabled(traced);
            const std::size_t span_base = ctx.log.size();
            ctx.spans = traced ? &ctx.log : nullptr;
            Tally child;
            std::vector<std::string> ref = reference;
            Trial t = runTrial(ctx, child, index, ref);
            prof.setEnabled(false);
            std::ostringstream os;
            writePass(os, "cold", t.cold);
            writePass(os, "warm", t.warm);
            if (ctx.wl.isolated)
                writePass(os, "inproc", t.inproc);
            for (double w : t.rerunWalls)
                os << "W " << fmtDouble(w) << '\n';
            os << "R " << fmtDouble(t.rssMb) << '\n';
            os << "T " << child.attempted << ' ' << child.failed << '\n';
            ctx.log.serialize(os, span_base);
            const auto agg = prof.aggregate();
            for (std::size_t i = 0; i < kNumStages; ++i)
                os << "A " << i << ' '
                   << agg[static_cast<std::size_t>(kStages[i].kind)]
                          .totalNs
                   << '\n';
            if (!serve::writeAll(fds[1], os.str()))
                rc = 1;
        } catch (const std::exception &e) {
            std::fprintf(stderr, "perfbench: trial: %s\n", e.what());
            rc = 1;
        }
        _exit(rc);
    }
    close(fds[1]);
    std::string data;
    char buf[65536];
    for (;;) {
        ssize_t n = read(fds[0], buf, sizeof buf);
        if (n > 0)
            data.append(buf, static_cast<std::size_t>(n));
        else if (n == 0 || errno != EINTR)
            break;
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0)
        throw std::runtime_error("trial process failed");

    Trial t;
    Pass *pass = nullptr;
    const std::size_t span_base = ctx.log.size();
    std::istringstream in(data);
    for (std::string line; std::getline(in, line);) {
        std::istringstream ls(line);
        std::string kind;
        ls >> kind;
        if (kind == "P") {
            std::string tag;
            std::size_t hits = 0, n = 0;
            double wall = 0, cpu = 0;
            ls >> tag >> wall >> cpu >> hits >> n;
            pass = tag == "cold" ? &t.cold
                 : tag == "warm" ? &t.warm
                                 : &t.inproc;
            pass->wall = wall;
            pass->cpu = cpu;
            pass->out.cacheHits = hits;
        } else if (kind == "C" && pass) {
            int state = 0;
            exp::JobOutcome o;
            std::string json;
            double cpu = 0;
            ls >> state >> o.wallSeconds >> cpu;
            pass->cellCpu.push_back(cpu);
            std::getline(ls >> std::ws, json);
            o.state = static_cast<exp::JobState>(state);
            if (o.state == exp::JobState::Ok)
                o.result = exp::resultFromJson(json);
            pass->out.outcomes.push_back(std::move(o));
            pass->json.push_back(json);
        } else if (kind == "W") {
            double w = 0;
            ls >> w;
            t.rerunWalls.push_back(w);
        } else if (kind == "R") {
            ls >> t.rssMb;
        } else if (kind == "T") {
            std::uint64_t att = 0, failed = 0;
            ls >> att >> failed;
            tally.attempted += att;
            tally.failed += failed;
        } else if (kind == "S") {
            SpanLog::Span sp;
            ls >> sp.id >> sp.name >> sp.parent >> sp.beginUs >> sp.endUs;
            ctx.log.adopt(sp, span_base);
        } else if (kind == "A") {
            std::size_t i = 0;
            double ns = 0;
            ls >> i >> ns;
            if (i < kNumStages)
                stage_ns[i] += ns;
        }
    }
    if (t.cold.out.outcomes.size() != ctx.wl.cells.size())
        throw std::runtime_error("trial process returned a short report");
    return t;
}

// --- layer probes -------------------------------------------------------

/** One program's emulated stream, kept for the replay probes. */
struct Stream
{
    std::vector<ExecRecord> mem;
    std::vector<ExecRecord> ctl;
};

struct ProbeTimes
{
    double emuNs = 0, emuInsts = 0;
    double ffNs = 0, ffInsts = 0;
    double memNs = 0, memOps = 0;
    double bpNs = 0, bpOps = 0;
};

double
nsSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - t0)
        .count();
}

/**
 * Emulator::step, FastForwarder::run, CacheHierarchy::load/store and
 * BranchPredictor::predict+update, each timed over every program of
 * the workload.
 */
ProbeTimes
probeLayers(Ctx &ctx)
{
    ProbeTimes pt;
    const SimConfig cfg = cellConfig(CellDef{});
    std::vector<std::string> names;
    for (const CellDef &c : ctx.wl.cells)
        for (const std::string &part : splitWorkloadSpec(c.workload))
            if (std::find(names.begin(), names.end(), part) ==
                names.end())
                names.push_back(part);
    for (const std::string &name : names) {
        const std::string id = "probe-" + name;
        Program prog = ctx.program(name);
        Stream st;
        {
            MainMemory mem;
            mem.loadProgram(prog);
            Emulator emu(mem, prog.entry());
            std::vector<ExecRecord> recs;
            recs.reserve(kProbeInsts);
            SpanScope s(ctx.spans, id, "emu.step");
            auto t0 = Clock::now();
            for (std::uint64_t i = 0; i < kProbeInsts && !emu.halted();
                 ++i)
                recs.push_back(emu.step());
            pt.emuNs += nsSince(t0);
            pt.emuInsts += static_cast<double>(recs.size());
            for (const ExecRecord &r : recs) {
                if (r.inst.isMem())
                    st.mem.push_back(r);
                else if (r.inst.isControl())
                    st.ctl.push_back(r);
            }
        }
        {
            MainMemory mem;
            mem.loadProgram(prog);
            Emulator emu(mem, prog.entry());
            StatSet stats;
            CacheHierarchy h(cfg.mem, &stats);
            BranchPredictor bp(cfg.bp, &stats);
            FastForwarder ff(emu, &h, &bp);
            SpanScope s(ctx.spans, id, "sample.ff");
            auto t0 = Clock::now();
            pt.ffInsts += static_cast<double>(ff.run(kProbeInsts));
            pt.ffNs += nsSince(t0);
        }
        {
            StatSet stats;
            CacheHierarchy h(cfg.mem, &stats);
            Cycle now = 0;
            SpanScope s(ctx.spans, id, "mem.access");
            auto t0 = Clock::now();
            for (const ExecRecord &r : st.mem) {
                MemAccessResult a =
                    r.inst.isLoad()
                        ? h.load(r.memAddr, r.pc, now,
                                 Provenance::CorrPath)
                        : h.store(r.memAddr, now, Provenance::CorrPath);
                // A rejected access waits for an MSHR, as the LSU
                // would retry it later.
                now += a.accepted ? 1 : 64;
            }
            pt.memNs += nsSince(t0);
            pt.memOps += static_cast<double>(st.mem.size());
        }
        {
            StatSet stats;
            BranchPredictor bp(cfg.bp, &stats);
            SpanScope s(ctx.spans, id, "branch.predict");
            auto t0 = Clock::now();
            for (const ExecRecord &r : st.ctl) {
                BranchPrediction p = bp.predict(r.pc, r.inst);
                bp.update(r.pc, r.inst, r.taken, r.nextPc,
                          p.historySnapshot);
            }
            pt.bpNs += nsSince(t0);
            pt.bpOps += static_cast<double>(st.ctl.size());
        }
    }
    return pt;
}

/** Paired paging-off / paging-on runs of the probe cell. */
void
probePaging(Ctx &ctx, std::map<std::string, double> &m)
{
    const CellDef &cell = ctx.wl.probeCell;
    Program prog = ctx.program(cell.workload);
    std::vector<double> off, on;
    SimResult paged;
    for (unsigned i = 0; i < kProbePairs; ++i) {
        for (unsigned k = 0; k < 2; ++k) {
            const bool paging = (i + k) % 2 == 1;
            SimConfig c = cellConfig(cell);
            c.vm.enabled = paging;
            SpanScope s(ctx.spans, "probe-vm-" + std::to_string(i),
                        paging ? "sim.run.paging" : "sim.run");
            auto t0 = Clock::now();
            SimResult r = Simulator(c, prog).run();
            (paging ? on : off).push_back(secondsSince(t0));
            if (paging)
                paged = r;
        }
    }
    Quartiles q = quartiles(signedOverheadPct(off, on));
    m["vm.paging_overhead_pct"] = q.median;
    m["vm.paging_overhead_pct_q1"] = q.q1;
    m["vm.paging_overhead_pct_q3"] = q.q3;
    m["vm.walks_per_kinst"] =
        1000.0 * static_cast<double>(paged.vm.walks) /
        static_cast<double>(std::max<std::uint64_t>(paged.committed, 1));
}

/**
 * Paired in-process / isolated single-worker runs of the probe cell
 * through the runner's default job path; the two results must agree.
 */
std::vector<double>
probeIsolation(Ctx &ctx, Tally &tally)
{
    exp::ExperimentSpec spec = makeSpec({ctx.wl.probeCell});
    std::vector<double> inproc, isolated;
    std::string ref;
    for (unsigned i = 0; i < kProbePairs; ++i) {
        for (unsigned k = 0; k < 2; ++k) {
            const bool iso = (i + k) % 2 == 1;
            exp::ExperimentRunner runner(1, false);
            serve::SupervisorOptions opts;
            opts.workers = 1;
            serve::Supervisor sup(opts);
            auto t0 = Clock::now();
            exp::BatchOutcome b =
                runner.runAll(spec, iso ? &sup : nullptr);
            (iso ? isolated : inproc).push_back(secondsSince(t0));
            tally.settle(b, "isolation probe");
            if (ref.empty())
                ref = exp::resultToJson(b.outcomes[0].result);
            tally.same({ref}, b, "isolation probe");
        }
    }
    return signedOverheadPct(inproc, isolated);
}

/** ResultCache::put then ::get of every payload of a cold pass. */
void
probeCache(Ctx &ctx, Tally &tally, const std::vector<std::string> &pl,
           std::map<std::string, double> &m)
{
    cache::ResultCache rc(ctx.freshDir("probe-cache"));
    std::vector<double> put_ms, get_ms;
    for (std::size_t i = 0; i < pl.size(); ++i) {
        const std::uint64_t key = cache::foldKey({ctx.seed, i});
        SpanScope s(ctx.spans, "cache-" + std::to_string(i), "cache.put");
        auto t0 = Clock::now();
        if (!rc.put(key, pl[i], "probe", "cell", 0, 0))
            tally.fail("cache probe put failed");
        put_ms.push_back(1000.0 * secondsSince(t0));
    }
    for (std::size_t i = 0; i < pl.size(); ++i) {
        const std::uint64_t key = cache::foldKey({ctx.seed, i});
        std::string got;
        SpanScope s(ctx.spans, "cache-" + std::to_string(i), "cache.get");
        auto t0 = Clock::now();
        bool hit = rc.get(key, got);
        get_ms.push_back(1000.0 * secondsSince(t0));
        ++tally.attempted;
        if (!hit || got != pl[i])
            tally.fail("cache probe get returned a different payload");
    }
    m["cache.put_ms"] = median(put_ms);
    m["cache.get_ms"] = median(get_ms);
}

/** jobToJson + jobFromJson round trip of every job of the batch. */
double
probeCodec(Ctx &ctx)
{
    exp::ExperimentSpec spec = makeSpec(ctx.wl.cells);
    std::vector<double> us;
    for (unsigned rep = 0; rep < 20; ++rep) {
        for (const exp::ExperimentJob &job : exp::expandSpec(spec)) {
            auto t0 = Clock::now();
            std::string frame = serve::jobToJson(spec, job, 1);
            exp::ExperimentSpec s2;
            exp::ExperimentJob j2;
            unsigned attempt = 0;
            serve::jobFromJson(frame, s2, j2, attempt);
            us.push_back(nsSince(t0) / 1000.0);
        }
    }
    return median(us);
}

// --- simulated statistics (exact; repeat bit for bit) --------------------

void
simulatedStats(const Ctx &ctx, const exp::BatchOutcome &b,
               std::map<std::string, double> &m)
{
    double branches = 0, mispredicts = 0, l2 = 0, committed = 0;
    double mlp = 0, lvl3 = 0, res_cycles = 0;
    CpiStack cpi;
    for (std::size_t i = 0; i < b.outcomes.size(); ++i) {
        const SimResult &r = b.outcomes[i].result;
        branches += static_cast<double>(r.committedBranches);
        mispredicts += static_cast<double>(r.committedMispredicts);
        l2 += static_cast<double>(r.l2DemandMisses);
        committed += static_cast<double>(r.committed);
        mlp += r.observedMlp;
        cpi += r.cpiTotal();
        if (ctx.wl.cells[i].model == ModelKind::Resizing) {
            res_cycles += static_cast<double>(r.cycles);
            if (r.cyclesAtLevel.size() >= 3)
                lvl3 += static_cast<double>(r.cyclesAtLevel[2]);
        }
    }
    const double n = static_cast<double>(b.outcomes.size());
    const double total = static_cast<double>(cpi.sum());
    auto share = [&](std::initializer_list<CpiComponent> cs) {
        double s = 0;
        for (CpiComponent c : cs)
            s += static_cast<double>(cpi[c]);
        return total > 0 ? s / total : 0.0;
    };
    m["branch.mispredict_ratio"] =
        branches > 0 ? mispredicts / branches : 0.0;
    m["mem.l2_mpki"] = committed > 0 ? 1000.0 * l2 / committed : 0.0;
    m["mem.observed_mlp"] = n > 0 ? mlp / n : 0.0;
    m["resize.level3_share"] = res_cycles > 0 ? lvl3 / res_cycles : 0.0;
    m["cpi.base_share"] = share({CpiComponent::Base});
    m["cpi.dram_share"] = share({CpiComponent::Dram});
    m["cpi.window_full_share"] =
        share({CpiComponent::RobFull, CpiComponent::IqFull,
               CpiComponent::LsqFull});
}

/** GM over programs of IPC(resizing) / IPC(base); ratios by program. */
double
resizeGain(const Ctx &ctx, const exp::BatchOutcome &b,
           std::map<std::string, double> *ratios)
{
    std::map<std::string, double> base, res;
    for (std::size_t i = 0; i < b.outcomes.size(); ++i) {
        const CellDef &c = ctx.wl.cells[i];
        if (c.mode != CellMode::Plain)
            continue;
        (c.model == ModelKind::Base ? base : res)[c.workload] =
            b.outcomes[i].result.ipc;
    }
    double log_sum = 0;
    unsigned n = 0;
    for (const auto &[w, ipc] : res) {
        auto it = base.find(w);
        if (it == base.end() || it->second <= 0 || ipc <= 0)
            continue;
        const double r = ipc / it->second;
        if (ratios)
            (*ratios)[w] = r;
        log_sum += std::log(r);
        ++n;
    }
    return n ? std::exp(log_sum / n) : 0.0;
}

// --- the run ------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string golden = "results/fig07_ipc.txt";
    std::string workDir = ".";
    bool selfTest = false;
    bool listMetrics = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\nusage: perfbench --workload "
                 "mem-resize|compute-ilp|batch-mixed [--seed N] "
                 "[--seconds S] [--trace 0|1] [--golden FILE] "
                 "[--work-dir DIR] | --self-test | --list-metrics\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            a.workload = next();
        } else if (arg == "--seed") {
            if (!parseU64(next().c_str(), a.seed))
                usage("--seed: not a number");
        } else if (arg == "--seconds") {
            std::uint64_t s = 0;
            if (!parseU64(next().c_str(), s) || s == 0 || s > 3600)
                usage("--seconds: expected 1..3600");
            a.seconds = static_cast<double>(s);
        } else if (arg == "--trace") {
            std::string v = next();
            if (v != "0" && v != "1")
                usage("--trace: expected 0 or 1");
            a.trace = v == "1";
        } else if (arg == "--golden") {
            a.golden = next();
        } else if (arg == "--work-dir") {
            a.workDir = next();
        } else if (arg == "--self-test") {
            a.selfTest = true;
        } else if (arg == "--list-metrics") {
            a.listMetrics = true;
        } else {
            usage(("unknown option " + arg).c_str());
        }
    }
    if (!a.selfTest && !a.listMetrics && a.workload.empty())
        usage("--workload is required");
    return a;
}

/** Print every metric of the mode, then the one-line JSON result. */
int
emit(const std::map<std::string, double> &m, bool trace,
     const Tally &tally)
{
    std::ostringstream js;
    js << "{\"correct\": " << (tally.failed ? "false" : "true")
       << ", \"attempted\": " << tally.attempted
       << ", \"failed\": " << tally.failed << ", \"metrics\": {";
    bool first = true;
    for (const MetricDef &d : catalogue()) {
        if (d.layer != trace)
            continue;
        auto it = m.find(d.name);
        if (it == m.end() || !std::isfinite(it->second)) {
            std::fprintf(stderr, "perfbench: metric %s not measured\n",
                         d.name);
            return 1;
        }
        std::printf("%-32s %16.6f %s\n", d.name, it->second, d.unit);
        char val[64];
        std::snprintf(val, sizeof val, "%.10g", it->second);
        js << (first ? "" : ", ") << "\"" << d.name
           << "\": {\"value\": " << val << ", \"unit\": \"" << d.unit
           << "\"}";
        first = false;
    }
    js << "}}";
    std::printf("%s\n", js.str().c_str());
    return 0;
}

/** Checks that need no simulation: see --self-test in run.py. */
int
selfTest(const Args &a)
{
    int bad = 0;
    auto expect = [&](bool ok, const char *what) {
        std::fprintf(stderr, "self-test: %s: %s\n", what,
                     ok ? "ok" : "FAILED");
        bad += ok ? 0 : 1;
    };

    // A golden table checked against its own Res column passes; one
    // perturbed row makes exactly that program fail.
    const std::string table = readFile(a.golden);
    expect(!table.empty(), "golden table readable");
    std::map<std::string, double> ratios;
    {
        std::istringstream in(table);
        std::string line;
        bool in_rows = false;
        while (std::getline(in, line)) {
            const std::vector<std::string> tok = tokens(line);
            if (!tok.empty() && tok[0] == "program")
                in_rows = true;
            else if (in_rows && tok.size() == 7 && tok[0] != "GM" &&
                     tryFindWorkload(tok[0]))
                ratios[tok[0]] = std::stod(tok[4]);
        }
    }
    expect(ratios.size() == spec2006Suite().size(),
           "golden table lists every suite program");
    expect(goldenMismatches(table, ratios).empty(),
           "golden table matches its own Res column");
    std::map<std::string, double> perturbed = ratios;
    perturbed["mcf"] += 0.001;
    std::vector<std::string> bad_rows =
        goldenMismatches(table, perturbed);
    expect(bad_rows == std::vector<std::string>{"mcf"},
           "perturbed mcf ratio fails the golden check");
    std::string edited = table;
    std::size_t at = edited.find("\nmcf ");
    if (at != std::string::npos) {
        const std::size_t eol = edited.find('\n', at + 1);
        std::vector<std::string> tok =
            tokens(edited.substr(at + 1, eol - at - 1));
        tok[4].back() = tok[4].back() == '9' ? '8' : '9';
        std::string row = tok[0];
        row.resize(12, ' ');
        for (std::size_t i = 1; i < tok.size(); ++i) {
            char cell[32];
            std::snprintf(cell, sizeof cell, " %10s", tok[i].c_str());
            row += cell;
        }
        edited.replace(at + 1, eol - at - 1, row);
    }
    expect(goldenMismatches(edited, ratios) ==
               std::vector<std::string>{"mcf"},
           "perturbed golden mcf row fails the golden check");

    // Signed overheads keep their sign.
    Quartiles q = quartiles(
        signedOverheadPct({2.0, 2.0, 2.0, 2.0}, {1.9, 1.8, 1.95, 2.1}));
    expect(q.median < 0 && q.q1 < 0, "faster treatment gives a "
                                     "negative overhead");
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25].
    Quartiles ref = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    expect(ref.q1 == 2.75 && ref.median == 5.5 && ref.q3 == 8.25,
           "quartiles match Python's statistics.quantiles");

    // The seeded table at seed 0 is the committed suite, and another
    // seed really changes the data.
    bool same = true;
    for (const WorkloadSpec &s : spec2006Suite())
        same = same && perfbench::sameProgram(
                           perfbench::makeSeededProgram(s.name, 0, 8),
                           s.make(8));
    expect(same, "seed 0 rebuilds every suite program exactly");
    expect(!perfbench::sameProgram(
               perfbench::makeSeededProgram("mcf", 3, 8),
               findWorkload("mcf").make(8)),
           "seed 3 changes mcf's data");
    return bad ? 1 : 0;
}

int
runBenchmark(const Args &a)
{
    Ctx ctx;
    ctx.wl = makeWorkload(a.workload);
    ctx.seed = a.seed;
    ctx.traceRun = a.trace;
    ctx.workers = std::clamp(std::thread::hardware_concurrency(), 1u,
                             kMaxWorkers);
    ctx.scratch =
        fs::path(a.workDir) / ("perfbench-" + std::to_string(getpid()));
    fs::remove_all(ctx.scratch);
    fs::create_directories(ctx.scratch);
    struct Cleanup
    {
        fs::path p;
        ~Cleanup()
        {
            std::error_code ec;
            fs::remove_all(p, ec);
        }
    } cleanup{ctx.scratch};

    Tally tally;
    std::map<std::string, double> m;
    const std::vector<CellDef> &cells = ctx.wl.cells;

    // Set-up repetitions, before anything else has warmed the heap.
    // In process, a pass over the first cell alone: the other workers
    // would otherwise build their programs concurrently and blur it.
    std::vector<double> setups;
    for (unsigned i = 0; i < kSetupReps; ++i) {
        if (ctx.wl.isolated) {
            setups.push_back(isolatedSetup(ctx));
        } else {
            Pass p = runPass(ctx, {cells.front()}, false, "",
                             ctx.workers, true);
            if (p.setup < 0)
                tally.fail("set-up repetition never started a cell");
            else
                setups.push_back(p.setup);
        }
    }

    // Timed trials until --seconds have passed, each in a freshly
    // forked child, as a user's figure run starts in a fresh process:
    // in one process, successive mem-resize trials ran progressively
    // slower (12.1 s to 15.4 s over four on a 4-vCPU Xeon VM).
    // Traced runs pair each untraced trial with a traced twin,
    // alternating which goes first.
    std::vector<std::string> reference;
    std::vector<Trial> trials;
    std::vector<double> traced_wall, untraced_wall;
    std::array<double, kNumStages> stage_ns{};
    const Clock::time_point start = Clock::now();
    for (unsigned k = 0; trials.empty() || secondsSince(start) < a.seconds;
         ++k) {
        for (unsigned side = 0; side < (a.trace ? 2u : 1u); ++side) {
            const bool traced = a.trace && (k + side) % 2 == 1;
            Trial t = trialInChild(ctx, tally, k, reference, traced,
                                   stage_ns);
            std::fprintf(stderr,
                         "perfbench: trial %u%s cold %.3fs cpu %.3fs\n",
                         k, traced ? " (traced)" : "", t.cold.wall,
                         t.cold.cpu);
            if (reference.empty())
                reference = ctx.wl.isolated ? t.inproc.json : t.cold.json;
            if (a.trace)
                (traced ? traced_wall : untraced_wall)
                    .push_back(t.cold.wall);
            if (!traced)
                trials.push_back(std::move(t));
        }
    }
    std::vector<double> rss;
    for (const Trial &t : trials)
        rss.push_back(t.rssMb);

    // -j1 rerun of two cells, in the reverse of their batch order:
    // results must not depend on the worker count, the submission
    // order or the neighbours a cell ran beside.
    {
        const std::size_t a0 = a.seed % cells.size();
        const std::size_t a1 = (a.seed + 1) % cells.size();
        Pass p = runPass(ctx, {cells[a1], cells[a0]}, false, "", 1);
        tally.settle(p.out, "-j1 check");
        tally.same({reference[a1], reference[a0]}, p.out, "-j1 rerun");
    }

    const exp::BatchOutcome &first = trials.front().cold.out;
    std::map<std::string, double> ratios;
    const double gain = resizeGain(ctx, first, &ratios);
    // The golden table applies whenever the committed programs ran.
    if (!ctx.wl.seeded || a.seed == 0) {
        const std::string table = readFile(a.golden);
        if (table.empty())
            tally.fail("cannot read golden table " + a.golden);
        for (const std::string &w : goldenMismatches(table, ratios)) {
            tally.fail("Fig. 7 Res ratio of " + w + " (" +
                       std::to_string(ratios[w]) +
                       ") differs from the golden table");
        }
        tally.attempted += ratios.size();
    }

    if (!a.trace) {
        std::vector<double> wall, cpu, rerun, cps, mips;
        for (const Trial &t : trials) {
            wall.push_back(t.cold.wall);
            cpu.push_back(t.cold.cpu);
            rerun.insert(rerun.end(), t.rerunWalls.begin(),
                         t.rerunWalls.end());
            const Pass &sim = ctx.wl.isolated ? t.inproc : t.cold;
            if (sim.out.outcomes.empty())
                continue;
            double host = 0, cycles = 0, insts = 0;
            for (std::size_t i = 0; i < cells.size(); ++i) {
                const exp::JobOutcome &o = sim.out.outcomes[i];
                host += sim.cellCpu[i];
                cycles += static_cast<double>(o.result.cycles);
                insts += static_cast<double>(o.result.committed);
            }
            cps.push_back(cycles / host);
            mips.push_back(insts / host / 1e6);
        }
        m["wall_s"] = median(wall);
        m["cpu_s"] = median(cpu);
        m["rerun_wall_s"] = median(rerun);
        m["sim_cycles_per_s"] = median(cps);
        m["sim_mips"] = median(mips);
        m["setup_s"] = median(setups);
        m["peak_rss_mb"] = median(rss);
        m["resize_ipc_gain_gm"] = gain;
    } else {
        std::vector<double> ns_per_cycle, idle;
        double hits = 0, lookups = 0;
        for (const Trial &t : trials) {
            double busy = 0;
            for (const exp::JobOutcome &o : t.cold.out.outcomes)
                busy += o.wallSeconds;
            const Pass &sim = ctx.wl.isolated ? t.inproc : t.cold;
            for (std::size_t i = 0; i < cells.size(); ++i)
                ns_per_cycle.push_back(
                    1e9 * sim.cellCpu[i] /
                    static_cast<double>(std::max<std::uint64_t>(
                        sim.out.outcomes[i].result.cycles, 1)));
            idle.push_back(1.0 - busy / (t.cold.wall * ctx.workers));
            hits += static_cast<double>(t.cold.out.cacheHits +
                                        t.warm.out.cacheHits);
            lookups += static_cast<double>(2 * cells.size());
        }
        m["cpu.ns_per_cycle"] = median(ns_per_cycle);
        m["exp.worker_idle_share"] = median(idle);
        m["cache.hit_ratio"] = hits / lookups;

        // Core-stage shares from the Profiler's sampled stage spans of
        // the traced in-process passes.
        double stage_total = 0;
        for (double ns : stage_ns)
            stage_total += ns;
        for (std::size_t i = 0; i < kNumStages; ++i)
            m[std::string("cpu.") + kStages[i].name + "_share"] =
                stage_total > 0 ? stage_ns[i] / stage_total : 0.0;

        m["workloads.build_ms"] =
            median(ctx.log.durationsMs("workloads.build"));
        m["sim.construct_ms"] =
            median(ctx.log.durationsMs("sim.construct"));

        Quartiles tq = quartiles(
            signedOverheadPct(untraced_wall, traced_wall));
        m["trace.overhead_pct"] = tq.median;
        m["trace.overhead_pct_q1"] = tq.q1;
        m["trace.overhead_pct_q3"] = tq.q3;

        // Layer probes, traced like the trials.
        ctx.spans = &ctx.log;
        ProbeTimes pt = probeLayers(ctx);
        m["emu.step_ns"] = pt.emuNs / pt.emuInsts;
        m["sample.ff_ns_per_inst"] = pt.ffNs / pt.ffInsts;
        m["mem.access_ns"] = pt.memNs / pt.memOps;
        m["branch.predict_ns"] = pt.bpNs / pt.bpOps;
        probePaging(ctx, m);
        std::vector<double> iso;
        if (ctx.wl.isolated) {
            std::vector<double> inproc, isolated;
            for (const Trial &t : trials) {
                inproc.push_back(t.inproc.wall);
                isolated.push_back(t.cold.wall);
            }
            iso = signedOverheadPct(inproc, isolated);
        } else {
            iso = probeIsolation(ctx, tally);
        }
        Quartiles iq = quartiles(iso);
        m["serve.isolate_overhead_pct"] = iq.median;
        m["serve.isolate_overhead_pct_q1"] = iq.q1;
        m["serve.isolate_overhead_pct_q3"] = iq.q3;
        probeCache(ctx, tally, reference, m);
        m["serve.job_codec_us"] = probeCodec(ctx);
        ctx.spans = nullptr;
        simulatedStats(ctx, first, m);
        ctx.log.write((fs::path(a.workDir) /
                       ("spans-" + a.workload + "-seed" +
                        std::to_string(a.seed) + ".jsonl"))
                          .string());
    }
    return emit(m, a.trace, tally);
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    try {
        if (a.listMetrics) {
            for (const MetricDef &d : catalogue())
                std::printf("%s %s %s\n", d.name, d.unit,
                            d.layer ? "per_layer" : "end_to_end");
            return 0;
        }
        if (a.selfTest)
            return selfTest(a);
        return runBenchmark(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
