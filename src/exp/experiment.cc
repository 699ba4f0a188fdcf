#include "exp/experiment.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <exception>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <queue>
#include <stdexcept>
#include <thread>

#include "cache/result_cache.hh"
#include "exp/checkpoint.hh"
#include "exp/result_writer.hh"
#include "exp/thread_pool.hh"
#include "profile/profiler.hh"
#include "sample/checkpoint.hh"
#include "telemetry/export.hh"
#include "telemetry/timeline.hh"
#include "workloads/suite.hh"

namespace mlpwin
{
namespace exp
{

std::string
ModelSpec::displayLabel() const
{
    if (!label.empty())
        return label;
    std::string s = modelName(model);
    if (model == ModelKind::Fixed || model == ModelKind::Ideal)
        s += std::to_string(level);
    return s;
}

bool
parseModelSpec(const std::string &token, ModelSpec &out)
{
    std::string name = token;
    std::string level;
    if (auto colon = token.find(':'); colon != std::string::npos) {
        name = token.substr(0, colon);
        level = token.substr(colon + 1);
    }
    if (!parseModelName(name, out.model))
        return false;
    out.level = 1;
    if (!level.empty()) {
        char *end = nullptr;
        unsigned long v = std::strtoul(level.c_str(), &end, 10);
        if (*end != '\0' || v == 0 || v > kMaxLevels)
            return false;
        out.level = static_cast<unsigned>(v);
    }
    out.label.clear();
    return true;
}

std::vector<ExperimentJob>
expandSpec(const ExperimentSpec &spec)
{
    std::vector<ExperimentJob> jobs;
    jobs.reserve(spec.jobCount());
    for (const std::string &w : spec.workloads) {
        for (const ModelSpec &m : spec.models) {
            ExperimentJob job;
            job.index = jobs.size();
            job.workload = w;
            job.model = m;
            job.cfg = spec.base;
            job.cfg.model = m.model;
            job.cfg.fixedLevel = m.level;
            if (spec.configure)
                spec.configure(job.cfg, job);
            jobs.push_back(std::move(job));
        }
    }
    return jobs;
}

std::string
jobKey(const ExperimentJob &job)
{
    return job.workload + "/" + job.model.displayLabel();
}

const char *
jobStateName(JobState s)
{
    switch (s) {
      case JobState::Ok:
        return "ok";
      case JobState::Failed:
        return "failed";
      case JobState::Timeout:
        return "timeout";
      case JobState::Skipped:
        return "skipped";
    }
    return "?";
}

std::size_t
BatchOutcome::count(JobState s) const
{
    std::size_t n = 0;
    for (const JobOutcome &o : outcomes)
        if (o.state == s)
            ++n;
    return n;
}

namespace
{

/** Per-job telemetry file stem: "<workload>.<label>". */
std::string
jobFileStem(const ExperimentJob &job)
{
    return job.workload + "." + job.model.displayLabel();
}

} // namespace

SimResult
runJob(const ExperimentSpec &spec, const ExperimentJob &job,
       const ArchCheckpoint *arch_ckpt)
{
    ScopedSpan span(SpanKind::Job, jobKey(job));

    if (spec.executor)
        return spec.executor(job);

    SimConfig cfg = job.cfg;
    cfg.startCheckpoint = arch_ckpt;

    // A '+'-separated workload is an SMT co-schedule; a single name
    // on a multi-thread config is replicated onto every thread.
    std::vector<std::string> parts = splitWorkloadSpec(job.workload);
    if (parts.size() == 1 && cfg.core.smt.nThreads > 1)
        parts.assign(cfg.core.smt.nThreads, parts[0]);
    std::vector<Program> progs;
    progs.reserve(parts.size());
    for (const std::string &part : parts)
        progs.push_back(findWorkload(part).make(spec.iterations));
    Simulator sim(cfg, progs);

    if (spec.jobTimeoutSeconds > 0.0)
        sim.setDeadline(std::chrono::steady_clock::now() +
                        std::chrono::duration_cast<
                            std::chrono::steady_clock::duration>(
                            std::chrono::duration<double>(
                                spec.jobTimeoutSeconds)));
    if (spec.abortFlag)
        sim.setAbortFlag(spec.abortFlag);

    if (spec.telemetryDir.empty())
        return sim.run();

    IntervalSampler sampler(spec.telemetryInterval);
    EventTimeline timeline;
    sim.setSampler(&sampler);
    sim.setTimeline(&timeline);

    SimResult r = sim.run();

    std::string stem = spec.telemetryDir + "/" + jobFileStem(job);
    std::ofstream series(stem + ".telemetry.jsonl");
    if (!series)
        throw SimError(ErrorCode::Io, "cannot open " + stem +
                                          ".telemetry.jsonl");
    writeTelemetryJsonl(series, sampler);

    std::ofstream trace(stem + ".trace.json");
    if (!trace)
        throw SimError(ErrorCode::Io,
                       "cannot open " + stem + ".trace.json");
    writeChromeTrace(trace, timeline, jobFileStem(job));
    return r;
}

namespace
{

/** Map a caught SimError onto the outcome record. */
void
recordFailure(JobOutcome &out, const SimError &e)
{
    out.error = e.code();
    out.errorDetail = e.message();
    if (e.hasDump())
        out.dumpJson = e.dump().toJson();
    switch (e.code()) {
      case ErrorCode::Timeout:
        out.state = JobState::Timeout;
        break;
      case ErrorCode::Interrupted:
        out.state = JobState::Skipped;
        break;
      default:
        out.state = JobState::Failed;
        break;
    }
}

/**
 * In-process executor backend: a small scheduler over `threads`
 * workers with a ready deque and a delayed min-heap. A job whose
 * attempt failed transiently is re-enqueued with a not-before
 * deadline instead of sleeping on the worker thread, so a slot in
 * retry backoff still executes other jobs (satellite of PR 8; the
 * old implementation parked the pool thread for the whole backoff).
 */
void
runInProcess(const ExperimentSpec &spec,
             const std::vector<ExperimentJob> &jobs,
             const std::vector<std::size_t> &pending,
             const std::function<void(std::size_t, JobOutcome &&)>
                 &settle,
             const std::map<std::string, ArchCheckpoint> &arch_ckpts,
             unsigned threads)
{
    using Clock = std::chrono::steady_clock;

    /** Mutable per-pending-job state, alive across re-enqueues. */
    struct Pend
    {
        std::size_t index = 0; ///< Into `jobs`.
        unsigned attempts = 0;
        bool started = false;
        Clock::time_point firstStart{};
        JobOutcome out;
    };

    std::vector<Pend> pend(pending.size());
    std::mutex m;
    std::condition_variable cv;
    std::deque<std::size_t> ready; // Indices into `pend`.
    struct Delayed
    {
        Clock::time_point due;
        std::size_t pi;
    };
    auto later = [](const Delayed &a, const Delayed &b) {
        return a.due > b.due;
    };
    std::priority_queue<Delayed, std::vector<Delayed>, decltype(later)>
        delayed(later);
    std::size_t unsettled = pending.size();

    for (std::size_t i = 0; i < pending.size(); ++i) {
        pend[i].index = pending[i];
        ready.push_back(i);
    }

    // One execution attempt; true when the job settled (p.out final),
    // false when it should be re-enqueued after backoff. Semantics
    // match the old inline retry loop: only transient errors retry,
    // a cancellation stops retries, attempts are cumulative, and
    // wallSeconds spans first attempt to settlement (backoff
    // included).
    auto run_attempt = [&](Pend &p) -> bool {
        const ExperimentJob &job = jobs[p.index];
        if (!p.started) {
            if (spec.cancelRequested && spec.cancelRequested()) {
                p.out.state = JobState::Skipped;
                p.out.error = ErrorCode::Interrupted;
                p.out.errorDetail = "cancelled before start";
                return true;
            }
            p.started = true;
            p.firstStart = Clock::now();
        }
        p.out.attempts = ++p.attempts;
        const ArchCheckpoint *arch = nullptr;
        if (auto ck = arch_ckpts.find(job.workload);
            ck != arch_ckpts.end())
            arch = &ck->second;
        bool ok = false;
        try {
            p.out.result = runJob(spec, job, arch);
            p.out.state = JobState::Ok;
            p.out.error = ErrorCode::Ok;
            p.out.errorDetail.clear();
            p.out.dumpJson.clear();
            ok = true;
        } catch (const SimError &e) {
            recordFailure(p.out, e);
        } catch (const std::exception &e) {
            p.out.state = JobState::Failed;
            p.out.error = ErrorCode::Internal;
            p.out.errorDetail = e.what();
        }
        if (!ok) {
            bool cancelled =
                spec.cancelRequested && spec.cancelRequested();
            if (errorCodeTransient(p.out.error) &&
                p.attempts < std::max(spec.maxAttempts, 1u) &&
                !cancelled)
                return false; // Re-enqueue with a backoff deadline.
        }
        p.out.wallSeconds =
            std::chrono::duration<double>(Clock::now() -
                                          p.firstStart)
                .count();
        return true;
    };

    auto worker = [&] {
        std::unique_lock<std::mutex> lock(m);
        for (;;) {
            Clock::time_point now = Clock::now();
            while (!delayed.empty() && delayed.top().due <= now) {
                ready.push_back(delayed.top().pi);
                delayed.pop();
            }
            if (ready.empty()) {
                if (unsettled == 0)
                    return;
                if (!delayed.empty())
                    cv.wait_until(lock, delayed.top().due);
                else
                    cv.wait(lock);
                continue;
            }
            std::size_t pi = ready.front();
            ready.pop_front();
            lock.unlock();

            bool settled = run_attempt(pend[pi]);

            if (settled)
                settle(pend[pi].index, std::move(pend[pi].out));
            lock.lock();
            if (settled) {
                --unsettled;
            } else {
                delayed.push(
                    {Clock::now() +
                         std::chrono::milliseconds(
                             static_cast<std::uint64_t>(
                                 spec.retryBackoffMs) *
                             pend[pi].attempts),
                     pi});
            }
            cv.notify_all();
        }
    };

    if (threads <= 1) {
        worker();
        return;
    }
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
}

} // namespace

ExperimentRunner::ExperimentRunner(unsigned jobs, bool progress)
    : jobs_(ThreadPool::resolveThreads(jobs)), progress_(progress)
{}

BatchOutcome
ExperimentRunner::runAll(const ExperimentSpec &spec) const
{
    return runAll(spec, nullptr);
}

BatchOutcome
ExperimentRunner::runAll(const ExperimentSpec &spec,
                         JobExecutorBackend *backend) const
{
    // Force suite construction (and its magic static) before any
    // worker races to it, and fail fast on unknown workload names —
    // findWorkload throws a SimError listing the valid names. The
    // test-seam executor may use synthetic names, so skip then.
    if (!spec.executor)
        for (const std::string &w : spec.workloads)
            for (const std::string &part : splitWorkloadSpec(w))
                findWorkload(part);

    // Create the telemetry directory once, before workers race to
    // open files inside it.
    if (!spec.telemetryDir.empty())
        std::filesystem::create_directories(spec.telemetryDir);

    BatchOutcome batch;
    batch.jobs = expandSpec(spec);
    batch.outcomes.resize(batch.jobs.size());

    // Load each workload's architectural checkpoint exactly once, up
    // front: a missing file fails the batch before simulation time is
    // spent, and the (read-only) image is shared by every cell of
    // that workload's row.
    std::map<std::string, ArchCheckpoint> arch_ckpts;
    if (!spec.archCheckpointDir.empty() && !spec.executor) {
        for (const std::string &w : spec.workloads) {
            if (arch_ckpts.count(w))
                continue;
            arch_ckpts.emplace(
                w, ArchCheckpoint::loadFile(spec.archCheckpointDir +
                                            "/" + w + ".ckpt"));
        }
    }

    // Content-addressed result cache: each job's key folds the full
    // cell identity — configFingerprint (every result-identity field
    // of the SimConfig field registry), the workload's program
    // identity, the iteration count, and the result-schema version.
    // Any construction failure already degraded to cache-off with a
    // warning inside the ResultCache constructor.
    std::unique_ptr<cache::ResultCache> rcache;
    std::map<std::string, std::uint64_t> prog_identity;
    std::vector<std::uint64_t> cache_keys;
    if (!spec.cacheDir.empty()) {
        rcache = std::make_unique<cache::ResultCache>(spec.cacheDir);
        if (!rcache->enabled())
            rcache.reset();
    }
    if (rcache) {
        for (const std::string &w : spec.workloads) {
            if (prog_identity.count(w))
                continue;
            std::uint64_t h;
            if (spec.executor) {
                // Synthetic test workloads have no Program; their
                // name is their identity.
                h = cache::fnv1a(w.data(), w.size());
            } else {
                h = 0;
                for (const std::string &part : splitWorkloadSpec(w))
                    h = cache::foldKey(
                        {h, programHash(findWorkload(part).make(
                                spec.iterations))});
                if (auto it = arch_ckpts.find(w);
                    it != arch_ckpts.end())
                    h = cache::foldKey({h,
                                        it->second.programHash(),
                                        it->second.instCount()});
            }
            prog_identity.emplace(w, h);
        }
        cache_keys.resize(batch.jobs.size());
        for (const ExperimentJob &job : batch.jobs) {
            cache_keys[job.index] = cache::foldKey(
                {configFingerprint(job.cfg),
                 prog_identity.at(job.workload), spec.iterations,
                 cache::kResultSchemaVersion});
        }
    }

    std::map<std::string, SimResult> resumed;
    if (spec.resume && !spec.checkpointPath.empty())
        resumed = loadCheckpoint(spec.checkpointPath,
                                 &batch.tornCheckpointLines);
    std::unique_ptr<CheckpointWriter> ckpt;
    if (!spec.checkpointPath.empty())
        ckpt = std::make_unique<CheckpointWriter>(spec.checkpointPath,
                                                  spec.resume);

    const auto start = std::chrono::steady_clock::now();
    std::atomic<std::size_t> done{0};
    std::mutex progress_mutex;

    auto note = [&](const ExperimentJob &job, const JobOutcome &out) {
        std::size_t n = ++done;
        if (spec.onJobSettled)
            spec.onJobSettled(job, out);
        if (!progress_)
            return;
        double elapsed =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - start)
                .count();
        double eta = n ? elapsed / static_cast<double>(n) *
                             static_cast<double>(batch.jobs.size() - n)
                       : 0.0;
        std::lock_guard<std::mutex> lock(progress_mutex);
        if (out.state == JobState::Ok) {
            std::fprintf(
                stderr,
                "  [%zu/%zu] %s%s ipc %.3f  elapsed %.1fs eta "
                "%.1fs\n",
                n, batch.jobs.size(), jobKey(job).c_str(),
                out.resumed ? " [resumed]"
                            : (out.cacheHit ? " [cache]" : ""),
                out.result.ipc,
                elapsed, eta);
        } else {
            std::fprintf(stderr, "  [%zu/%zu] %s %s: %s\n", n,
                         batch.jobs.size(), jobKey(job).c_str(),
                         jobStateName(out.state),
                         out.errorDetail.c_str());
        }
    };

    // Skipped jobs are deliberately NOT checkpointed: a resume must
    // re-run interrupted cells. Failed/timeout records are kept for
    // postmortems but never adopted by loadCheckpoint. Thread-safe:
    // the writer locks, outcome slots are index-exclusive, the cache
    // locks internally. Fresh ok results are stored back to the
    // cache (adopted ones are already there / already checkpointed).
    auto settle = [&](std::size_t index, JobOutcome &&o) {
        JobOutcome &out = batch.outcomes[index];
        out = std::move(o);
        if (ckpt && out.state != JobState::Skipped)
            ckpt->append(batch.jobs[index], out);
        if (rcache && out.state == JobState::Ok && !out.resumed &&
            !out.cacheHit) {
            const ExperimentJob &job = batch.jobs[index];
            if (rcache->put(cache_keys[index],
                            resultToJson(out.result), job.workload,
                            job.model.displayLabel(),
                            configFingerprint(job.cfg),
                            prog_identity.at(job.workload)) &&
                spec.onCacheStored)
                spec.onCacheStored(
                    rcache->entryPath(cache_keys[index]), index,
                    out.attempts);
        }
        note(batch.jobs[index], out);
    };

    // Adopt resumed cells up front (no re-append to the checkpoint),
    // then cells with a verified cache entry (checkpointed like any
    // fresh settle, so a later resume adopts them the normal way);
    // everything else is pending for the executor backend.
    std::vector<std::size_t> pending;
    pending.reserve(batch.jobs.size());
    for (const ExperimentJob &job : batch.jobs) {
        JobOutcome &out = batch.outcomes[job.index];
        if (auto it = resumed.find(jobKey(job));
            it != resumed.end()) {
            out.state = JobState::Ok;
            out.result = it->second;
            out.resumed = true;
            note(job, out);
            continue;
        }
        if (rcache && spec.telemetryDir.empty()) {
            std::string payload;
            if (rcache->get(cache_keys[job.index], payload)) {
                JobOutcome hit;
                bool parsed = false;
                try {
                    hit.result = resultFromJson(payload);
                    parsed = true;
                } catch (const std::exception &e) {
                    // Checksum-valid bytes that still fail to parse
                    // mean a schema drift the version field missed.
                    rcache->quarantine(
                        cache_keys[job.index],
                        std::string("verified payload failed to "
                                    "parse: ") +
                            e.what());
                }
                if (parsed) {
                    hit.state = JobState::Ok;
                    hit.error = ErrorCode::Ok;
                    hit.cacheHit = true;
                    settle(job.index, std::move(hit));
                    continue;
                }
            }
        }
        pending.push_back(job.index);
    }

    if (backend)
        backend->execute(spec, batch.jobs, pending, settle);
    else
        runInProcess(spec, batch.jobs, pending, settle, arch_ckpts,
                     jobs_);

    if (rcache) {
        cache::CacheStats cs = rcache->stats();
        batch.cacheHits = cs.hits;
        batch.cacheStores = cs.stores;
        batch.cacheQuarantined = cs.quarantined;
    }
    return batch;
}

std::vector<SimResult>
ExperimentRunner::run(const ExperimentSpec &spec) const
{
    BatchOutcome batch = runAll(spec);
    for (std::size_t i = 0; i < batch.outcomes.size(); ++i) {
        const JobOutcome &o = batch.outcomes[i];
        if (o.state == JobState::Ok)
            continue;
        throw SimError(o.error == ErrorCode::Ok ? ErrorCode::Internal
                                                : o.error,
                       jobKey(batch.jobs[i]) + " " +
                           jobStateName(o.state) + ": " +
                           o.errorDetail);
    }
    std::vector<SimResult> results;
    results.reserve(batch.outcomes.size());
    for (JobOutcome &o : batch.outcomes)
        results.push_back(std::move(o.result));
    return results;
}

} // namespace exp
} // namespace mlpwin
