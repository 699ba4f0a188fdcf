/**
 * @file
 * Wire-protocol tests: frame round-trips under arbitrary chunking,
 * torn/malformed stream detection, job serialization fidelity for
 * every wire config field, and the byte-exact result slice that
 * makes cross-process results bit-identical to in-process ones.
 */

#include <gtest/gtest.h>

#include "exp/result_writer.hh"
#include "serve/protocol.hh"
#include "smt/smt_config.hh"

namespace mlpwin
{
namespace serve
{
namespace
{

TEST(FrameTest, EncodeDecodeRoundTrips)
{
    FrameBuffer buf;
    std::string frame = frameEncode("{\"a\":1}");
    buf.feed(frame.data(), frame.size());
    std::string payload;
    ASSERT_TRUE(buf.next(payload));
    EXPECT_EQ(payload, "{\"a\":1}");
    EXPECT_FALSE(buf.next(payload));
    EXPECT_FALSE(buf.midFrame());
}

TEST(FrameTest, ByteAtATimeFeedingYieldsSameFrames)
{
    std::string stream = frameEncode("first") + frameEncode("") +
                         frameEncode("third payload");
    FrameBuffer buf;
    std::vector<std::string> got;
    for (char c : stream) {
        buf.feed(&c, 1);
        std::string payload;
        while (buf.next(payload))
            got.push_back(payload);
    }
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], "first");
    EXPECT_EQ(got[1], "");
    EXPECT_EQ(got[2], "third payload");
    EXPECT_FALSE(buf.midFrame());
}

TEST(FrameTest, TruncatedFrameIsMidFrameNotAFrame)
{
    // A worker killed mid-write leaves exactly this: a prefix of a
    // valid frame. The receiver must report "incomplete", never a
    // payload.
    std::string frame = frameEncode("{\"type\":\"result\"}");
    for (std::size_t cut = 1; cut < frame.size(); ++cut) {
        FrameBuffer buf;
        buf.feed(frame.data(), cut);
        std::string payload;
        EXPECT_FALSE(buf.next(payload)) << "cut at " << cut;
        EXPECT_TRUE(buf.midFrame()) << "cut at " << cut;
    }
}

TEST(FrameTest, MalformedStreamsThrowWorkerCrash)
{
    auto expectThrow = [](const std::string &bytes) {
        FrameBuffer buf;
        buf.feed(bytes.data(), bytes.size());
        std::string payload;
        try {
            while (buf.next(payload)) {
            }
            FAIL() << "accepted malformed stream: " << bytes;
        } catch (const SimError &e) {
            EXPECT_EQ(e.code(), ErrorCode::WorkerCrash);
        }
    };
    expectThrow("not-a-number\n{}\n");
    expectThrow("99999999999999999999\n"); // overflows the cap
    expectThrow("3\nabcX");                // missing terminator
    expectThrow("\n\n");                   // empty length
    // A plausible-length prefix with no newline after 32 bytes.
    expectThrow(std::string(40, '1'));
}

/**
 * The payload cap is inclusive: frames of kMaxFramePayload and
 * kMaxFramePayload-1 bytes decode normally, one byte more is
 * detected as corrupt from the length prefix alone — before any
 * payload arrives — so a giant advertised length can never make the
 * receiver wait (or allocate) for bytes that will not come.
 */
TEST(FrameTest, PayloadCapBoundaryIsExact)
{
    for (std::size_t size :
         {kMaxFramePayload - 1, kMaxFramePayload}) {
        FrameBuffer buf;
        std::string frame = frameEncode(std::string(size, 'x'));
        buf.feed(frame.data(), frame.size());
        std::string payload;
        ASSERT_TRUE(buf.next(payload)) << "size " << size;
        EXPECT_EQ(payload.size(), size);
        EXPECT_FALSE(buf.midFrame());
    }

    // One byte over: the bare prefix is enough to throw.
    FrameBuffer buf;
    std::string prefix =
        std::to_string(kMaxFramePayload + 1) + "\n";
    buf.feed(prefix.data(), prefix.size());
    std::string payload;
    try {
        buf.next(payload);
        FAIL() << "accepted an oversized length prefix";
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::WorkerCrash);
    }
}

exp::ExperimentJob
sampleJob()
{
    exp::ExperimentJob job;
    job.index = 7;
    job.workload = "mcf+gcc";
    job.model = {ModelKind::Resizing, 3, "my-label"};
    job.cfg.model = ModelKind::Resizing;
    job.cfg.fixedLevel = 3;
    job.cfg.warmInstCaches = false;
    job.cfg.warmDataCaches = true;
    job.cfg.warmupInsts = 12345;
    job.cfg.functionalWarmup = true;
    job.cfg.lockstepCheck = true;
    job.cfg.maxInsts = 999;
    job.cfg.maxCycles = 123456789012ULL;
    job.cfg.sampling.enabled = true;
    job.cfg.sampling.intervalInsts = 11;
    job.cfg.sampling.periodInsts = 222;
    job.cfg.sampling.detailedWarmupInsts = 33;
    job.cfg.watchdog.enabled = false;
    job.cfg.watchdog.noCommitWindow = 4444;
    job.cfg.watchdog.checkInterval = 55;
    job.cfg.core.smt.nThreads = 2;
    job.cfg.core.smt.fetchPolicy = FetchPolicy::Predictive;
    job.cfg.core.smt.partitionPolicy = PartitionPolicy::MlpAware;
    job.cfg.core.debugStallCommitAt = 777;
    return job;
}

TEST(JobWireTest, EveryWireFieldRoundTrips)
{
    exp::ExperimentSpec spec;
    spec.iterations = 42;
    spec.jobTimeoutSeconds = 1.5;
    spec.maxAttempts = 4;
    spec.retryBackoffMs = 250;
    spec.archCheckpointDir = "ckpts";
    spec.telemetryDir = "telem \"dir\"";
    spec.telemetryInterval = 5000;

    exp::ExperimentJob job = sampleJob();
    std::string json = jobToJson(spec, job, 2);

    exp::ExperimentSpec spec2;
    exp::ExperimentJob job2;
    unsigned attempt = 0;
    jobFromJson(json, spec2, job2, attempt);

    EXPECT_EQ(attempt, 2u);
    EXPECT_EQ(job2.index, job.index);
    EXPECT_EQ(job2.workload, job.workload);
    EXPECT_EQ(job2.model.model, job.model.model);
    EXPECT_EQ(job2.model.level, job.model.level);
    EXPECT_EQ(job2.model.label, job.model.label);

    EXPECT_EQ(spec2.iterations, spec.iterations);
    EXPECT_DOUBLE_EQ(spec2.jobTimeoutSeconds,
                     spec.jobTimeoutSeconds);
    EXPECT_EQ(spec2.maxAttempts, spec.maxAttempts);
    EXPECT_EQ(spec2.retryBackoffMs, spec.retryBackoffMs);
    EXPECT_EQ(spec2.archCheckpointDir, spec.archCheckpointDir);
    EXPECT_EQ(spec2.telemetryDir, spec.telemetryDir);
    EXPECT_EQ(spec2.telemetryInterval, spec.telemetryInterval);

    const SimConfig &a = job.cfg, &b = job2.cfg;
    EXPECT_EQ(b.model, a.model);
    EXPECT_EQ(b.fixedLevel, a.fixedLevel);
    EXPECT_EQ(b.warmInstCaches, a.warmInstCaches);
    EXPECT_EQ(b.warmDataCaches, a.warmDataCaches);
    EXPECT_EQ(b.warmupInsts, a.warmupInsts);
    EXPECT_EQ(b.functionalWarmup, a.functionalWarmup);
    EXPECT_EQ(b.lockstepCheck, a.lockstepCheck);
    EXPECT_EQ(b.maxInsts, a.maxInsts);
    EXPECT_EQ(b.maxCycles, a.maxCycles);
    EXPECT_EQ(b.sampling.enabled, a.sampling.enabled);
    EXPECT_EQ(b.sampling.intervalInsts, a.sampling.intervalInsts);
    EXPECT_EQ(b.sampling.periodInsts, a.sampling.periodInsts);
    EXPECT_EQ(b.sampling.detailedWarmupInsts,
              a.sampling.detailedWarmupInsts);
    EXPECT_EQ(b.watchdog.enabled, a.watchdog.enabled);
    EXPECT_EQ(b.watchdog.noCommitWindow, a.watchdog.noCommitWindow);
    EXPECT_EQ(b.watchdog.checkInterval, a.watchdog.checkInterval);
    EXPECT_EQ(b.core.smt.nThreads, a.core.smt.nThreads);
    EXPECT_EQ(b.core.smt.fetchPolicy, a.core.smt.fetchPolicy);
    EXPECT_EQ(b.core.smt.partitionPolicy,
              a.core.smt.partitionPolicy);
    EXPECT_EQ(b.core.debugStallCommitAt, a.core.debugStallCommitAt);
}

TEST(JobWireTest, StallCommitSentinelSurvives)
{
    // kNoCycle is the "never" sentinel; losing it to a round-trip
    // would wedge every isolated job at cycle 0.
    exp::ExperimentSpec spec;
    exp::ExperimentJob job = sampleJob();
    job.cfg.core.debugStallCommitAt = kNoCycle;
    exp::ExperimentSpec spec2;
    exp::ExperimentJob job2;
    unsigned attempt = 0;
    jobFromJson(jobToJson(spec, job, 1), spec2, job2, attempt);
    EXPECT_EQ(job2.cfg.core.debugStallCommitAt, kNoCycle);
}

/**
 * Fig. 10's enlarged L2 (2.5 MB, 5-way) is set by a spec `configure`
 * hook; under --isolate it must reach the worker whole, not as the
 * Table-1 default L2.
 */
TEST(JobWireTest, Fig10BigL2SurvivesTheWire)
{
    exp::ExperimentSpec spec;
    exp::ExperimentJob job = sampleJob();
    job.cfg.mem.l2.sizeBytes = 2621440;
    job.cfg.mem.l2.assoc = 5;
    exp::ExperimentSpec spec2;
    exp::ExperimentJob job2;
    unsigned attempt = 0;
    jobFromJson(jobToJson(spec, job, 1), spec2, job2, attempt);
    EXPECT_EQ(job2.cfg.mem.l2.sizeBytes, 2621440u);
    EXPECT_EQ(job2.cfg.mem.l2.assoc, 5u);
    EXPECT_EQ(job2.cfg.mem.l2.lineBytes, job.cfg.mem.l2.lineBytes);
    EXPECT_EQ(job2.cfg.mem.l2.hitLatency, job.cfg.mem.l2.hitLatency);
    EXPECT_EQ(job2.cfg.mem.l2.mshrs, job.cfg.mem.l2.mshrs);
}

TEST(WorkerMessageTest, ResultSliceIsByteExact)
{
    SimResult r;
    r.workload = "mcf";
    r.model = "resizing";
    r.halted = true;
    r.committed = 300000;
    r.cycles = 1234567;
    // Non-terminating decimals stress the %.17g round-trip.
    r.ipc = 300000.0 / 1234567.0;

    std::string msg = resultMessage(7, 2, 1.25, r);
    WorkerMessage m = parseWorkerMessage(msg);
    ASSERT_EQ(m.kind, WorkerMessage::Kind::Result);
    EXPECT_EQ(m.index, 7u);
    EXPECT_EQ(m.attempts, 2u);
    EXPECT_DOUBLE_EQ(m.wallSeconds, 1.25);
    // The slice must be exactly what resultToJson produced, so the
    // reparse reproduces the in-memory result bit-for-bit.
    EXPECT_EQ(m.resultJson, exp::resultToJson(r));
    SimResult r2 = exp::resultFromJson(m.resultJson);
    EXPECT_EQ(exp::resultToJson(r2), exp::resultToJson(r));
}

TEST(WorkerMessageTest, ErrorCarriesCodeDetailAndDump)
{
    DiagnosticDump d;
    d.workload = "mcf";
    d.model = "base";
    d.cycle = 3350;
    std::string msg = errorMessage(3, 1, 0.5, ErrorCode::NoProgress,
                                   "no commit for 3000 cycles",
                                   d.toJson());
    WorkerMessage m = parseWorkerMessage(msg);
    ASSERT_EQ(m.kind, WorkerMessage::Kind::Error);
    EXPECT_EQ(m.index, 3u);
    EXPECT_EQ(m.error, ErrorCode::NoProgress);
    EXPECT_EQ(m.detail, "no commit for 3000 cycles");
    EXPECT_EQ(m.dumpJson, d.toJson());

    // Dump-less errors parse too.
    WorkerMessage m2 = parseWorkerMessage(errorMessage(
        1, 1, 0.0, ErrorCode::Internal, "boom", ""));
    EXPECT_TRUE(m2.dumpJson.empty());
}

TEST(WorkerMessageTest, HeartbeatAndHelloParse)
{
    WorkerMessage hb = parseWorkerMessage(heartbeatMessage(9));
    EXPECT_EQ(hb.kind, WorkerMessage::Kind::Heartbeat);
    EXPECT_EQ(hb.index, 9u);
    WorkerMessage hello = parseWorkerMessage(helloMessage());
    EXPECT_EQ(hello.kind, WorkerMessage::Kind::Hello);
}

TEST(WorkerMessageTest, GarbageThrowsWorkerCrash)
{
    EXPECT_THROW(parseWorkerMessage("{\"type\":\"???\"}"), SimError);
    EXPECT_THROW(parseWorkerMessage("not json at all"), SimError);
}

} // namespace
} // namespace serve
} // namespace mlpwin
