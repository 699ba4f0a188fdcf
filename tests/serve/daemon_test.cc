/**
 * @file
 * mlpwind daemon tests: spec-line parsing (schema, defaults, id
 * hygiene) and a live socket round-trip — submit a tiny spec, stream
 * the events, kill nothing, and check the result file; then resubmit
 * the same id and watch every cell adopt from the checkpoint.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "exp/experiment.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"

namespace mlpwin
{
namespace serve
{
namespace
{

bool
parseOk(const std::string &json, std::string &id,
        exp::ExperimentSpec &spec)
{
    std::string err;
    bool ok = parseDaemonSpec(json, id, spec, err);
    EXPECT_TRUE(ok) << json << ": " << err;
    return ok;
}

TEST(DaemonSpecTest, MinimalSpecGetsBatchDefaults)
{
    std::string id;
    exp::ExperimentSpec spec;
    ASSERT_TRUE(parseOk(
        "{\"id\":\"fig07\",\"workloads\":[\"mcf\"]}", id, spec));
    EXPECT_EQ(id, "fig07");
    ASSERT_EQ(spec.workloads.size(), 1u);
    EXPECT_EQ(spec.workloads[0], "mcf");
    // Default model columns mirror mlpwin_batch: base + resizing.
    ASSERT_EQ(spec.models.size(), 2u);
    EXPECT_EQ(spec.models[0].model, ModelKind::Base);
    EXPECT_EQ(spec.models[1].model, ModelKind::Resizing);
    EXPECT_EQ(spec.base.maxInsts, 300000u);
    EXPECT_TRUE(spec.base.functionalWarmup);
}

TEST(DaemonSpecTest, FullSpecOverridesEverything)
{
    std::string id;
    exp::ExperimentSpec spec;
    ASSERT_TRUE(parseOk(
        "{\"id\":\"x.1\",\"workloads\":[\"mcf\",\"gcc\"],"
        "\"models\":[\"base\",\"fixed:3\"],\"insts\":5000,"
        "\"warmup\":100,\"threads\":2,\"fetch_policy\":\"icount\","
        "\"partition\":\"static\",\"check\":true,"
        "\"sample_interval\":1000,\"sample_period\":50,"
        "\"job_timeout\":30}",
        id, spec));
    EXPECT_EQ(spec.workloads.size(), 2u);
    ASSERT_EQ(spec.models.size(), 2u);
    EXPECT_EQ(spec.models[1].model, ModelKind::Fixed);
    EXPECT_EQ(spec.models[1].level, 3u);
    EXPECT_EQ(spec.base.maxInsts, 5000u);
    EXPECT_EQ(spec.base.warmupInsts, 100u);
    EXPECT_EQ(spec.base.core.smt.nThreads, 2u);
    EXPECT_TRUE(spec.base.lockstepCheck);
    EXPECT_TRUE(spec.base.sampling.enabled);
    EXPECT_EQ(spec.base.sampling.intervalInsts, 1000u);
    EXPECT_EQ(spec.base.sampling.periodInsts, 50u);
    EXPECT_DOUBLE_EQ(spec.jobTimeoutSeconds, 30.0);
}

TEST(DaemonSpecTest, SuiteShorthandsExpand)
{
    std::string id;
    exp::ExperimentSpec spec;
    ASSERT_TRUE(parseOk("{\"id\":\"a\",\"workloads\":\"mem\"}", id,
                        spec));
    EXPECT_GT(spec.workloads.size(), 1u);

    exp::ExperimentSpec all;
    ASSERT_TRUE(
        parseOk("{\"id\":\"b\",\"workloads\":\"all\"}", id, all));
    EXPECT_GT(all.workloads.size(), spec.workloads.size());
}

TEST(DaemonSpecTest, BadSpecsRejected)
{
    const char *bad[] = {
        "",                                         // not JSON
        "{\"workloads\":[\"mcf\"]}",                // missing id
        "{\"id\":\"\",\"workloads\":[\"mcf\"]}",    // empty id
        "{\"id\":\"a/b\",\"workloads\":[\"mcf\"]}", // id names a path
        "{\"id\":\"x\"}",                           // no workloads
        "{\"id\":\"x\",\"workloads\":[]}",
        "{\"id\":\"x\",\"workloads\":[\"nonesuch\"]}",
        "{\"id\":\"x\",\"workloads\":[\"mcf\"],"
        "\"models\":[\"warp9\"]}",
    };
    for (const char *json : bad) {
        std::string id, err;
        exp::ExperimentSpec spec;
        EXPECT_FALSE(parseDaemonSpec(json, id, spec, err)) << json;
        EXPECT_FALSE(err.empty()) << json;
    }
}

/** Fixture running a real daemon on a scratch socket + state dir. */
class DaemonRoundTrip : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Private to this test and process: parallel ctest runs and
        // concurrent checkouts never share (or remove_all) it.
        base_ = std::filesystem::path(::testing::TempDir()) /
                ("mlpwind_test_" +
                 std::string(::testing::UnitTest::GetInstance()
                                 ->current_test_info()
                                 ->name()) +
                 "_" + std::to_string(::getpid()));
        std::filesystem::remove_all(base_);
        std::filesystem::create_directories(base_);
        opts_.socketPath = (base_ / "sock").string();
        opts_.stateDir = (base_ / "state").string();
        opts_.cacheDir = (base_ / "cache").string();
        opts_.workers = 2;
        opts_.workerBin = MLPWIN_WORKER_BIN;
        server_ = std::thread([this] { daemonMain(opts_, &stop_); });
        // Wait for the socket to appear (bind is near-instant).
        for (int i = 0; i < 100; ++i) {
            if (std::filesystem::exists(opts_.socketPath))
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(20));
        }
    }

    void
    TearDown() override
    {
        stop_.store(true);
        server_.join();
        std::filesystem::remove_all(base_);
    }

    std::filesystem::path base_;
    DaemonOptions opts_;
    std::atomic<bool> stop_{false};
    std::thread server_;
};

TEST_F(DaemonRoundTrip, SubmitStreamsEventsAndWritesResults)
{
    const std::string spec =
        "{\"id\":\"rt\",\"workloads\":[\"mcf\"],"
        "\"models\":[\"base\",\"resizing\"],\"insts\":20000,"
        "\"warmup\":2000}";

    std::ostringstream events;
    int exit_code = submitSpec(opts_.socketPath, spec, events);
    EXPECT_EQ(exit_code, 0) << events.str();

    const std::string text = events.str();
    EXPECT_NE(text.find("\"type\":\"hello\""), std::string::npos)
        << text;
    EXPECT_NE(text.find("\"key\":\"mcf/base\""), std::string::npos)
        << text;
    EXPECT_NE(text.find("\"key\":\"mcf/resizing\""),
              std::string::npos)
        << text;
    EXPECT_NE(text.find("\"type\":\"done\""), std::string::npos)
        << text;

    // The ordered result file exists and has one line per cell.
    std::ifstream results(base_ / "state" / "rt.jsonl");
    ASSERT_TRUE(results.is_open());
    std::string line;
    unsigned lines = 0;
    while (std::getline(results, line))
        if (!line.empty())
            ++lines;
    EXPECT_EQ(lines, 2u);
}

TEST_F(DaemonRoundTrip, ResubmittingAnIdAdoptsEveryCell)
{
    const std::string spec =
        "{\"id\":\"twice\",\"workloads\":[\"mcf\"],"
        "\"models\":[\"base\"],\"insts\":20000,\"warmup\":2000}";

    std::ostringstream first;
    ASSERT_EQ(submitSpec(opts_.socketPath, spec, first), 0)
        << first.str();

    // Snapshot the result bytes, resubmit, and require both a full
    // adopt ("resumed":true on every job line) and a bit-identical
    // result file — the daemon's restart-resume guarantee, minus the
    // restart.
    std::ifstream in1(base_ / "state" / "twice.jsonl");
    std::stringstream bytes1;
    bytes1 << in1.rdbuf();

    std::ostringstream second;
    ASSERT_EQ(submitSpec(opts_.socketPath, spec, second), 0)
        << second.str();
    EXPECT_NE(second.str().find("\"resumed\":true"),
              std::string::npos)
        << second.str();

    std::ifstream in2(base_ / "state" / "twice.jsonl");
    std::stringstream bytes2;
    bytes2 << in2.rdbuf();
    EXPECT_EQ(bytes1.str(), bytes2.str());
}

/** Raw client: connect + send the spec line, no event loop. */
int
rawConnect(const std::string &socket_path)
{
    int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

bool
rawReadLine(int fd, std::string &line)
{
    line.clear();
    char c;
    for (;;) {
        ssize_t n = ::read(fd, &c, 1);
        if (n <= 0)
            return !line.empty();
        if (c == '\n')
            return true;
        line += c;
    }
}

/**
 * A client that hangs up mid-spec must not abort the run: the spec
 * keeps executing to its durable checkpoint, and a resubmission of
 * the same id adopts every cell. We hold the hello line as proof the
 * spec was accepted, slam the connection shut, then resubmit — the
 * daemon serves connections serially, so the resubmission implicitly
 * waits out the orphaned run.
 */
TEST_F(DaemonRoundTrip, ClientDisconnectMidSpecRunsToCheckpoint)
{
    const std::string spec =
        "{\"id\":\"drop\",\"workloads\":[\"mcf\"],"
        "\"models\":[\"base\",\"resizing\"],\"insts\":20000,"
        "\"warmup\":2000}";

    int fd = rawConnect(opts_.socketPath);
    ASSERT_GE(fd, 0);
    ASSERT_TRUE(writeAll(fd, spec + "\n"));
    std::string hello;
    ASSERT_TRUE(rawReadLine(fd, hello));
    EXPECT_NE(hello.find("\"type\":\"hello\""), std::string::npos)
        << hello;
    // Full close: the daemon sees POLLHUP (or EPIPE) on its next
    // send and must keep going.
    ::close(fd);

    std::ostringstream second;
    ASSERT_EQ(submitSpec(opts_.socketPath, spec, second), 0)
        << second.str();
    // Both cells settled durably during the orphaned run.
    EXPECT_NE(second.str().find("\"resumed\":2"), std::string::npos)
        << second.str();
    EXPECT_NE(second.str().find("\"ok\":2"), std::string::npos)
        << second.str();

    std::ifstream results(base_ / "state" / "drop.jsonl");
    ASSERT_TRUE(results.is_open());
    std::string line;
    unsigned lines = 0;
    while (std::getline(results, line))
        if (!line.empty())
            ++lines;
    EXPECT_EQ(lines, 2u);
}

/**
 * With a cache directory configured, repeated cells across DIFFERENT
 * spec ids adopt from the content-addressed cache (checkpoint resume
 * only covers the same id), and — because the fixture daemon runs
 * isolated workers — the adopted result file is bit-identical to the
 * cold isolated run's.
 */
TEST_F(DaemonRoundTrip, RepeatedCellsAcrossSpecIdsAdoptFromCache)
{
    const char *tmpl = "{\"id\":\"%s\",\"workloads\":[\"mcf\"],"
                       "\"models\":[\"base\"],\"insts\":20000,"
                       "\"warmup\":2000}";
    char spec1[256], spec2[256];
    std::snprintf(spec1, sizeof(spec1), tmpl, "cold");
    std::snprintf(spec2, sizeof(spec2), tmpl, "warm");

    std::ostringstream first;
    ASSERT_EQ(submitSpec(opts_.socketPath, spec1, first), 0)
        << first.str();
    EXPECT_NE(first.str().find("\"cached\":false"),
              std::string::npos)
        << first.str();

    std::ostringstream second;
    ASSERT_EQ(submitSpec(opts_.socketPath, spec2, second), 0)
        << second.str();
    EXPECT_NE(second.str().find("\"cached\":true"),
              std::string::npos)
        << second.str();
    // Done-line counter: one adopted cell.
    EXPECT_NE(second.str().find("\"cached\":1"), std::string::npos)
        << second.str();

    std::ifstream in1(base_ / "state" / "cold.jsonl");
    std::stringstream bytes1;
    bytes1 << in1.rdbuf();
    std::ifstream in2(base_ / "state" / "warm.jsonl");
    std::stringstream bytes2;
    bytes2 << in2.rdbuf();
    ASSERT_FALSE(bytes1.str().empty());
    EXPECT_EQ(bytes1.str(), bytes2.str());
}

TEST_F(DaemonRoundTrip, MalformedSpecGetsErrorLine)
{
    std::ostringstream events;
    int exit_code =
        submitSpec(opts_.socketPath, "{\"id\":\"x\"}", events);
    EXPECT_EQ(exit_code, 2);
    EXPECT_NE(events.str().find("\"type\":\"error\""),
              std::string::npos)
        << events.str();
}

} // namespace
} // namespace serve
} // namespace mlpwin
