/**
 * @file
 * Wire protocol between the batch supervisor and its isolated worker
 * processes (and the framing shared with the mlpwind daemon tests).
 *
 * Framing: every message is one length-prefixed JSON document,
 *
 *     <decimal payload byte count> '\n' <payload bytes> '\n'
 *
 * chosen over bare JSONL so the receiver can tell a *torn* message (a
 * worker killed mid-write) from a complete one without trusting the
 * payload to be well-formed: EOF with bytes still buffered, a length
 * prefix that is not a number, or a missing terminator all classify
 * the stream as torn, and the supervisor records the worker death as
 * ErrorCode::WorkerCrash instead of consuming a half-written result.
 *
 * Message schemas (all single-line JSON objects):
 *
 *  supervisor -> worker:
 *    {"type":"job", "index":N, "attempt":K, "workload":..., model and
 *     spec fields, "cfg":{every SimConfig registry field}}
 *
 *  worker -> supervisor:
 *    {"type":"hello","pid":N}
 *    {"type":"hb","job":N}
 *    {"type":"result","index":N,"attempts":K,"wallSeconds":S,
 *     "result":{...}}          // "result" is by construction LAST
 *    {"type":"error","index":N,"attempts":K,"wallSeconds":S,
 *     "error":"code","detail":"...","dump":{...}}   // "dump" LAST
 *
 * The result/dump objects are sliced out of the line textually (they
 * are the final field) and re-parsed with resultFromJson, so a result
 * that crossed the process boundary is bit-identical to one computed
 * in-process — the same %.17g round-trip guarantee the resume
 * checkpoints rely on.
 *
 * The job frame's `cfg` object carries every field of the SimConfig
 * field registry (sim/config_fields.hh) under its dotted name, so a
 * config — including whatever a spec `configure` hook set in the
 * supervisor — arrives in the worker whole. The worker and the
 * supervisor come from one build: a missing, unknown or out-of-bounds
 * cfg key makes the frame malformed (SimError InvalidArgument).
 */

#ifndef MLPWIN_SERVE_PROTOCOL_HH
#define MLPWIN_SERVE_PROTOCOL_HH

#include <cstddef>
#include <string>

#include "common/status.hh"
#include "exp/experiment.hh"
#include "sim/simulator.hh"

namespace mlpwin
{
namespace serve
{

/** Hard ceiling on one frame's payload (corrupt-length guard). */
constexpr std::size_t kMaxFramePayload = 64u << 20;

/** Wrap a payload in the length-prefixed framing. */
std::string frameEncode(const std::string &payload);

/**
 * Write all of `data` to `fd`, retrying short writes and EINTR.
 * @return false on a write error (e.g. EPIPE to a dead peer).
 */
bool writeAll(int fd, const std::string &data);

/**
 * Incremental frame decoder: feed() raw bytes as they arrive, next()
 * extracts complete frames. See the file comment for how torn and
 * malformed streams are detected.
 */
class FrameBuffer
{
  public:
    /** Buffer `n` raw bytes. */
    void feed(const char *data, std::size_t n);

    /**
     * Extract the next complete frame's payload.
     *
     * @return false when more bytes are needed.
     * @throws SimError{WorkerCrash} on a malformed stream (non-numeric
     *         or oversized length prefix, missing terminator).
     */
    bool next(std::string &payload);

    /**
     * True when bytes of an incomplete frame are buffered — at EOF
     * this means the peer died mid-write (a torn message).
     */
    bool midFrame() const { return !buf_.empty(); }

  private:
    std::string buf_;
};

// --- supervisor -> worker ----------------------------------------------

/**
 * Serialize one job assignment. `attempt` is the supervisor's
 * dispatch count for this job (1-based), echoed back in results and
 * used by the fault-injection matcher.
 */
std::string jobToJson(const exp::ExperimentSpec &spec,
                      const exp::ExperimentJob &job, unsigned attempt);

/**
 * Worker side: rebuild the job and the spec fields that matter to
 * execution (telemetry, arch-checkpoint dir, retry policy, timeout).
 *
 * @throws SimError{InvalidArgument} on a malformed or unknown-name
 *         frame.
 */
void jobFromJson(const std::string &json, exp::ExperimentSpec &spec,
                 exp::ExperimentJob &job, unsigned &attempt);

// --- worker -> supervisor ----------------------------------------------

std::string helloMessage();
std::string heartbeatMessage(std::size_t job_index);
std::string resultMessage(std::size_t index, unsigned attempts,
                          double wall_seconds, const SimResult &r);
std::string errorMessage(std::size_t index, unsigned attempts,
                         double wall_seconds, ErrorCode code,
                         const std::string &detail,
                         const std::string &dump_json);

/** A parsed worker->supervisor message. */
struct WorkerMessage
{
    enum class Kind
    {
        Hello,
        Heartbeat,
        Result,
        Error,
    };

    Kind kind = Kind::Hello;
    std::size_t index = 0; ///< Job index (Heartbeat/Result/Error).
    unsigned attempts = 0;
    double wallSeconds = 0.0;
    /** Result: the raw result JSON, sliced byte-exact. */
    std::string resultJson;
    /** Error: classification + detail + optional dump JSON. */
    ErrorCode error = ErrorCode::Internal;
    std::string detail;
    std::string dumpJson;
};

/** @throws SimError{WorkerCrash} on a malformed message. */
WorkerMessage parseWorkerMessage(const std::string &json);

} // namespace serve
} // namespace mlpwin

#endif // MLPWIN_SERVE_PROTOCOL_HH
