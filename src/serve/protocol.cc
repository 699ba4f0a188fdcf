#include "serve/protocol.hh"

#include <cerrno>
#include <cstring>
#include <sstream>

#include <unistd.h>

#include "common/json.hh"
#include "exp/result_writer.hh"
#include "sim/config_fields.hh"

namespace mlpwin
{
namespace serve
{

std::string
frameEncode(const std::string &payload)
{
    std::string out = std::to_string(payload.size());
    out += '\n';
    out += payload;
    out += '\n';
    return out;
}

bool
writeAll(int fd, const std::string &data)
{
    std::size_t off = 0;
    while (off < data.size()) {
        ssize_t n = ::write(fd, data.data() + off, data.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<std::size_t>(n);
    }
    return true;
}

void
FrameBuffer::feed(const char *data, std::size_t n)
{
    buf_.append(data, n);
}

bool
FrameBuffer::next(std::string &payload)
{
    std::size_t nl = buf_.find('\n');
    if (nl == std::string::npos) {
        // An implausibly long length prefix is corruption, not a
        // frame still in flight.
        if (buf_.size() > 32)
            throw SimError(ErrorCode::WorkerCrash,
                           "malformed frame: unterminated length "
                           "prefix");
        return false;
    }
    if (nl == 0)
        throw SimError(ErrorCode::WorkerCrash,
                       "malformed frame: empty length prefix");
    std::size_t len = 0;
    for (std::size_t i = 0; i < nl; ++i) {
        char c = buf_[i];
        if (c < '0' || c > '9')
            throw SimError(ErrorCode::WorkerCrash,
                           "malformed frame: non-numeric length "
                           "prefix");
        len = len * 10 + static_cast<std::size_t>(c - '0');
        if (len > kMaxFramePayload)
            throw SimError(ErrorCode::WorkerCrash,
                           "malformed frame: oversized payload "
                           "length");
    }
    // length '\n' payload '\n'
    if (buf_.size() < nl + 1 + len + 1)
        return false;
    if (buf_[nl + 1 + len] != '\n')
        throw SimError(ErrorCode::WorkerCrash,
                       "malformed frame: missing terminator");
    payload = buf_.substr(nl + 1, len);
    buf_.erase(0, nl + 1 + len + 1);
    return true;
}

// --- job serialization --------------------------------------------------

std::string
jobToJson(const exp::ExperimentSpec &spec,
          const exp::ExperimentJob &job, unsigned attempt)
{
    // Every registered SimConfig field, in registry order.
    std::string cfg;
    auto write = [&cfg](const char *name, const auto &ref, auto, auto,
                        FieldRole) {
        cfg += cfg.empty() ? "{\"" : ",\"";
        cfg += name;
        cfg += "\":";
        cfg += formatField(ref);
    };
    visitFields(job.cfg, write);

    std::ostringstream os;
    os << "{\"type\":\"job\""
       << ",\"index\":" << job.index << ",\"attempt\":" << attempt
       << ",\"workload\":\"" << jsonEscape(job.workload) << '"'
       << ",\"model\":\"" << modelName(job.model.model) << '"'
       << ",\"level\":" << job.model.level << ",\"label\":\""
       << jsonEscape(job.model.label) << '"'
       << ",\"iterations\":" << fmtU64(spec.iterations)
       << ",\"jobTimeoutSeconds\":" << fmtDouble(spec.jobTimeoutSeconds)
       << ",\"maxAttempts\":" << spec.maxAttempts
       << ",\"retryBackoffMs\":" << spec.retryBackoffMs
       << ",\"archCheckpointDir\":\""
       << jsonEscape(spec.archCheckpointDir) << '"'
       << ",\"telemetryDir\":\"" << jsonEscape(spec.telemetryDir)
       << '"' << ",\"telemetryInterval\":"
       << fmtU64(spec.telemetryInterval) << ",\"cfg\":" << cfg
       << "}}";
    return os.str();
}

namespace
{

[[noreturn]] void
badJob(const std::string &why)
{
    throw SimError(ErrorCode::InvalidArgument,
                   "malformed job frame: " + why);
}

/**
 * Decode the frame's `cfg` object into a SimConfig: every registered
 * field must be present and within its bounds, and no other key (nor
 * a repeated one) may appear.
 */
SimConfig
configFromJson(const JsonValue &cv)
{
    const auto &obj = cv.object;
    std::vector<bool> used(obj.size());
    auto read = [&](const char *name, auto &ref, auto lo, auto hi,
                    FieldRole) {
        std::size_t i = 0;
        while (i < obj.size() && obj[i].first != name)
            ++i;
        if (i == obj.size())
            badJob(std::string("cfg lacks ") + name);
        used[i] = true;
        const JsonValue &jv = obj[i].second;
        bool ok;
        if constexpr (std::is_same_v<decltype(lo), bool>) {
            ok = jv.kind == JsonValue::Kind::Bool;
            ref = jv.boolean;
        } else {
            ok = jv.kind == JsonValue::Kind::Number &&
                 parseField(jv.text.c_str(), lo, hi, ref);
        }
        if (!ok)
            badJob(std::string("cfg.") + name + " must be in [" +
                   formatField(lo) + ", " + formatField(hi) + "]");
    };
    SimConfig c;
    visitFields(c, read);
    for (std::size_t i = 0; i < used.size(); ++i)
        if (!used[i])
            badJob("cfg has unexpected key " + obj[i].first);
    return c;
}

} // namespace

void
jobFromJson(const std::string &json, exp::ExperimentSpec &spec,
            exp::ExperimentJob &job, unsigned &attempt)
{
    JsonValue v;
    try {
        v = parseJson(json);
    } catch (const std::exception &e) {
        badJob(e.what());
    }
    if (!v.hasField("type") || v.field("type").asString() != "job")
        badJob("not a job message");

    job = exp::ExperimentJob{};
    spec = exp::ExperimentSpec{};

    try {
        job.index = v.field("index").asU64();
        attempt = static_cast<unsigned>(v.field("attempt").asU64());
        job.workload = v.field("workload").asString();

        exp::ModelSpec ms;
        if (!exp::parseModelSpec(v.field("model").asString(), ms))
            badJob("unknown model " + v.field("model").asString());
        ms.level = static_cast<unsigned>(v.field("level").asU64());
        ms.label = v.field("label").asString();
        job.model = ms;

        spec.iterations = v.field("iterations").asU64();
        spec.jobTimeoutSeconds =
            v.field("jobTimeoutSeconds").asDouble();
        spec.maxAttempts =
            static_cast<unsigned>(v.field("maxAttempts").asU64());
        spec.retryBackoffMs =
            static_cast<unsigned>(v.field("retryBackoffMs").asU64());
        spec.archCheckpointDir =
            v.field("archCheckpointDir").asString();
        spec.telemetryDir = v.field("telemetryDir").asString();
        spec.telemetryInterval = v.field("telemetryInterval").asU64();
        job.cfg = configFromJson(v.field("cfg"));
    } catch (const SimError &) {
        throw;
    } catch (const std::exception &e) {
        badJob(e.what());
    }

    // The worker runs exactly one job; the spec's matrix fields are
    // not used by runJob but keep jobCount() honest for debugging.
    spec.workloads = {job.workload};
    spec.models = {job.model};
}

// --- worker messages ----------------------------------------------------

std::string
helloMessage()
{
    return "{\"type\":\"hello\",\"pid\":" +
           std::to_string(::getpid()) + "}";
}

std::string
heartbeatMessage(std::size_t job_index)
{
    return "{\"type\":\"hb\",\"job\":" + std::to_string(job_index) +
           "}";
}

std::string
resultMessage(std::size_t index, unsigned attempts,
              double wall_seconds, const SimResult &r)
{
    std::ostringstream os;
    os << "{\"type\":\"result\",\"index\":" << index
       << ",\"attempts\":" << attempts
       << ",\"wallSeconds\":" << fmtDouble(wall_seconds)
       << ",\"result\":" << exp::resultToJson(r) << '}';
    return os.str();
}

std::string
errorMessage(std::size_t index, unsigned attempts, double wall_seconds,
             ErrorCode code, const std::string &detail,
             const std::string &dump_json)
{
    std::ostringstream os;
    os << "{\"type\":\"error\",\"index\":" << index
       << ",\"attempts\":" << attempts
       << ",\"wallSeconds\":" << fmtDouble(wall_seconds)
       << ",\"error\":\"" << errorCodeName(code) << '"'
       << ",\"detail\":\"" << jsonEscape(detail) << '"';
    if (!dump_json.empty())
        os << ",\"dump\":" << dump_json;
    os << '}';
    return os.str();
}

WorkerMessage
parseWorkerMessage(const std::string &json)
{
    WorkerMessage m;
    JsonValue v;
    try {
        v = parseJson(json);
        const std::string &type = v.field("type").asString();
        if (type == "hello") {
            m.kind = WorkerMessage::Kind::Hello;
            return m;
        }
        if (type == "hb") {
            m.kind = WorkerMessage::Kind::Heartbeat;
            m.index = v.field("job").asU64();
            return m;
        }
        if (type == "result" || type == "error") {
            m.index = v.field("index").asU64();
            m.attempts =
                static_cast<unsigned>(v.field("attempts").asU64());
            m.wallSeconds = v.field("wallSeconds").asDouble();
        }
        if (type == "result") {
            m.kind = WorkerMessage::Kind::Result;
            // "result" is the last field: slice it byte-exact (see
            // file comment).
            const std::string marker = "\"result\":";
            std::size_t pos = json.find(marker);
            if (pos == std::string::npos)
                throw std::runtime_error("result message without "
                                         "result");
            m.resultJson =
                json.substr(pos + marker.size(),
                            json.size() - (pos + marker.size()) - 1);
            return m;
        }
        if (type == "error") {
            m.kind = WorkerMessage::Kind::Error;
            if (!parseErrorCode(v.field("error").asString(), m.error))
                m.error = ErrorCode::Internal;
            m.detail = v.field("detail").asString();
            if (v.hasField("dump")) {
                const std::string marker = "\"dump\":";
                std::size_t pos = json.find(marker);
                m.dumpJson = json.substr(
                    pos + marker.size(),
                    json.size() - (pos + marker.size()) - 1);
            }
            return m;
        }
        throw std::runtime_error("unknown message type " + type);
    } catch (const SimError &) {
        throw;
    } catch (const std::exception &e) {
        throw SimError(ErrorCode::WorkerCrash,
                       std::string("malformed worker message: ") +
                           e.what());
    }
}

} // namespace serve
} // namespace mlpwin
