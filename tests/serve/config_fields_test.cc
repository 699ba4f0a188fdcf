/**
 * @file
 * Property tests of the SimConfig field registry (sim/config_fields.hh):
 * mutating any registered field changes configFingerprint (except the
 * host-only watchdog knobs) and survives the --isolate job frame
 * exactly; a frame whose cfg object lacks a field, carries an unknown
 * key, or holds an out-of-bounds value is rejected as malformed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "serve/protocol.hh"
#include "sim/config_fields.hh"

namespace mlpwin
{
namespace serve
{
namespace
{

/** Every registered field as (name, value bits), in registry order. */
std::vector<std::pair<std::string, std::uint64_t>>
fieldValues(const SimConfig &c)
{
    std::vector<std::pair<std::string, std::uint64_t>> out;
    auto v = [&out](const char *name, const auto &ref, auto, auto,
                    FieldRole) { out.emplace_back(name, fieldBits(ref)); };
    visitFields(c, v);
    return out;
}

/** Names of the registered fields with `role`, in registry order. */
std::vector<std::string>
fieldNames(const SimConfig &c, FieldRole role)
{
    std::vector<std::string> out;
    auto v = [&](const char *name, const auto &, auto, auto,
                 FieldRole r) {
        if (r == role)
            out.push_back(name);
    };
    visitFields(c, v);
    return out;
}

/** Move the k-th registered field to another in-bounds value. */
void
mutateField(SimConfig &c, std::size_t k)
{
    std::size_t i = 0;
    auto v = [&](const char *, auto &ref, auto lo, auto hi, FieldRole) {
        if (i++ != k)
            return;
        if constexpr (std::is_same_v<decltype(lo), bool>)
            ref = !ref;
        else
            ref = ref == hi ? lo : hi;
    };
    visitFields(c, v);
}

SimConfig
roundTrip(const SimConfig &c)
{
    exp::ExperimentSpec spec;
    exp::ExperimentJob job;
    job.workload = "mcf";
    job.model = {c.model, c.fixedLevel, ""};
    job.cfg = c;
    exp::ExperimentSpec spec2;
    exp::ExperimentJob job2;
    unsigned attempt = 0;
    jobFromJson(jobToJson(spec, job, 1), spec2, job2, attempt);
    return job2.cfg;
}

TEST(ConfigRegistryTest, NamesAreUnique)
{
    std::set<std::string> seen;
    for (const auto &[name, bits] : fieldValues(SimConfig{}))
        EXPECT_TRUE(seen.insert(name).second) << "repeated " << name;
}

/**
 * 96 fields outside the level table, its row count, and 6 fields for
 * each of the default table's 3 rows. A field dropped from the
 * registry shows here; one added to a config struct without a
 * registry entry fails the sizeof guards in config_fields.hh.
 */
TEST(ConfigRegistryTest, ListsEveryField)
{
    EXPECT_EQ(fieldValues(SimConfig{}).size(), 115u);
}

TEST(ConfigRegistryTest, EveryFieldReachesFingerprintAndWire)
{
    const SimConfig base;
    const std::uint64_t fp = configFingerprint(base);
    const auto before = fieldValues(base);
    const std::vector<std::string> host =
        fieldNames(base, FieldRole::HostOnly);
    for (std::size_t k = 0; k < before.size(); ++k) {
        const std::string &name = before[k].first;
        SimConfig c = base;
        mutateField(c, k);
        const auto after = fieldValues(c);
        ASSERT_NE(after, before) << name << " did not change";
        if (std::find(host.begin(), host.end(), name) != host.end())
            EXPECT_EQ(configFingerprint(c), fp) << name;
        else
            EXPECT_NE(configFingerprint(c), fp) << name;
        EXPECT_EQ(fieldValues(roundTrip(c)), after) << name;
    }
}

TEST(ConfigRegistryTest, OnlyTheWatchdogIsHostOnly)
{
    EXPECT_EQ(fieldNames(SimConfig{}, FieldRole::HostOnly),
              (std::vector<std::string>{"watchdog.enabled",
                                        "watchdog.noCommitWindow",
                                        "watchdog.checkInterval"}));
}

/** A default job frame and where its cfg object starts. */
struct Frame
{
    std::string json;
    std::size_t cfgBegin = 0;

    Frame()
    {
        exp::ExperimentJob job;
        job.workload = "mcf";
        job.model = {ModelKind::Base, 1, ""};
        json = jobToJson(exp::ExperimentSpec{}, job, 1);
        cfgBegin = json.find("\"cfg\":{");
    }

    /** Byte range of the value of cfg's key `name`. */
    std::pair<std::size_t, std::size_t>
    valueSpan(const std::string &name) const
    {
        std::size_t key = json.find("\"" + name + "\":", cfgBegin);
        std::size_t begin = key + name.size() + 3;
        std::size_t end = json.find_first_of(",}", begin);
        return {begin, end};
    }
};

void
expectRejected(const std::string &json, const std::string &what)
{
    exp::ExperimentSpec spec;
    exp::ExperimentJob job;
    unsigned attempt = 0;
    try {
        jobFromJson(json, spec, job, attempt);
        ADD_FAILURE() << "accepted a frame with " << what;
    } catch (const SimError &e) {
        EXPECT_EQ(e.code(), ErrorCode::InvalidArgument) << what;
    }
}

TEST(ConfigRegistryTest, MissingAndUnknownKeysAreRejected)
{
    const Frame f;
    for (const auto &[name, bits] : fieldValues(SimConfig{})) {
        // Cut `"name":value` and its separating comma.
        std::string json = f.json;
        std::size_t key = json.find("\"" + name + "\":", f.cfgBegin);
        std::size_t end = f.valueSpan(name).second;
        if (json[end] == ',')
            ++end;
        else if (json[key - 1] == ',')
            --key;
        json.erase(key, end - key);
        expectRejected(json, "no " + name);
    }
    std::string unknown = f.json;
    unknown.insert(unknown.size() - 2, ",\"core.smt.bogus\":1");
    expectRejected(unknown, "an unknown key");
    std::string repeated = f.json;
    repeated.insert(repeated.size() - 2, ",\"maxInsts\":0");
    expectRejected(repeated, "a repeated key");
}

TEST(ConfigRegistryTest, OutOfBoundsValuesAreRejected)
{
    const Frame f;
    std::vector<std::pair<std::string, std::string>> bad;
    auto v = [&bad](const char *name, const auto &, auto lo, auto hi,
                    FieldRole) {
        using T = decltype(lo);
        std::string text;
        if constexpr (std::is_same_v<T, bool>)
            text = "1"; // A number where a bool belongs.
        else if constexpr (std::is_same_v<T, double>)
            text = fmtDouble(hi * 2);
        else if (fieldBits(hi) == ~std::uint64_t(0))
            text = "18446744073709551616";
        else
            text = fmtU64(fieldBits(hi) + 1);
        bad.emplace_back(name, text);
        if constexpr (!std::is_same_v<T, bool> &&
                      !std::is_same_v<T, double>)
            if (fieldBits(lo) > 0)
                bad.emplace_back(name, fmtU64(fieldBits(lo) - 1));
    };
    const SimConfig defaults;
    visitFields(defaults, v);
    for (const auto &[name, text] : bad) {
        std::string json = f.json;
        auto [begin, end] = f.valueSpan(name);
        json.replace(begin, end - begin, text);
        expectRejected(json, name + " = " + text);
    }
}

} // namespace
} // namespace serve
} // namespace mlpwin
