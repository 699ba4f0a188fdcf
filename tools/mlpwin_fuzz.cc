/**
 * @file
 * Differential random-program fuzzer.
 *
 * Generates seeded, terminating programs biased toward the paper's
 * hazards (src/isa/fuzz_builder.hh), runs each under every model with
 * the lockstep checker enabled, and requires identical committed
 * instruction streams across all of them. On failure the program is
 * delta-debugged down to a minimal repro and written as a .mlpasm
 * file whose header echoes the seed and the one-line command that
 * reproduces the failure.
 *
 * Usage:
 *   mlpwin_fuzz --count 20                     # seeds 1..20
 *   mlpwin_fuzz --seed 42 --models base,runahead
 *   mlpwin_fuzz --seeds 3,17,99 --out results.jsonl
 *   mlpwin_fuzz --replay repro.mlpasm
 *   mlpwin_fuzz --seed 7 --save-programs corpus/
 *
 * Exit code 0 when every seed passes; 2 on a usage error; 3 when any
 * seed fails (repros written to --repro-dir).
 */

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "check/differential.hh"
#include "check/minimize.hh"
#include "check/mlpasm.hh"
#include "isa/fuzz_builder.hh"
#include "sim/config_flags.hh"

using namespace mlpwin;

namespace
{

void
usage()
{
    std::fprintf(stderr,
        "usage: mlpwin_fuzz [options]\n"
        "  --seed N          first seed (default 1)\n"
        "  --count K         number of consecutive seeds (default 20)\n"
        "  --seeds LIST      explicit comma-separated seed list\n"
        "                    (overrides --seed/--count)\n"
        "  --models LIST     comma list of models to compare, e.g.\n"
        "                    base,fixed:3,runahead (default: all)\n"
        "  --insts N         per-model commit budget (default 2M)\n"
        "  --out FILE        append one JSON line per seed\n"
        "  --repro-dir DIR   where to write minimized repros\n"
        "                    (default .)\n"
        "  --save-programs DIR\n"
        "                    also write every generated program as\n"
        "                    DIR/seed<N>.mlpasm (corpus building)\n"
        "  --replay FILE     run one .mlpasm program instead of\n"
        "                    generating (no minimization)\n"
        "  --no-minimize     write failing programs unminimized\n"
        "  --blocks N        idiom blocks per outer iteration\n"
        "  --iters N         outer-loop iterations\n"
        "  --chase-nodes N   pointer-ring nodes (power of two)\n"
        "  --chase-spacing N bytes between ring nodes\n"
        "  --stride-bytes N  stride arena bytes (power of two)\n"
        "  --small-bytes N   hot arena bytes\n"
        "%s",
        vmFlagsUsage());
}

std::string
jsonEscapeMin(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out += c;
    }
    return out;
}

/** One JSONL record per seed; the seed always leads the line. */
void
writeResultLine(std::ostream &os, std::uint64_t seed,
                const DiffOutcome &out, const std::string &reproPath,
                std::uint64_t minimizeTested)
{
    os << "{\"seed\":" << seed << ",\"status\":\""
       << diffStatusName(out.status) << '"';
    if (!out.models.empty() && out.status == DiffStatus::Pass) {
        os << ",\"commits\":" << out.models.front().commits
           << ",\"streamHash\":\"0x" << std::hex
           << out.models.front().streamHash << std::dec << '"';
    }
    if (!out.detail.empty())
        os << ",\"detail\":\"" << jsonEscapeMin(out.detail) << '"';
    if (!reproPath.empty())
        os << ",\"repro\":\"" << jsonEscapeMin(reproPath) << '"';
    if (minimizeTested)
        os << ",\"minimizeTested\":" << minimizeTested;
    os << ",\"models\":[";
    for (std::size_t i = 0; i < out.models.size(); ++i) {
        const DiffModelResult &m = out.models[i];
        if (i)
            os << ',';
        os << "{\"label\":\"" << m.label << "\",\"ran\":"
           << (m.ran ? "true" : "false")
           << ",\"halted\":" << (m.halted ? "true" : "false")
           << ",\"commits\":" << m.commits << ",\"cycles\":"
           << m.cycles;
        if (!m.error.empty())
            os << ",\"error\":\"" << jsonEscapeMin(m.error) << '"';
        os << '}';
    }
    os << "]}\n";
}

std::string
paramsComment(std::uint64_t seed, const FuzzParams &p,
              const DiffOutcome &out)
{
    std::ostringstream os;
    os << "seed " << seed << '\n'
       << "status " << diffStatusName(out.status) << ": " << out.detail
       << '\n'
       << "params: blocks=" << p.blocks << " iters=" << p.outerIters
       << " chase-nodes=" << p.chaseNodes
       << " chase-spacing=" << p.chaseSpacing
       << " stride-bytes=" << p.strideBytes
       << " small-bytes=" << p.smallBytes << '\n'
       << "reproduce: mlpwin_fuzz --seed " << seed << " --count 1"
       << " --blocks " << p.blocks << " --iters " << p.outerIters
       << " --chase-nodes " << p.chaseNodes << " --chase-spacing "
       << p.chaseSpacing << " --stride-bytes " << p.strideBytes
       << " --small-bytes " << p.smallBytes << '\n'
       << "or replay: mlpwin_fuzz --replay <this file>";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    std::uint64_t first_seed = 1;
    std::uint64_t count = 20;
    std::vector<std::uint64_t> seeds;
    FuzzParams params;
    DifferentialConfig diff;
    std::string out_path;
    std::string repro_dir = ".";
    std::string save_dir;
    std::string replay_path;
    bool minimize = true;

    for (ArgCursor args(argc, argv); args.next();) {
        const std::string &arg = args.arg();
        if (arg == "--seed") {
            first_seed = args.number();
        } else if (arg == "--count") {
            count = args.number();
        } else if (arg == "--seeds") {
            std::istringstream is(args.value());
            std::string tok;
            while (std::getline(is, tok, ',')) {
                if (tok.empty())
                    continue;
                seeds.push_back(args.number(tok.c_str()));
            }
        } else if (arg == "--models") {
            std::string err;
            if (!parseDiffModels(args.value(), diff.models, &err)) {
                std::fprintf(stderr, "--models: %s\n", err.c_str());
                return 2;
            }
        } else if (arg == "--insts") {
            diff.maxInsts = args.number();
        } else if (arg == "--out") {
            out_path = args.value();
        } else if (arg == "--repro-dir") {
            repro_dir = args.value();
        } else if (arg == "--save-programs") {
            save_dir = args.value();
        } else if (arg == "--replay") {
            replay_path = args.value();
        } else if (arg == "--no-minimize") {
            minimize = false;
        } else if (arg == "--blocks") {
            params.blocks = static_cast<unsigned>(args.number());
        } else if (arg == "--iters") {
            params.outerIters = args.number();
        } else if (arg == "--chase-nodes") {
            params.chaseNodes = static_cast<unsigned>(args.number());
        } else if (arg == "--chase-spacing") {
            params.chaseSpacing = args.number();
        } else if (arg == "--stride-bytes") {
            params.strideBytes = args.number();
        } else if (arg == "--small-bytes") {
            params.smallBytes = args.number();
        } else if (parseConfigFlag(args, ConfigFlagSet::Vm, diff.base)) {
            // Applied to diff.base; a bad value exits 2.
        } else if (arg == "-h" || arg == "--help") {
            usage();
            return 0;
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            usage();
            return 2;
        }
    }

    std::ofstream out_file;
    std::ostream *out = nullptr;
    if (!out_path.empty()) {
        out_file.open(out_path, std::ios::app);
        if (!out_file) {
            std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
            return 2;
        }
        out = &out_file;
    }

    // --- replay mode ----------------------------------------------------
    if (!replay_path.empty()) {
        Program prog;
        try {
            prog = loadMlpasm(replay_path);
        } catch (const SimError &e) {
            std::fprintf(stderr, "%s\n", e.what());
            return 2;
        }
        DiffOutcome o = runDifferential(prog, diff);
        std::printf("%s: %s%s%s\n", replay_path.c_str(),
                    diffStatusName(o.status),
                    o.detail.empty() ? "" : " - ",
                    o.detail.c_str());
        for (const DiffModelResult &m : o.models) {
            if (!m.dumpJson.empty())
                std::fprintf(stderr, "%s dump: %s\n", m.label.c_str(),
                             m.dumpJson.c_str());
        }
        if (out)
            writeResultLine(*out, 0, o, "", 0);
        return o.status == DiffStatus::Pass ? 0 : 3;
    }

    // --- fuzz loop ------------------------------------------------------
    if (seeds.empty()) {
        for (std::uint64_t s = 0; s < count; ++s)
            seeds.push_back(first_seed + s);
    }
    if (!save_dir.empty())
        std::filesystem::create_directories(save_dir);

    unsigned failures = 0;
    for (std::uint64_t seed : seeds) {
        Program prog = generateFuzzProgram(seed, params);
        if (!save_dir.empty()) {
            std::string path =
                save_dir + "/seed" + std::to_string(seed) + ".mlpasm";
            std::ostringstream hdr;
            hdr << "fuzz corpus program, seed " << seed;
            Status s = saveMlpasm(path, prog, hdr.str());
            if (!s.ok())
                std::fprintf(stderr, "warning: %s\n",
                             s.message().c_str());
        }

        DiffOutcome o = runDifferential(prog, diff);
        std::string repro_path;
        MinimizeStats mstats;
        if (o.failed()) {
            ++failures;
            std::fprintf(stderr, "seed %llu FAILED (%s): %s\n",
                         static_cast<unsigned long long>(seed),
                         diffStatusName(o.status), o.detail.c_str());
            for (const DiffModelResult &m : o.models) {
                if (!m.dumpJson.empty())
                    std::fprintf(stderr, "  %s dump: %s\n",
                                 m.label.c_str(), m.dumpJson.c_str());
            }
            Program repro = prog;
            if (minimize) {
                repro = minimizeProgram(
                    prog,
                    [&](const Program &cand) {
                        return runDifferential(cand, diff).failed();
                    },
                    &mstats);
                std::fprintf(
                    stderr,
                    "  minimized to %zu live instructions "
                    "(%llu candidates tested)\n",
                    mstats.remaining,
                    static_cast<unsigned long long>(mstats.tested));
            }
            std::filesystem::create_directories(repro_dir);
            repro_path = repro_dir + "/seed" + std::to_string(seed) +
                         ".mlpasm";
            Status s = saveMlpasm(repro_path, repro,
                                  paramsComment(seed, params, o));
            if (!s.ok()) {
                std::fprintf(stderr, "warning: %s\n",
                             s.message().c_str());
                repro_path.clear();
            } else {
                std::fprintf(stderr, "  repro written to %s\n",
                             repro_path.c_str());
            }
        } else if (o.status == DiffStatus::Budget) {
            std::fprintf(stderr,
                         "seed %llu: budget exhausted (%s) — raise "
                         "--insts or shrink the program params\n",
                         static_cast<unsigned long long>(seed),
                         o.detail.c_str());
        } else {
            std::printf("seed %llu: pass (%llu commits, hash 0x%llx)\n",
                        static_cast<unsigned long long>(seed),
                        static_cast<unsigned long long>(
                            o.models.front().commits),
                        static_cast<unsigned long long>(
                            o.models.front().streamHash));
        }
        if (out)
            writeResultLine(*out, seed, o, repro_path, mstats.tested);
    }

    if (failures) {
        std::fprintf(stderr, "%u of %zu seeds failed\n", failures,
                     seeds.size());
        return 3;
    }
    return 0;
}
