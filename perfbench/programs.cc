#include "programs.hh"

#include <functional>
#include <map>

#include "common/status.hh"
#include "workloads/kernels.hh"

using namespace mlpwin;

namespace perfbench
{

namespace
{

/** Distance between the data seeds of consecutive benchmark seeds. */
constexpr std::uint64_t kSeedStride = 1000;

using Maker = std::function<Program(std::uint64_t shift,
                                    std::uint64_t iterations)>;

// Parameters copied from src/workloads/suite.cc; sameProgram() at
// seed 0 is the guard that keeps the two tables in step.
const std::map<std::string, Maker> &
table()
{
    static const std::map<std::string, Maker> t = {
        {"hmmer", [](std::uint64_t s, std::uint64_t it) {
             GatherParams p;
             p.tableWords = 1ULL << 17;
             p.idxWords = 1 << 14;
             p.intOps = 8;
             p.seed = 11 + s;
             return makeGather("hmmer", p, it);
         }},
        {"libquantum", [](std::uint64_t s, std::uint64_t it) {
             GatherParams p;
             p.tableWords = 1ULL << 23;
             p.idxWords = 1 << 16;
             p.intOps = 12;
             p.seed = 12 + s;
             return makeGather("libquantum", p, it);
         }},
        {"mcf", [](std::uint64_t s, std::uint64_t it) {
             ChaseParams p;
             p.chains = 4;
             p.nodesPerChain = 1 << 16;
             p.hopOps = 6;
             p.seed = 13 + s;
             return makeChase("mcf", p, it);
         }},
        {"omnetpp", [](std::uint64_t s, std::uint64_t it) {
             PhaseMixParams p;
             p.gather.tableWords = 1ULL << 21;
             p.gather.idxWords = 1 << 14;
             p.gather.intOps = 10;
             p.gather.hardBranch = true;
             p.gather.seed = 14 + s;
             p.gathersPerPhase = 48;
             p.computeOpsPerPhase = 2400;
             p.computeOpsPerBranch = 24;
             return makePhaseMix("omnetpp", p, it);
         }},
        {"xalancbmk", [](std::uint64_t s, std::uint64_t it) {
             GatherParams p;
             p.tableWords = 1ULL << 20;
             p.table2Words = 1ULL << 21;
             p.idxWords = 1 << 14;
             p.intOps = 6;
             p.seed = 15 + s;
             return makeGather("xalancbmk", p, it);
         }},
        {"GemsFDTD", [](std::uint64_t s, std::uint64_t it) {
             StreamParams p;
             p.streams = 3;
             p.wordsPerStream = 1ULL << 21;
             p.strideWords = 2;
             p.fpOps = 6;
             p.withStore = true;
             p.seed += s;
             return makeStream("GemsFDTD", p, it);
         }},
        {"lbm", [](std::uint64_t s, std::uint64_t it) {
             StreamParams p;
             p.streams = 3;
             p.wordsPerStream = 1ULL << 21;
             p.strideWords = 1;
             p.fpOps = 4;
             p.withStore = true;
             p.seed += s;
             return makeStream("lbm", p, it);
         }},
        {"leslie3d", [](std::uint64_t s, std::uint64_t it) {
             StreamParams p;
             p.streams = 3;
             p.wordsPerStream = 1ULL << 20;
             p.strideWords = 4;
             p.fpOps = 8;
             p.withStore = false;
             p.seed += s;
             return makeStream("leslie3d", p, it);
         }},
        {"milc", [](std::uint64_t s, std::uint64_t it) {
             GatherParams p;
             p.tableWords = 1ULL << 21;
             p.idxWords = 1 << 14;
             p.intOps = 2;
             p.fpOps = 10;
             p.seed = 16 + s;
             return makeGather("milc", p, it);
         }},
        {"soplex", [](std::uint64_t s, std::uint64_t it) {
             SpmvParams p;
             p.xWords = 1ULL << 22;
             p.nnzPerRow = 8;
             p.colWords = 1 << 18;
             p.hardBranch = true;
             p.seed = 17 + s;
             return makeSpmv("soplex", p, it);
         }},
        {"sphinx3", [](std::uint64_t s, std::uint64_t it) {
             GatherParams p;
             p.tableWords = 1ULL << 19;
             p.idxWords = 1 << 14;
             p.intOps = 2;
             p.fpOps = 6;
             p.hardBranch = true;
             p.seed = 18 + s;
             return makeGather("sphinx3", p, it);
         }},
        {"astar", [](std::uint64_t s, std::uint64_t it) {
             IntMixParams p;
             p.ilpChains = 2;
             p.opsPerChain = 6;
             p.hardTakenNum = 1;
             p.hardTakenDen = 4;
             p.tableKiB = 64;
             p.seed = 21 + s;
             return makeIntMix("astar", p, it);
         }},
        {"bzip2", [](std::uint64_t s, std::uint64_t it) {
             StreamParams p;
             p.streams = 1;
             p.wordsPerStream = 1 << 15;
             p.strideWords = 1;
             p.fpOps = 0;
             p.withStore = true;
             p.seed += s;
             return makeStream("bzip2", p, it);
         }},
        {"gcc", [](std::uint64_t s, std::uint64_t it) {
             IntMixParams p;
             p.ilpChains = 3;
             p.opsPerChain = 8;
             p.hardTakenNum = 1;
             p.hardTakenDen = 16;
             p.tableKiB = 32;
             p.seed = 22 + s;
             return makeIntMix("gcc", p, it);
         }},
        {"gobmk", [](std::uint64_t s, std::uint64_t it) {
             IntMixParams p;
             p.ilpChains = 2;
             p.opsPerChain = 5;
             p.hardTakenNum = 1;
             p.hardTakenDen = 2;
             p.tableKiB = 16;
             p.seed = 23 + s;
             return makeIntMix("gobmk", p, it);
         }},
        {"h264ref", [](std::uint64_t s, std::uint64_t it) {
             StreamParams p;
             p.streams = 2;
             p.wordsPerStream = 1 << 15;
             p.strideWords = 1;
             p.fpOps = 0;
             p.withStore = true;
             p.seed += s;
             return makeStream("h264ref", p, it);
         }},
        {"perlbench", [](std::uint64_t s, std::uint64_t it) {
             DispatchParams p;
             p.handlers = 8;
             p.handlerOps = 12;
             p.opstreamWords = 1 << 14;
             p.seed = 24 + s;
             return makeDispatch("perlbench", p, it);
         }},
        {"sjeng", [](std::uint64_t s, std::uint64_t it) {
             IntMixParams p;
             p.ilpChains = 2;
             p.opsPerChain = 6;
             p.hardTakenNum = 1;
             p.hardTakenDen = 4;
             p.tableKiB = 16;
             p.seed = 25 + s;
             return makeIntMix("sjeng", p, it);
         }},
        {"bwaves", [](std::uint64_t s, std::uint64_t it) {
             FpMixParams p;
             p.ilpChains = 4;
             p.opsPerChain = 6;
             p.streamKiB = 1024;
             p.seed = 26 + s;
             return makeFpMix("bwaves", p, it);
         }},
        {"cactusADM", [](std::uint64_t s, std::uint64_t it) {
             FpMixParams p;
             p.ilpChains = 3;
             p.opsPerChain = 8;
             p.streamKiB = 1024;
             p.seed = 27 + s;
             return makeFpMix("cactusADM", p, it);
         }},
        {"calculix", [](std::uint64_t s, std::uint64_t it) {
             MatmulParams p;
             p.n = 20;
             p.seed += s;
             return makeMatmul("calculix", p, it);
         }},
        {"dealII", [](std::uint64_t s, std::uint64_t it) {
             MatmulParams p;
             p.n = 16;
             p.seed += s;
             return makeMatmul("dealII", p, it);
         }},
        {"gamess", [](std::uint64_t s, std::uint64_t it) {
             FpMixParams p;
             p.ilpChains = 4;
             p.opsPerChain = 8;
             p.streamKiB = 0;
             p.seed = 28 + s;
             return makeFpMix("gamess", p, it);
         }},
        {"gromacs", [](std::uint64_t s, std::uint64_t it) {
             FpMixParams p;
             p.ilpChains = 3;
             p.opsPerChain = 6;
             p.withSqrt = true;
             p.streamKiB = 64;
             p.seed = 29 + s;
             return makeFpMix("gromacs", p, it);
         }},
        {"namd", [](std::uint64_t s, std::uint64_t it) {
             FpMixParams p;
             p.ilpChains = 5;
             p.opsPerChain = 6;
             p.streamKiB = 256;
             p.seed = 30 + s;
             return makeFpMix("namd", p, it);
         }},
        {"povray", [](std::uint64_t s, std::uint64_t it) {
             FpMixParams p;
             p.ilpChains = 2;
             p.opsPerChain = 4;
             p.withDiv = true;
             p.withSqrt = true;
             p.streamKiB = 0;
             p.seed = 31 + s;
             return makeFpMix("povray", p, it);
         }},
        {"tonto", [](std::uint64_t s, std::uint64_t it) {
             FpMixParams p;
             p.ilpChains = 2;
             p.opsPerChain = 8;
             p.streamKiB = 128;
             p.seed = 32 + s;
             return makeFpMix("tonto", p, it);
         }},
        {"zeusmp", [](std::uint64_t s, std::uint64_t it) {
             StreamParams p;
             p.streams = 2;
             p.wordsPerStream = 1 << 17;
             p.strideWords = 1;
             p.fpOps = 6;
             p.withStore = true;
             p.seed += s;
             return makeStream("zeusmp", p, it);
         }},
    };
    return t;
}

} // namespace

Program
makeSeededProgram(const std::string &name, std::uint64_t seed,
                  std::uint64_t iterations)
{
    auto it = table().find(name);
    if (it == table().end())
        throw SimError(ErrorCode::InvalidArgument,
                       "no seeded generator for workload " + name);
    return it->second(seed * kSeedStride, iterations);
}

bool
sameProgram(const Program &a, const Program &b)
{
    if (a.name() != b.name() || a.codeBase() != b.codeBase() ||
        a.entry() != b.entry() || a.code() != b.code() ||
        a.data().size() != b.data().size())
        return false;
    for (std::size_t i = 0; i < a.data().size(); ++i)
        if (a.data()[i].base != b.data()[i].base ||
            a.data()[i].bytes != b.data()[i].bytes)
            return false;
    return true;
}

} // namespace perfbench
