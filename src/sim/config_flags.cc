#include "sim/config_flags.hh"

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>

#include "sim/config_fields.hh"

namespace mlpwin
{

bool
ArgCursor::next()
{
    if (++i_ >= argc_)
        return false;
    arg_ = argv_[i_];
    return true;
}

const char *
ArgCursor::value()
{
    if (i_ + 1 >= argc_) {
        std::fprintf(stderr, "missing value for %s\n", arg_.c_str());
        std::exit(2);
    }
    return argv_[++i_];
}

std::uint64_t
ArgCursor::number(const char *text)
{
    if (!text)
        text = value();
    std::uint64_t v = 0;
    if (!parseU64(text, v)) {
        std::fprintf(stderr, "%s: not a number: '%s'\n", arg_.c_str(),
                     text);
        std::exit(2);
    }
    return v;
}

const char *
vmFlagsUsage()
{
    return
        "      --paging           simulate virtual memory: TLBs +\n"
        "                         hardware page-table walks through\n"
        "                         the cache hierarchy (default off)\n"
        "      --tlb-entries N    L1 I/D TLB entries, 1-1048576\n"
        "                         (default 64)\n"
        "      --tlb-assoc N      L1 I/D TLB associativity (default 4)\n"
        "      --tlb-stlb-entries N\n"
        "                         unified L2 TLB entries (default "
        "1024)\n"
        "      --tlb-stlb-assoc N L2 TLB associativity (default 8)\n"
        "      --tlb-stlb-latency N\n"
        "                         L2 TLB hit latency, cycles, 0-100\n"
        "                         (default 7)\n"
        "      --page-walk-levels N\n"
        "                         radix page-table depth, 2-5\n"
        "                         (default 4)\n"
        "      --page-huge        back the heap with 2 MiB pages\n"
        "                         (one fewer walk level)\n"
        "      --page-frag-permille N\n"
        "                         of those, N/1000 demoted to 4 KiB\n"
        "                         (fragmentation; 0-1000)\n"
        "      --resize-on-walk   let an outstanding TLB walk trigger\n"
        "                         window enlargement like an L2 miss\n";
}

namespace
{

/**
 * Flags that set one registry field. A bool field is a switch ("--no-"
 * flags clear it, the others set it); any other field takes a value
 * within its registry bounds. Fields under "vm." form ConfigFlagSet::Vm.
 */
constexpr std::pair<const char *, const char *> kFieldFlags[] = {
    {"--paging", "vm.enabled"},
    {"--page-huge", "vm.hugePages"},
    {"--resize-on-walk", "vm.resizeOnWalk"},
    {"--tlb-entries", "vm.itlb.entries"},
    {"--tlb-assoc", "vm.itlb.assoc"},
    {"--tlb-stlb-entries", "vm.stlb.entries"},
    {"--tlb-stlb-assoc", "vm.stlb.assoc"},
    {"--tlb-stlb-latency", "vm.stlb.hitLatency"},
    {"--page-walk-levels", "vm.walkLevels"},
    {"--page-frag-permille", "vm.fragPermille"},
    {"--threads", "core.smt.nThreads"},
    {"--insts", "maxInsts"},
    {"--warmup", "warmupInsts"},
    {"--no-functional-warmup", "functionalWarmup"},
    {"--sample-interval", "sampling.intervalInsts"},
    {"--sample-period", "sampling.periodInsts"},
    {"--detailed-warmup", "sampling.detailedWarmupInsts"},
    {"--check", "lockstepCheck"},
    {"--watchdog-cycles", "watchdog.noCommitWindow"},
    {"--no-watchdog", "watchdog.enabled"},
};

[[noreturn]] void
usageError(const std::string &message)
{
    std::fprintf(stderr, "%s\n", message.c_str());
    std::exit(2);
}

} // namespace

bool
parseConfigFlag(ArgCursor &args, ConfigFlagSet set, SimConfig &cfg)
{
    const std::string &arg = args.arg();
    for (const auto &[flag, field] : kFieldFlags) {
        if (arg != flag || (set == ConfigFlagSet::Vm &&
                            std::strncmp(field, "vm.", 3) != 0))
            continue;
        auto apply = [&](const char *name, auto &ref, auto lo, auto hi,
                         FieldRole) {
            using T = decltype(lo);
            if (std::strcmp(name, field) != 0)
                return;
            if constexpr (std::is_same_v<T, bool>) {
                ref = arg.compare(0, 5, "--no-") != 0;
            } else if (const char *text = args.value();
                       !parseField(text, lo, hi, ref)) {
                if (lo == std::numeric_limits<T>::min() &&
                    hi == std::numeric_limits<T>::max())
                    args.number(text); // Exits: "not a number".
                usageError(arg + ": expected an integer in [" +
                           formatField(lo) + ", " + formatField(hi) +
                           "], got '" + text + "'");
            }
        };
        visitFields(cfg, apply);
        // Composite flags: one value sets both L1 TLBs, and a sampling
        // geometry turns sampling on.
        if (arg == "--tlb-entries")
            cfg.vm.dtlb.entries = cfg.vm.itlb.entries;
        if (arg == "--tlb-assoc")
            cfg.vm.dtlb.assoc = cfg.vm.itlb.assoc;
        if (arg == "--sample-interval" || arg == "--sample-period")
            cfg.sampling.enabled = true;
        return true;
    }
    if (set == ConfigFlagSet::Vm)
        return false;

    if (arg == "--no-warm-caches") {
        cfg.warmInstCaches = false;
        cfg.warmDataCaches = false;
    } else if (arg == "--fetch-policy") {
        const char *v = args.value();
        if (!parseFetchPolicy(v, cfg.core.smt.fetchPolicy))
            usageError("--fetch-policy: unknown policy '" +
                       std::string(v) + "' (valid: " +
                       fetchPolicyNames() + ")");
    } else if (arg == "--partition") {
        const char *v = args.value();
        if (!parsePartitionPolicy(v, cfg.core.smt.partitionPolicy))
            usageError("--partition: unknown policy '" + std::string(v) +
                       "' (valid: " + partitionPolicyNames() + ")");
    } else {
        return false;
    }
    return true;
}

} // namespace mlpwin
