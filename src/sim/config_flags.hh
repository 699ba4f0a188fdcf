/**
 * @file
 * Command-line parsing shared by mlpwin, mlpwin_batch and mlpwin_fuzz:
 * the argv cursor their flag loops walk, and the SimConfig flags they
 * have in common. A value flag that sets one registry field takes the
 * field's bounds from the registry (sim/config_fields.hh). Values
 * parse strictly (the parse.hh convention); a missing, junk or
 * out-of-range value prints a usage message and exits 2.
 */

#ifndef MLPWIN_SIM_CONFIG_FLAGS_HH
#define MLPWIN_SIM_CONFIG_FLAGS_HH

#include <cstdint>
#include <string>

#include "sim/sim_config.hh"

namespace mlpwin
{

/** Walks argv one flag at a time. */
class ArgCursor
{
  public:
    ArgCursor(int argc, char **argv) : argc_(argc), argv_(argv) {}

    /** Step to the next argument; false past the last. */
    bool next();
    /** The current argument. */
    const std::string &arg() const { return arg_; }
    /** Consume the current flag's value; exit 2 if there is none. */
    const char *value();
    /** `text` (default: value()) as a u64; exit 2 on junk. */
    std::uint64_t number(const char *text = nullptr);

  private:
    int argc_;
    char **argv_;
    int i_ = 0;
    std::string arg_;
};

/** Which shared flags a tool accepts. */
enum class ConfigFlagSet
{
    /** --paging, --tlb-*, --page-*, --resize-on-walk. */
    Vm,
    /**
     * The vm flags plus --threads, --fetch-policy, --partition,
     * --insts, --warmup, --no-functional-warmup, --sample-interval,
     * --sample-period, --detailed-warmup, --no-warm-caches, --check,
     * --watchdog-cycles and --no-watchdog.
     */
    All,
};

/** Usage lines for the vm flags (same wording in every tool). */
const char *vmFlagsUsage();

/**
 * Apply the current argument to `cfg` if it is a shared flag of
 * `set`, consuming its value. Exits 2 on a bad value.
 * @return False when it is not such a flag (nothing consumed).
 */
bool parseConfigFlag(ArgCursor &args, ConfigFlagSet set, SimConfig &cfg);

} // namespace mlpwin

#endif // MLPWIN_SIM_CONFIG_FLAGS_HH
