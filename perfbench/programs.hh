/**
 * @file
 * The 28 suite programs rebuilt through the public kernel generators
 * with a benchmark seed folded into every kernel's data seed. Seed 0
 * reproduces spec2006Suite() exactly; main.cc checks that on every
 * run, so a change to the suite cannot silently leave the benchmark
 * measuring different programs.
 */

#ifndef PERFBENCH_PROGRAMS_HH
#define PERFBENCH_PROGRAMS_HH

#include <cstdint>
#include <string>

#include "isa/program.hh"

namespace perfbench
{

/**
 * Build suite program `name` with its data seed shifted by `seed`.
 *
 * @throws mlpwin::SimError{InvalidArgument} for a non-suite name.
 */
mlpwin::Program makeSeededProgram(const std::string &name,
                                  std::uint64_t seed,
                                  std::uint64_t iterations);

/** True when both programs have the same code, data and entry. */
bool sameProgram(const mlpwin::Program &a, const mlpwin::Program &b);

} // namespace perfbench

#endif // PERFBENCH_PROGRAMS_HH
