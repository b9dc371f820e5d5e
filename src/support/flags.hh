/**
 * @file
 * Checked parsing of numeric command-line flag values.
 *
 * `strtoull`/`atoi` stop at the first character they cannot use, so
 * `--max-insts 1e6` silently meant one instruction. These helpers take
 * the whole string or nothing: a sign, a trailing character, an empty
 * value or an out-of-range number is a std::runtime_error whose
 * one-line message names the flag. mcasim and mcarun report it as
 * their usual fatal error; the benches and examples read their
 * positional arguments through positionalDouble/positionalUnsigned.
 */

#ifndef MCA_SUPPORT_FLAGS_HH
#define MCA_SUPPORT_FLAGS_HH

#include <cstdint>
#include <limits>
#include <string>

namespace mca
{

/** Parse @p text, the value of @p flag, as a base-10 integer in
 *  [0, @p max]. */
std::uint64_t
parseUnsignedFlag(const std::string &text, const char *flag,
                  std::uint64_t max =
                      std::numeric_limits<std::uint64_t>::max());

/** Parse @p text, the value of @p flag, as a finite decimal number. */
double parseDoubleFlag(const std::string &text, const char *flag);

/**
 * Positional argument @p index of @p argv, parsed like parseDoubleFlag
 * with @p name in the error, or @p fallback when @p argc does not
 * reach it. A malformed value prints one `fatal:` line to stderr and
 * exits 1.
 */
double positionalDouble(int argc, char **argv, int index, const char *name,
                        double fallback);

/** The same for an unsigned integer in [0, @p max]. */
std::uint64_t
positionalUnsigned(int argc, char **argv, int index, const char *name,
                   std::uint64_t fallback,
                   std::uint64_t max =
                       std::numeric_limits<std::uint64_t>::max());

} // namespace mca

#endif // MCA_SUPPORT_FLAGS_HH
