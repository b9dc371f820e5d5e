/**
 * @file
 * Checked parsing of numeric command-line flag values.
 *
 * `strtoull`/`atoi` stop at the first character they cannot use, so
 * `--max-insts 1e6` silently meant one instruction. These helpers take
 * the whole string or nothing: a sign, a trailing character, an empty
 * value or an out-of-range number is a std::runtime_error whose
 * one-line message names the flag. mcasim and mcarun report it as
 * their usual fatal error.
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

} // namespace mca

#endif // MCA_SUPPORT_FLAGS_HH
