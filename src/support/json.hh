/**
 * @file
 * The text forms every JSON writer and content key shares: one string
 * escaper and one canonical double formatter, so a key, an artifact and
 * a JSON record spell the same value the same way.
 */

#ifndef MCA_SUPPORT_JSON_HH
#define MCA_SUPPORT_JSON_HH

#include <string>

namespace mca
{

/** Escape @p s for use inside a JSON double-quoted string literal. */
std::string jsonEscape(const std::string &s);

/**
 * `%.17g`: round-trippable and the same on every platform. Cache keys
 * and artifact files depend on these exact bytes.
 */
std::string canonicalDouble(double value);

/** canonicalDouble, or `null` for a value JSON cannot spell (inf, nan). */
std::string jsonDouble(double value);

} // namespace mca

#endif // MCA_SUPPORT_JSON_HH
