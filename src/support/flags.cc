#include "support/flags.hh"

#include <charconv>
#include <cmath>
#include <stdexcept>
#include <system_error>

namespace mca
{

namespace
{

[[noreturn]] void
reject(const std::string &text, const char *flag, const std::string &want)
{
    throw std::runtime_error(std::string(flag) + ": expected " + want +
                             ", got '" + text + "'");
}

} // namespace

std::uint64_t
parseUnsignedFlag(const std::string &text, const char *flag,
                  std::uint64_t max)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value > max)
        reject(text, flag,
               max == std::numeric_limits<std::uint64_t>::max()
                   ? "an unsigned integer"
                   : "an unsigned integer <= " + std::to_string(max));
    return value;
}

double
parseDoubleFlag(const std::string &text, const char *flag)
{
    double value = 0.0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || !std::isfinite(value))
        reject(text, flag, "a finite number");
    return value;
}

} // namespace mca
