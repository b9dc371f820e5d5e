#include "support/flags.hh"

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
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

double
positionalDouble(int argc, char **argv, int index, const char *name,
                 double fallback)
{
    if (argc <= index)
        return fallback;
    try {
        return parseDoubleFlag(argv[index], name);
    } catch (const std::runtime_error &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        std::exit(1);
    }
}

std::uint64_t
positionalUnsigned(int argc, char **argv, int index, const char *name,
                   std::uint64_t fallback, std::uint64_t max)
{
    if (argc <= index)
        return fallback;
    try {
        return parseUnsignedFlag(argv[index], name, max);
    } catch (const std::runtime_error &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        std::exit(1);
    }
}

} // namespace mca
