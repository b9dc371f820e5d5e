#include "support/flags.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <system_error>
#include <thread>

#include "support/log.hh"

namespace mca
{

namespace
{

constexpr std::uint64_t kU64Max = std::numeric_limits<std::uint64_t>::max();

/** Help text starts in this column and wraps before kHelpWidth. */
constexpr std::size_t kHelpColumn = 23;
constexpr std::size_t kHelpWidth = 79;

[[noreturn]] void
reject(const std::string &text, const char *flag, const std::string &want)
{
    throw std::runtime_error(std::string(flag) + ": expected " + want +
                             ", got '" + text + "'");
}

std::string
joined(const std::vector<std::string> &items, const char *sep)
{
    std::string out;
    for (const auto &item : items)
        out += (out.empty() ? "" : sep) + item;
    return out;
}

} // namespace

std::uint64_t
parseUnsignedFlag(const std::string &text, const char *flag,
                  std::uint64_t max, std::uint64_t min)
{
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value > max || value < min)
        reject(text, flag,
               min > 0 ? (max == kU64Max
                              ? "an integer >= " + std::to_string(min)
                              : "an integer in " + std::to_string(min) +
                                    ".." + std::to_string(max))
               : max == kU64Max
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

unsigned
parseJobsFlag(const std::string &text, const char *flag)
{
    if (text == "auto") {
        const unsigned hw = std::thread::hardware_concurrency();
        return std::clamp(hw, 1u, kMaxJobs);
    }
    std::uint64_t value = 0;
    const char *end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, value);
    if (ec != std::errc() || ptr != end || value < 1 || value > kMaxJobs)
        reject(text, flag,
               "a worker count in 1.." + std::to_string(kMaxJobs) +
                   " or 'auto'");
    return static_cast<unsigned>(value);
}

void
checkChoice(const std::string &value, const std::vector<std::string> &valid,
            const std::string &flag)
{
    if (std::find(valid.begin(), valid.end(), value) == valid.end())
        throw std::runtime_error(flag + ": unknown value '" + value +
                                 "' (valid: " + joined(valid, ", ") + ")");
}

std::vector<std::string>
splitList(const std::string &text)
{
    std::vector<std::string> out;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
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

// --- FlagTable -----------------------------------------------------------

FlagTable::FlagTable(std::string title) : title_(std::move(title))
{
    entries_.push_back({"--help", "-h", "", "print this help and exit",
                        [this](const std::string &) {
                            printHelp(std::cout);
                            std::exit(0);
                        }});
}

void
FlagTable::section(std::string heading)
{
    entries_.push_back({"", "", "", std::move(heading), nullptr});
}

void
FlagTable::add(std::string name, std::string metavar, std::string help,
               Action action)
{
    entries_.push_back({std::move(name), "", std::move(metavar),
                        std::move(help), std::move(action)});
}

void
FlagTable::flag(std::string name, std::string help, bool &dest)
{
    add(std::move(name), "", std::move(help),
        [&dest](const std::string &) { dest = true; });
}

void
FlagTable::flag(std::string name, std::string metavar, std::string help,
                std::string &dest)
{
    add(std::move(name), std::move(metavar), std::move(help),
        [&dest](const std::string &v) { dest = v; });
}

void
FlagTable::flag(std::string name, std::string metavar, std::string help,
                double &dest)
{
    add(name, std::move(metavar), std::move(help),
        [&dest, name](const std::string &v) {
            dest = parseDoubleFlag(v, name.c_str());
        });
}

namespace
{

/** Store a parseUnsignedFlag value in [@p min, the range of V]. */
template <typename V, typename T>
FlagTable::Action
storeUnsigned(T &dest, const std::string &name, std::uint64_t min = 0)
{
    return [&dest, name, min](const std::string &v) {
        dest = static_cast<V>(parseUnsignedFlag(
            v, name.c_str(), std::numeric_limits<V>::max(), min));
    };
}

} // namespace

void
FlagTable::flag(std::string name, std::string metavar, std::string help,
                unsigned &dest)
{
    add(name, std::move(metavar), std::move(help),
        storeUnsigned<unsigned>(dest, name));
}

void
FlagTable::flag(std::string name, std::string metavar, std::string help,
                std::optional<unsigned> &dest)
{
    add(name, std::move(metavar), std::move(help),
        storeUnsigned<unsigned>(dest, name));
}

void
FlagTable::flag(std::string name, std::string metavar, std::string help,
                std::uint64_t &dest, std::uint64_t min)
{
    add(name, std::move(metavar), std::move(help),
        storeUnsigned<std::uint64_t>(dest, name, min));
}

void
FlagTable::flag(std::string name, std::string metavar, std::string help,
                std::optional<std::uint64_t> &dest)
{
    add(name, std::move(metavar), std::move(help),
        storeUnsigned<std::uint64_t>(dest, name));
}

void
FlagTable::choice(std::string name, std::string metavar, std::string help,
                  std::string &dest, std::vector<std::string> choices)
{
    help = joined(choices, "|") + " " + help;
    add(name, std::move(metavar), std::move(help),
        [&dest, name, choices = std::move(choices)](const std::string &v) {
            checkChoice(v, choices, name);
            dest = v;
        });
}

void
FlagTable::list(std::string name, std::string metavar, std::string help,
                std::vector<unsigned> &dest)
{
    add(name, std::move(metavar), std::move(help),
        [&dest, name](const std::string &v) {
            dest.clear();
            for (const auto &item : splitList(v))
                dest.push_back(static_cast<unsigned>(parseUnsignedFlag(
                    item, name.c_str(),
                    std::numeric_limits<unsigned>::max())));
        });
}

void
FlagTable::list(std::string name, std::string metavar, std::string help,
                std::vector<std::uint64_t> &dest)
{
    add(name, std::move(metavar), std::move(help),
        [&dest, name](const std::string &v) {
            dest.clear();
            for (const auto &item : splitList(v))
                dest.push_back(parseUnsignedFlag(item, name.c_str()));
        });
}

void
FlagTable::list(std::string name, std::string metavar, std::string help,
                std::vector<std::string> &dest,
                std::vector<std::string> choices)
{
    help = joined(choices, "|") + " " + help;
    add(name, std::move(metavar), std::move(help),
        [&dest, name, choices = std::move(choices)](const std::string &v) {
            dest = splitList(v);
            for (const auto &item : dest)
                checkChoice(item, choices, name);
        });
}

void
FlagTable::standard(std::string version_line,
                    std::vector<std::string> benchmarks)
{
    add("--version", "", "print the version string and exit",
        [line = std::move(version_line)](const std::string &) {
            std::cout << line << "\n";
            std::exit(0);
        });
    add("--list-benchmarks", "", "print the benchmark names, one per line",
        [names = std::move(benchmarks)](const std::string &) {
            for (const auto &name : names)
                std::cout << name << "\n";
            std::exit(0);
        });
    add("--log-level", "LVL",
        "debug|info|warn|error|off [info; or env MCA_LOG_LEVEL]",
        [](const std::string &v) {
            log::Level level = log::Level::Info;
            if (!log::parseLevel(v, level))
                throw std::runtime_error(
                    "--log-level: unknown value '" + v +
                    "' (valid: debug, info, warn, error, off)");
            log::setThreshold(level);
        });
}

void
FlagTable::jobs(unsigned &dest)
{
    add("--jobs", "N|auto",
        "worker threads, 1.." + std::to_string(kMaxJobs) +
            " or auto = all hardware threads [" + std::to_string(dest) +
            "]; results identical at any width",
        [&dest](const std::string &v) { dest = parseJobsFlag(v, "--jobs"); });
    entries_.back().alias = "-j";
}

const FlagTable::Entry *
FlagTable::find(const std::string &arg) const
{
    for (const Entry &e : entries_)
        if (!e.name.empty() && (arg == e.name || arg == e.alias))
            return &e;
    return nullptr;
}

void
FlagTable::parse(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        const Entry *entry = find(arg);
        if (!entry)
            throw std::runtime_error("unknown argument: " + arg +
                                     " (see --help)");
        std::string value;
        if (!entry->metavar.empty()) {
            if (i + 1 >= argc)
                throw std::runtime_error("missing value for " +
                                         entry->name);
            value = argv[++i];
        }
        given_.insert(entry->name);
        entry->action(value);
    }
}

bool
FlagTable::given(const std::string &name) const
{
    return given_.count(name) != 0;
}

void
FlagTable::printHelp(std::ostream &os) const
{
    os << title_ << "\n\n";
    for (const Entry &e : entries_) {
        if (e.name.empty()) {
            os << "\n" << e.help << "\n";
            continue;
        }
        std::string line = "  " + (e.alias.empty() ? "" : e.alias + ", ") +
                           e.name +
                           (e.metavar.empty() ? "" : " " + e.metavar);
        line.append(line.size() + 2 <= kHelpColumn
                        ? kHelpColumn - line.size()
                        : 2,
                    ' ');
        // Word-wrap the help text, continuation lines in the help column.
        std::istringstream words(e.help);
        bool lineHasWord = false;
        for (std::string word; words >> word;) {
            if (lineHasWord && line.size() + 1 + word.size() > kHelpWidth) {
                os << line << "\n";
                line.assign(kHelpColumn, ' ');
                lineHasWord = false;
            }
            line += (lineHasWord ? " " : "") + word;
            lineHasWord = true;
        }
        os << line << "\n";
    }
}

} // namespace mca
