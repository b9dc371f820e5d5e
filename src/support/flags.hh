/**
 * @file
 * Checked parsing of command-line flags.
 *
 * `strtoull`/`atoi` stop at the first character they cannot use, so
 * `--max-insts 1e6` silently meant one instruction. The value parsers
 * take the whole string or nothing: a sign, a trailing character, an
 * empty value or an out-of-range number is a std::runtime_error whose
 * one-line message names the flag (`<flag>: expected ...`). The benches
 * and examples read their positional arguments through
 * positionalDouble/positionalUnsigned.
 *
 * FlagTable is the one command-line front end of mcasim, mcarun and the
 * flag-driven benches. Each entry gives a flag's name, the metavar and
 * help line its `--help` shows, and a typed destination; one parse loop
 * and one help printer are driven from the table, so the help cannot
 * drift from what is accepted and every tool checks a value the same
 * way.
 */

#ifndef MCA_SUPPORT_FLAGS_HH
#define MCA_SUPPORT_FLAGS_HH

#include <cstdint>
#include <functional>
#include <limits>
#include <optional>
#include <ostream>
#include <set>
#include <string>
#include <vector>

namespace mca
{

/** Largest worker count `--jobs` (and a sample plan's `jobs=`) accepts. */
constexpr unsigned kMaxJobs = 4096;

/** Parse @p text, the value of @p flag, as a base-10 integer in
 *  [@p min, @p max]. */
std::uint64_t
parseUnsignedFlag(const std::string &text, const char *flag,
                  std::uint64_t max =
                      std::numeric_limits<std::uint64_t>::max(),
                  std::uint64_t min = 0);

/** Parse @p text, the value of @p flag, as a finite decimal number. */
double parseDoubleFlag(const std::string &text, const char *flag);

/** Parse a worker count: 1..kMaxJobs, or `auto` for every hardware
 *  thread. */
unsigned parseJobsFlag(const std::string &text, const char *flag);

/** Throw `<flag>: unknown value '<value>' (valid: a, b, ...)` unless
 *  @p value is one of @p valid. */
void checkChoice(const std::string &value,
                 const std::vector<std::string> &valid,
                 const std::string &flag);

/** Split a comma-separated list, dropping empty items. */
std::vector<std::string> splitList(const std::string &text);

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

/**
 * A declarative flag table: one parse loop and one `--help` printer.
 *
 * `-h`/`--help` is always declared. Every other entry writes its value
 * into a destination the caller owns, which must outlive parse(). A
 * malformed command line throws std::runtime_error with a one-line
 * message naming the flag; each tool reports it in its own way.
 */
class FlagTable
{
  public:
    /** Receives the flag's value (empty for a switch); throws
     *  std::runtime_error to reject it. */
    using Action = std::function<void(const std::string &value)>;

    /** @p title opens the `--help` text. */
    explicit FlagTable(std::string title);

    // The `--help` entry holds `this`.
    FlagTable(const FlagTable &) = delete;
    FlagTable &operator=(const FlagTable &) = delete;

    /** Start a titled group of flags in the `--help` text. */
    void section(std::string heading);

    /** A flag with a custom action; an empty @p metavar makes it a
     *  switch that takes no value. */
    void add(std::string name, std::string metavar, std::string help,
             Action action);

    /** A switch that sets @p dest. */
    void flag(std::string name, std::string help, bool &dest);
    void flag(std::string name, std::string metavar, std::string help,
              std::string &dest);
    void flag(std::string name, std::string metavar, std::string help,
              double &dest);
    /** An integer that must fit in `unsigned`. */
    void flag(std::string name, std::string metavar, std::string help,
              unsigned &dest);
    void flag(std::string name, std::string metavar, std::string help,
              std::optional<unsigned> &dest);
    /** An integer of at least @p min. */
    void flag(std::string name, std::string metavar, std::string help,
              std::uint64_t &dest, std::uint64_t min = 0);
    void flag(std::string name, std::string metavar, std::string help,
              std::optional<std::uint64_t> &dest);

    /** One of @p choices; the help line lists them. */
    void choice(std::string name, std::string metavar, std::string help,
                std::string &dest, std::vector<std::string> choices);

    /** Comma-separated lists. */
    void list(std::string name, std::string metavar, std::string help,
              std::vector<unsigned> &dest);
    void list(std::string name, std::string metavar, std::string help,
              std::vector<std::uint64_t> &dest);
    /** Every item one of @p choices; the help line lists them. */
    void list(std::string name, std::string metavar, std::string help,
              std::vector<std::string> &dest,
              std::vector<std::string> choices);

    /**
     * The entries the tools share: `--version` (prints
     * @p version_line), `--list-benchmarks` (prints @p benchmarks one
     * per line) and `--log-level`.
     */
    void standard(std::string version_line,
                  std::vector<std::string> benchmarks);

    /** `--jobs N|auto` (alias `-j`), parsed by parseJobsFlag. */
    void jobs(unsigned &dest);

    /** Parse argv[1..argc). `--help` prints the help and exits 0. */
    void parse(int argc, char **argv);

    /** Whether @p name appeared on the command line. */
    bool given(const std::string &name) const;

    void printHelp(std::ostream &os) const;

  private:
    struct Entry
    {
        std::string name; ///< empty for a section heading
        std::string alias;
        std::string metavar;
        std::string help;
        Action action;
    };

    const Entry *find(const std::string &arg) const;

    std::string title_;
    std::vector<Entry> entries_;
    std::set<std::string> given_;
};

} // namespace mca

#endif // MCA_SUPPORT_FLAGS_HH
