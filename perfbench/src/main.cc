/**
 * @file
 * mcabench — runs one workload of the repository benchmark
 * (perfbench/README.md).
 *
 *   mcabench --workload NAME --seed N --seconds S --trace 0|1
 *            --work-dir DIR --out-dir DIR [--inject WHAT]
 *            [--commit SHA] [--src-digest HEX]
 *   mcabench --list-metrics
 *
 * Prints a host/build fingerprint, every metric by name with its unit,
 * ops_attempted and ops_failed, and as its last line one JSON object
 * {"correct", "attempted", "failed", "metrics"}. Untraced runs report
 * the end-to-end metrics, traced runs the per-layer ones. Exits 1 when
 * any output check failed.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include "bench.hh"

namespace
{

using namespace mcabench;

const std::map<std::string, WorkloadFn> &
workloadTable()
{
    static const std::map<std::string, WorkloadFn> table = {
        {"issue-bound", runIssueBound},
        {"memory-bound-octa8", runMemoryBound},
        {"table2-campaign", runTable2Campaign},
        {"sampled-gcc1", runSampledGcc1},
    };
    return table;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

/** Every digit of a double, as a JSON number. */
std::string
number(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line))
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line
                                              : line.substr(colon + 2);
        }
    return "unknown";
}

[[noreturn]] void
usage(const std::string &why)
{
    std::cerr << "mcabench: " << why
              << "\nusage: mcabench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --work-dir DIR --out-dir DIR [--inject WHAT] "
                 "[--commit SHA] [--src-digest HEX]\n"
                 "       mcabench --list-metrics\n";
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &text)
{
    std::size_t used = 0;
    unsigned long long v = 0;
    try {
        v = std::stoull(text, &used);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != text.size() || text.empty() || text[0] == '-')
        usage(flag + " expects a non-negative integer, got '" + text + "'");
    return v;
}

void
listMetrics()
{
    std::cout << "[\n";
    const auto &table = metricTable();
    for (std::size_t i = 0; i < table.size(); ++i)
        std::cout << "  {\"name\": " << jsonString(table[i].name)
                  << ", \"unit\": " << jsonString(table[i].unit)
                  << ", \"better\": " << jsonString(table[i].better)
                  << ", \"end_to_end\": "
                  << (table[i].endToEnd ? "true" : "false") << "}"
                  << (i + 1 < table.size() ? ",\n" : "\n");
    std::cout << "]\n";
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    const unsigned nproc =
        std::max(1u, std::thread::hardware_concurrency());
    opts.checkWidth = std::min(2u, nproc);
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--list-metrics") {
            listMetrics();
            return 0;
        }
        if (i + 1 >= argc)
            usage(arg + " needs a value");
        const std::string val = argv[++i];
        if (arg == "--workload")
            opts.workload = val;
        else if (arg == "--seed") {
            opts.seed = parseUnsigned(arg, val);
            haveSeed = true;
        } else if (arg == "--seconds") {
            opts.seconds = static_cast<double>(parseUnsigned(arg, val));
            haveSeconds = opts.seconds > 0;
        } else if (arg == "--trace") {
            if (val != "0" && val != "1")
                usage("--trace expects 0 or 1");
            opts.trace = val == "1";
            haveTrace = true;
        } else if (arg == "--work-dir")
            opts.workDir = val;
        else if (arg == "--out-dir")
            opts.outDir = val;
        else if (arg == "--inject")
            opts.inject = val;
        else if (arg == "--commit")
            opts.commit = val;
        else if (arg == "--src-digest")
            opts.srcDigest = val;
        else
            usage("unknown argument " + arg);
    }
    const auto wit = workloadTable().find(opts.workload);
    if (wit == workloadTable().end())
        usage("unknown workload '" + opts.workload + "'");
    if (!haveSeed || !haveSeconds || !haveTrace || opts.workDir.empty() ||
        opts.outDir.empty())
        usage("--seed, --seconds (> 0), --trace, --work-dir and --out-dir "
              "are required");

    std::filesystem::create_directories(opts.workDir);
    std::filesystem::create_directories(opts.outDir);

    std::ostringstream fp;
    fp << "{\"nproc\": " << nproc
       << ", \"cpu_model\": " << jsonString(cpuModel())
       << ", \"compiler\": " << jsonString(MCABENCH_CXX_COMPILER)
       << ", \"build_type\": " << jsonString(MCABENCH_BUILD_TYPE)
       << ", \"commit\": " << jsonString(opts.commit)
       << ", \"src_digest\": " << jsonString(opts.srcDigest)
       << ", \"executor_width\": " << opts.width
       << ", \"check_width\": " << opts.checkWidth
       << ", \"workload\": " << jsonString(opts.workload)
       << ", \"seed\": " << opts.seed << ", \"seconds\": " << opts.seconds
       << ", \"trace\": " << (opts.trace ? 1 : 0) << "}";
    std::cout << "fingerprint " << fp.str() << "\n" << std::flush;

    // Every metric of this run's kind starts at zero: a per-layer row
    // whose layer the workload does not exercise stays zero.
    Metrics metrics;
    for (const MetricDef &def : metricTable())
        if (def.endToEnd != opts.trace)
            metrics[def.name] = 0.0;

    Checks checks;
    Tracer tracer(opts.trace);
    const std::string stem = opts.outDir + "/" + opts.workload + "-seed" +
                             std::to_string(opts.seed) + "-trace" +
                             (opts.trace ? "1" : "0");
    try {
        wit->second(opts, checks, tracer, metrics);
        if (opts.trace)
            tracer.writeJson(stem + ".spans.json");
    } catch (const std::exception &e) {
        std::cerr << "mcabench: " << opts.workload << ": " << e.what()
                  << "\n";
        return 1;
    }

    std::map<std::string, const MetricDef *> defs;
    for (const MetricDef &def : metricTable())
        defs[def.name] = &def;
    for (const auto &[name, value] : metrics) {
        const auto it = defs.find(name);
        checks.expect(it != defs.end() &&
                          it->second->endToEnd != opts.trace,
                      "metric " + name + " is not a " +
                          (opts.trace ? "per-layer" : "end-to-end") +
                          " metric of the table");
        checks.expect(std::isfinite(value),
                      "metric " + name + " is not finite");
        if (!opts.trace)
            checks.expect(value > 0.0, "end-to-end metric " + name +
                                           " is not positive");
    }

    std::ostringstream json;
    json << "{\"correct\": "
         << (checks.failures().empty() ? "true" : "false")
         << ", \"attempted\": " << checks.attempted()
         << ", \"failed\": " << checks.failed() << ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, value] : metrics) {
        const std::string unit =
            defs.count(name) ? defs.at(name)->unit : "?";
        std::cout << "metric " << name << " = " << number(value) << " "
                  << unit << "\n";
        json << (first ? "" : ", ") << jsonString(name)
             << ": {\"value\": "
             << (std::isfinite(value) ? number(value) : "null")
             << ", \"unit\": " << jsonString(unit) << "}";
        first = false;
    }
    json << "}}";
    std::cout << "ops_attempted = " << checks.attempted() << "\n"
              << "ops_failed = " << checks.failed() << "\n";

    {
        std::ofstream res(stem + ".json", std::ios::trunc);
        res << "{\"fingerprint\": " << fp.str()
            << ",\n \"failures\": [";
        for (std::size_t i = 0; i < checks.failures().size(); ++i)
            res << (i ? ", " : "") << jsonString(checks.failures()[i]);
        res << "],\n \"result\": " << json.str() << "}\n";
    }
    std::cout << json.str() << "\n" << std::flush;
    return checks.failures().empty() ? 0 : 1;
}
