/**
 * @file
 * mcarun — parallel experiment-campaign driver.
 *
 * Expands a parameter grid (benchmarks × machines × schedulers ×
 * thresholds × trace seeds) into independent compile-and-simulate
 * jobs, shards them across worker threads, serves repeated points from
 * an on-disk result cache, and emits JSON-lines and/or CSV results.
 *
 * Results are bit-identical at any --jobs width: each job owns all of
 * its state and results are emitted in grid order, never completion
 * order. Failed or timed-out jobs are recorded in the output (status
 * column) and never abort the campaign; the exit code is 0 as long as
 * the campaign itself ran.
 *
 *   mcarun --benchmarks all --machines single8,dual8 \
 *          --schedulers native,local --jobs 8 --out results.jsonl
 *   mcarun --table2 --scale 1.0 --jobs $(nproc) --csv table2.csv
 *   mcarun --benchmarks compress --thresholds 1,2,4,8,16,32 --csv -
 */

#include <algorithm>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "compiler/pipeline.hh"
#include "obs/cycle_stack.hh"
#include "runner/campaign.hh"
#include "runner/emit.hh"
#include "runner/table2.hh"
#include "runner/telemetry.hh"
#include "support/flags.hh"
#include "support/log.hh"
#include "support/table.hh"

#ifndef MCA_VERSION_STRING
#define MCA_VERSION_STRING "unknown"
#endif

namespace
{

using namespace mca;

struct Options
{
    runner::CampaignGrid grid;
    bool table2 = false;
    unsigned jobs = 1;
    std::string cacheDir = ".mcarun-cache";
    bool noCache = false;
    bool noCompileCache = false;
    std::string jsonOut;
    std::string csvOut;
    std::string telemetryOut;
    bool quiet = false;
    bool printTable = true;
};

void
usage()
{
    auto joined = [](const std::vector<std::string> &v) {
        std::string out;
        for (const auto &s : v)
            out += (out.empty() ? "" : "|") + s;
        return out;
    };
    std::cout <<
        "mcarun — parallel experiment-campaign driver\n\n"
        "grid axes (comma-separated lists; 'all' = every benchmark):\n"
        "  --benchmarks LIST    " + joined(runner::validBenchmarks()) +
        " [compress]\n"
        "  --machines LIST      " + joined(runner::validMachines()) +
        " [dual8]\n"
        "  --schedulers LIST    " + joined(runner::validSchedulers()) +
        " [local]\n"
        "  --partitioners LIST  " + joined(compiler::partitionerNames()) +
        "\n"
        "                       (appended to --schedulers; the scheduler\n"
        "                       axis is the partitioner axis)\n"
        "  --thresholds LIST    local-scheduler imbalance thresholds [4]\n"
        "  --trace-seeds LIST   trace interpreter seeds [42]\n"
        "  --l2-kb LIST         shared-L2 sizes in KB (0 = no L2) [0]\n"
        "  --l2-lat LIST        L2 hit latencies in cycles [6]\n"
        "  --mem-lat LIST       memory backside latencies in cycles [16]\n"
        "  --sample-periods LIST  sampled-run interval periods; 0 = full\n"
        "                       detailed run (docs/sampling.md) [0]\n\n"
        "shared job parameters:\n"
        "  --fill-ports N       fills/cycle per level (0 = unlimited) [0]\n"
        "  --scale X            workload scale [0.2]\n"
        "  --unroll N           unroll factor [1]\n"
        "  --predictor KIND     " + joined(runner::validPredictors()) +
        " [machine default]\n"
        "  --sample-detail N    measured insts per sampled interval "
        "[10000]\n"
        "  --sample-warmup N    detailed-warmup insts per interval [2000]\n"
        "  --max-insts N        trace length cap [300000]\n"
        "  --max-cycles N       cycle budget; exceeding it = timeout "
        "[100000000]\n\n"
        "campaign presets:\n"
        "  --table2             run the Table-2 experiment (3 jobs per\n"
        "                       benchmark) and print the speedup table\n\n"
        "execution:\n"
        "  --jobs N|auto        worker threads [1; auto = all hardware "
        "threads];\n"
        "                       results identical at any width\n"
        "  --cache DIR          result-cache directory [.mcarun-cache]\n"
        "  --no-cache           disable the result cache\n"
        "  --no-compile-cache   compile every job separately (default:\n"
        "                       jobs with equal workload + compile\n"
        "                       config share one compile)\n\n"
        "output:\n"
        "  --out FILE           JSON-lines results ('-' = stdout)\n"
        "  --csv FILE           CSV results ('-' = stdout)\n"
        "  --telemetry FILE     live campaign heartbeat as JSON lines:\n"
        "                       one record per finished job with done/\n"
        "                       total, ETA, aggregate sim-cycles/s, and\n"
        "                       cache-hit rates (docs/profiling.md)\n"
        "  --log-level LVL      debug|info|warn|error|off [info; or env\n"
        "                       MCA_LOG_LEVEL]\n"
        "  --no-table           skip the human-readable table\n"
        "  --quiet              no progress line\n\n"
        "introspection:\n"
        "  --version            print the version string and exit\n"
        "  --list-benchmarks    print the benchmark names, one per line\n";
}

[[noreturn]] void
die(const std::string &msg)
{
    std::cerr << "mcarun: " << msg << "\n";
    std::exit(2);
}

std::vector<std::string>
splitList(const std::string &arg)
{
    std::vector<std::string> out;
    std::stringstream ss(arg);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            out.push_back(item);
    return out;
}

std::string
joinChoices(const std::vector<std::string> &choices)
{
    std::string out;
    for (const auto &c : choices)
        out += (out.empty() ? "" : ", ") + c;
    return out;
}

/** Validate every element of a list axis against the known choices. */
void
checkChoices(const std::vector<std::string> &values,
             const std::vector<std::string> &valid, const char *axis)
{
    for (const auto &v : values)
        if (std::find(valid.begin(), valid.end(), v) == valid.end())
            die(std::string("unknown ") + axis + " '" + v +
                "' (valid: " + joinChoices(valid) + ")");
}

Options
parse(int argc, char **argv)
{
    Options opt;
    std::vector<std::string> args(argv + 1, argv + argc);
    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &a = args[i];
        auto need = [&](const char *what) -> std::string {
            if (i + 1 >= args.size())
                die(std::string("missing value for ") + what);
            return args[++i];
        };
        // Checked numeric values: a malformed one throws, and main
        // reports it as an error naming the flag.
        auto needU64 = [&](const char *what) {
            return parseUnsignedFlag(need(what), what);
        };
        auto needUnsigned = [&](const char *what) {
            return static_cast<unsigned>(parseUnsignedFlag(
                need(what), what, std::numeric_limits<unsigned>::max()));
        };
        auto needU64List = [&](const char *what) {
            std::vector<std::uint64_t> out;
            for (const auto &s : splitList(need(what)))
                out.push_back(parseUnsignedFlag(s, what));
            return out;
        };
        auto needUnsignedList = [&](const char *what) {
            std::vector<unsigned> out;
            for (const auto &s : splitList(need(what)))
                out.push_back(static_cast<unsigned>(parseUnsignedFlag(
                    s, what, std::numeric_limits<unsigned>::max())));
            return out;
        };
        if (a == "--help" || a == "-h") {
            usage();
            std::exit(0);
        } else if (a == "--version") {
            std::cout << "mcarun " << MCA_VERSION_STRING << "\n";
            std::exit(0);
        } else if (a == "--list-benchmarks") {
            for (const auto &name : runner::validBenchmarks())
                std::cout << name << "\n";
            std::exit(0);
        } else if (a == "--benchmarks") {
            const std::string value = need("--benchmarks");
            opt.grid.benchmarks = value == "all"
                                      ? runner::validBenchmarks()
                                      : splitList(value);
        } else if (a == "--machines") {
            opt.grid.machines = splitList(need("--machines"));
        } else if (a == "--schedulers") {
            opt.grid.schedulers = splitList(need("--schedulers"));
        } else if (a == "--partitioners") {
            // Partitioners ARE schedulers (the scheduler name selects
            // the partition pass); this axis just restricts the valid
            // set to the partition-capable ones and appends.
            const auto names = splitList(need("--partitioners"));
            checkChoices(names, compiler::partitionerNames(),
                         "partitioner");
            for (const auto &name : names)
                if (std::find(opt.grid.schedulers.begin(),
                              opt.grid.schedulers.end(),
                              name) == opt.grid.schedulers.end())
                    opt.grid.schedulers.push_back(name);
        } else if (a == "--thresholds") {
            opt.grid.thresholds = needUnsignedList("--thresholds");
        } else if (a == "--trace-seeds") {
            opt.grid.traceSeeds = needU64List("--trace-seeds");
        } else if (a == "--l2-kb") {
            opt.grid.l2Kbs = needUnsignedList("--l2-kb");
        } else if (a == "--l2-lat") {
            opt.grid.l2Lats = needUnsignedList("--l2-lat");
        } else if (a == "--mem-lat") {
            opt.grid.memLats = needUnsignedList("--mem-lat");
        } else if (a == "--sample-periods") {
            opt.grid.samplePeriods = needU64List("--sample-periods");
        } else if (a == "--sample-detail") {
            opt.grid.sampleDetail = needU64("--sample-detail");
        } else if (a == "--sample-warmup") {
            opt.grid.sampleWarmup = needU64("--sample-warmup");
        } else if (a == "--fill-ports") {
            opt.grid.fillPorts = needUnsigned("--fill-ports");
        } else if (a == "--scale") {
            opt.grid.scale = parseDoubleFlag(need("--scale"), "--scale");
        } else if (a == "--unroll") {
            opt.grid.unroll = needUnsigned("--unroll");
        } else if (a == "--predictor") {
            opt.grid.predictor = need("--predictor");
        } else if (a == "--max-insts") {
            opt.grid.maxInsts = needU64("--max-insts");
        } else if (a == "--max-cycles") {
            opt.grid.maxCycles = needU64("--max-cycles");
        } else if (a == "--table2") {
            opt.table2 = true;
        } else if (a == "--jobs" || a == "-j") {
            // Parse-time validation: junk or 0 dies here, before any
            // compile or simulation starts. "auto" asks the host.
            const std::string v = need("--jobs");
            if (v == "auto") {
                const unsigned hw = std::thread::hardware_concurrency();
                opt.jobs = hw ? hw : 1;
            } else {
                opt.jobs = static_cast<unsigned>(
                    parseUnsignedFlag(v, "--jobs", 4096));
                if (opt.jobs == 0)
                    die("--jobs expects a positive worker count "
                        "(1..4096) or 'auto', got '" + v + "'");
            }
        } else if (a == "--cache") {
            opt.cacheDir = need("--cache");
        } else if (a == "--no-cache") {
            opt.noCache = true;
        } else if (a == "--no-compile-cache") {
            opt.noCompileCache = true;
        } else if (a == "--out") {
            opt.jsonOut = need("--out");
        } else if (a == "--csv") {
            opt.csvOut = need("--csv");
        } else if (a == "--telemetry") {
            opt.telemetryOut = need("--telemetry");
        } else if (a == "--log-level") {
            const std::string text = need("--log-level");
            log::Level level;
            if (!log::parseLevel(text, level))
                die("unknown log level '" + text +
                    "' (valid: debug, info, warn, error, off)");
            log::setThreshold(level);
        } else if (a == "--no-table") {
            opt.printTable = false;
        } else if (a == "--quiet") {
            opt.quiet = true;
        } else {
            usage();
            die("unknown argument: " + a);
        }
    }

    checkChoices(opt.grid.benchmarks, runner::validBenchmarks(),
                 "benchmark");
    checkChoices(opt.grid.machines, runner::validMachines(), "machine");
    checkChoices(opt.grid.schedulers, runner::validSchedulers(),
                 "scheduler");
    if (!opt.grid.predictor.empty())
        checkChoices({opt.grid.predictor}, runner::validPredictors(),
                     "predictor");
    // Memory-axis geometry errors (an L2 size with a non-power-of-two
    // set count, a zero memory latency) surface here as one parse-time
    // error instead of a column of Failed jobs after the run.
    for (unsigned l2kb : opt.grid.l2Kbs)
        for (unsigned l2lat : opt.grid.l2Lats)
            for (unsigned memlat : opt.grid.memLats) {
                runner::JobSpec probe;
                if (!opt.grid.machines.empty())
                    probe.machine = opt.grid.machines.front();
                probe.l2Kb = l2kb;
                probe.l2Lat = l2lat;
                probe.memLat = memlat;
                probe.fillPorts = opt.grid.fillPorts;
                try {
                    runner::machineConfigFor(probe);
                } catch (const std::exception &e) {
                    die(e.what());
                }
            }
    // Same early surfacing for infeasible sampling plans.
    for (std::uint64_t period : opt.grid.samplePeriods)
        if (period > 0 &&
            opt.grid.sampleWarmup + opt.grid.sampleDetail > period)
            die("sample warmup+detail exceeds period " +
                std::to_string(period) + " (intervals would overlap)");
    return opt;
}

/** Open FILE for writing, with '-' standing for stdout. */
void
writeResults(const std::string &path,
             const std::vector<runner::JobResult> &results, bool csv)
{
    auto emit = [&](std::ostream &os) {
        if (csv)
            runner::emitCsv(os, results);
        else
            runner::emitJsonLines(os, results);
    };
    if (path == "-") {
        emit(std::cout);
        return;
    }
    std::ofstream out(path, std::ios::trunc);
    if (!out)
        die("cannot open '" + path + "' for writing");
    emit(out);
}

void
printGridTable(const std::vector<runner::JobResult> &results)
{
    TextTable table;
    table.header({"benchmark", "machine", "scheduler", "thr", "seed",
                  "status", "cycles", "retired", "ipc", "replays",
                  "cache"});
    for (const auto &r : results)
        table.row({r.spec.benchmark, r.spec.machine, r.spec.scheduler,
                   std::to_string(r.spec.threshold),
                   std::to_string(r.spec.traceSeed),
                   runner::jobStatusName(r.status),
                   std::to_string(r.cycles), std::to_string(r.retired),
                   TextTable::num(r.ipc), std::to_string(r.replays),
                   r.fromCache ? "hit" : "miss"});
    table.print(std::cout);
}

void
printTable2(const std::vector<harness::Table2Row> &rows)
{
    std::cout << "Table 2: dual-cluster speedup ratios\n"
              << "  100 - 100*(cycles_dual / cycles_single); "
              << "positive = speedup\n\n";
    TextTable table;
    table.header({"benchmark", "none (paper)", "none (ours)",
                  "local (paper)", "local (ours)", "single cycles",
                  "dual-none cycles", "dual-local cycles", "replays(l)"});
    const auto &paper = harness::paperTable2();
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const auto &row = rows[i];
        const bool havePaper = i < paper.size();
        table.row({row.benchmark,
                   havePaper ? TextTable::signedPercent(paper[i].pctNone)
                             : "-",
                   TextTable::signedPercent(row.pctNone),
                   havePaper ? TextTable::signedPercent(paper[i].pctLocal)
                             : "-",
                   TextTable::signedPercent(row.pctLocal),
                   std::to_string(row.single.cycles),
                   std::to_string(row.dualNone.cycles),
                   std::to_string(row.dualLocal.cycles),
                   std::to_string(row.dualLocal.replays)});
    }
    table.print(std::cout);
}

/**
 * Where did the dual-cluster machine lose its cycles? For each
 * benchmark, the per-cause cycle-stack delta between the dual-none run
 * and the single-cluster baseline: positive = cycles the dual machine
 * spends on that cause beyond the single machine. The cause columns sum
 * to the total cycle delta (conservation), so the table decomposes
 * Table 2's slowdown into the paper's §2.1 mechanisms.
 */
void
printTable2Attribution(const std::vector<harness::Table2Row> &rows)
{
    bool have = false;
    for (const auto &row : rows)
        have |= row.single.stackSlots > 0 && row.dualNone.stackSlots > 0;
    if (!have)
        return; // stacks absent (e.g. stale cache entries)

    std::cout << "\nSlowdown attribution (dual/none minus single), "
                 "cycles by cause:\n";
    TextTable table;
    std::vector<std::string> header = {"benchmark", "dCycles"};
    for (std::size_t i = 0; i < obs::kNumStallCauses; ++i)
        header.push_back(
            obs::stallCauseName(static_cast<obs::StallCause>(i)));
    table.header(header);
    for (const auto &row : rows) {
        if (row.single.stackSlots == 0 || row.dualNone.stackSlots == 0)
            continue;
        std::vector<std::string> cells = {
            row.benchmark,
            std::to_string(static_cast<long long>(
                row.dualNone.cycles - row.single.cycles))};
        for (std::size_t i = 0; i < obs::kNumStallCauses; ++i) {
            // Slot-cycles in whole-machine cycles (obs::CycleStack::cyclesOf).
            const auto cycles = [i](const runner::JobResult &r) {
                return static_cast<double>(r.stackSlotCycles[i]) /
                       static_cast<double>(r.stackSlots);
            };
            const double delta = cycles(row.dualNone) - cycles(row.single);
            cells.push_back(TextTable::num(delta, 0));
        }
        table.row(cells);
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    try {
        opt = parse(argc, argv);
    } catch (const std::exception &e) {
        die(e.what());
    }

    runner::CampaignOptions campaign;
    campaign.jobs = opt.jobs;
    campaign.cacheDir = opt.noCache ? "" : opt.cacheDir;
    campaign.compileCache = !opt.noCompileCache;
    // The progress line goes to stderr so piped/captured results stay
    // clean; suppress it when stdout is the results sink anyway.
    runner::ProgressPrinter progress(std::cerr, !opt.quiet);
    campaign.onResult = std::ref(progress);

    // The telemetry stream shares the progress callback; runCampaign
    // invokes it under its own lock, so the JSONL records stay totally
    // ordered (done increments by exactly 1 per line).
    std::optional<runner::TelemetryWriter> telemetry;
    if (!opt.telemetryOut.empty()) {
        try {
            telemetry.emplace(opt.telemetryOut);
        } catch (const std::exception &e) {
            die(e.what());
        }
        campaign.onResult = [&](std::size_t finished, std::size_t total,
                                const runner::JobResult &result) {
            progress(finished, total, result);
            telemetry->onResult(finished, total, result);
        };
    }

    runner::CampaignSummary summary;
    std::vector<runner::JobResult> results;
    std::vector<harness::Table2Row> table2Rows;

    if (opt.table2) {
        harness::ExperimentOptions exp;
        exp.workload.scale = opt.grid.scale;
        exp.maxInsts = opt.grid.maxInsts;
        if (!opt.grid.thresholds.empty())
            exp.imbalanceThreshold = opt.grid.thresholds.front();
        if (!opt.grid.traceSeeds.empty())
            exp.traceSeed = opt.grid.traceSeeds.front();
        auto result = runner::runTable2Campaign(exp, campaign);
        results = std::move(result.jobs);
        table2Rows = std::move(result.rows);
        summary = result.summary;
    } else {
        std::vector<runner::JobSpec> specs;
        try {
            specs = runner::expandGrid(opt.grid);
        } catch (const std::exception &e) {
            die(e.what());
        }
        if (telemetry)
            telemetry->start(specs.size(), opt.jobs);
        results = runner::runCampaign(specs, campaign, &summary);
    }
    progress.finish();
    if (telemetry)
        telemetry->finish(summary);

    if (!opt.jsonOut.empty())
        writeResults(opt.jsonOut, results, /*csv=*/false);
    if (!opt.csvOut.empty())
        writeResults(opt.csvOut, results, /*csv=*/true);

    if (opt.printTable) {
        if (opt.table2) {
            printTable2(table2Rows);
            printTable2Attribution(table2Rows);
        } else {
            printGridTable(results);
        }
    }

    for (const auto &r : results)
        if (r.status != runner::JobStatus::Ok)
            MCA_LOG_WARN("mcarun",
                         r.spec.benchmark, "/", r.spec.machine, "/",
                         r.spec.scheduler, " ",
                         runner::jobStatusName(r.status), ": ", r.error);
    runner::emitSummary(std::cerr, summary);
    return 0;
}
