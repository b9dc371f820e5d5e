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

#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

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
    std::string jsonOut;
    std::string csvOut;
    std::string telemetryOut;
    bool quiet = false;
    bool noTable = false;
};

[[noreturn]] void
die(const std::string &msg)
{
    std::cerr << "mcarun: " << msg << "\n";
    std::exit(2);
}

/** Grid flags the --table2 preset does not read: it runs its own fixed
 *  benchmark x machine x scheduler grid on the paper's machines. */
constexpr const char *kNotForTable2[] = {
    "--benchmarks",     "--machines",      "--schedulers",
    "--l2-kb",          "--l2-lat",        "--mem-lat",
    "--sample-periods", "--sample-detail", "--sample-warmup",
    "--fill-ports",     "--unroll",        "--predictor",
    "--max-cycles",
};

Options
parse(int argc, char **argv)
{
    Options opt;
    runner::CampaignGrid &grid = opt.grid;
    FlagTable cli("mcarun — parallel experiment-campaign driver");

    cli.section("grid axes (comma-separated lists):");
    std::string benchmarkHelp;
    for (const auto &name : runner::validBenchmarks())
        benchmarkHelp += name + "|";
    cli.add("--benchmarks", "LIST",
            benchmarkHelp + "all (every benchmark) [compress]",
            [&](const std::string &v) {
                if (v == "all") {
                    grid.benchmarks = runner::validBenchmarks();
                    return;
                }
                grid.benchmarks = splitList(v);
                for (const auto &name : grid.benchmarks)
                    checkChoice(name, runner::validBenchmarks(),
                                "--benchmarks");
            });
    cli.list("--machines", "LIST", "[dual8]", grid.machines,
             runner::validMachines());
    cli.list("--schedulers", "LIST", "[local]", grid.schedulers,
             runner::validSchedulers());
    cli.list("--thresholds", "LIST",
             "local-scheduler imbalance thresholds [4]", grid.thresholds);
    cli.list("--trace-seeds", "LIST",
             "trace interpreter seeds, each also the compiler's "
             "profiling-run seed [42]",
             grid.traceSeeds);
    cli.list("--l2-kb", "LIST", "shared-L2 sizes in KB (0 = no L2) [0]",
             grid.l2Kbs);
    cli.list("--l2-lat", "LIST", "L2 hit latencies in cycles [6]",
             grid.l2Lats);
    cli.list("--mem-lat", "LIST", "memory backside latencies in cycles [16]",
             grid.memLats);
    cli.list("--sample-periods", "LIST",
             "sampled-run interval periods; 0 = full detailed run "
             "(docs/sampling.md) [0]",
             grid.samplePeriods);

    cli.section("shared job parameters:");
    cli.flag("--fill-ports", "N", "fills/cycle per level (0 = unlimited) [0]",
             grid.fillPorts);
    cli.flag("--scale", "X", "workload scale [0.2]", grid.scale);
    cli.flag("--unroll", "N", "unroll factor [1]", grid.unroll);
    cli.choice("--predictor", "KIND", "[machine default]", grid.predictor,
               runner::validPredictors());
    cli.flag("--sample-detail", "N",
             "measured insts per sampled interval [10000]",
             grid.sampleDetail);
    cli.flag("--sample-warmup", "N",
             "detailed-warmup insts per interval [2000]", grid.sampleWarmup);
    cli.flag("--max-insts", "N", "trace length cap [300000]", grid.maxInsts);
    cli.flag("--max-cycles", "N",
             "cycle budget; exceeding it = timeout [100000000]",
             grid.maxCycles);

    cli.section("campaign presets:");
    cli.flag("--table2",
             "run the Table-2 experiment (3 jobs per benchmark) and print "
             "the speedup table; of the grid flags it reads only --scale, "
             "--max-insts and one --thresholds and --trace-seeds value",
             opt.table2);

    cli.section("execution:");
    cli.jobs(opt.jobs);
    cli.flag("--cache", "DIR", "result-cache directory [.mcarun-cache]",
             opt.cacheDir);
    cli.flag("--no-cache", "disable the result cache", opt.noCache);

    cli.section("output:");
    cli.flag("--out", "FILE", "JSON-lines results ('-' = stdout)",
             opt.jsonOut);
    cli.flag("--csv", "FILE", "CSV results ('-' = stdout)", opt.csvOut);
    cli.flag("--telemetry", "FILE",
             "live campaign heartbeat as JSON lines: one record per "
             "finished job with done/total, ETA, aggregate sim-cycles/s, "
             "and cache-hit rates (docs/profiling.md)",
             opt.telemetryOut);
    cli.flag("--no-table", "skip the human-readable table", opt.noTable);
    cli.flag("--quiet", "no progress line", opt.quiet);

    cli.section("general:");
    cli.standard(std::string("mcarun ") + MCA_VERSION_STRING,
                 runner::validBenchmarks());

    cli.parse(argc, argv);

    // The preset fails closed: a flag it would silently ignore is an
    // error, not a different experiment than the one asked for.
    if (opt.table2) {
        for (const char *flag : kNotForTable2)
            if (cli.given(flag))
                throw std::runtime_error(
                    std::string("--table2 runs a fixed grid and does not "
                                "honour ") +
                    flag);
        if (grid.thresholds.size() > 1)
            throw std::runtime_error(
                "--table2 takes one --thresholds value");
        if (grid.traceSeeds.size() > 1)
            throw std::runtime_error(
                "--table2 takes one --trace-seeds value");
    }
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

/** The whole run; a malformed command line or grid throws. */
int
run(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    runner::CampaignOptions campaign;
    campaign.jobs = opt.jobs;
    campaign.cacheDir = opt.noCache ? "" : opt.cacheDir;
    // The progress line goes to stderr so piped/captured results stay
    // clean; suppress it when stdout is the results sink anyway.
    runner::ProgressPrinter progress(std::cerr, !opt.quiet);
    campaign.onResult = std::ref(progress);

    // The telemetry stream shares the progress callback; runCampaign
    // invokes it under its own lock, so the JSONL records stay totally
    // ordered (done increments by exactly 1 per line).
    std::optional<runner::TelemetryWriter> telemetry;
    if (!opt.telemetryOut.empty()) {
        telemetry.emplace(opt.telemetryOut);
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
        const std::vector<runner::JobSpec> specs =
            runner::expandGrid(opt.grid);
        // A bad point (an L2 size with a non-power-of-two set count, a
        // sample plan whose intervals overlap) is one error here, not a
        // column of Failed jobs after the run.
        for (const runner::JobSpec &spec : specs) {
            spec.validate();
            runner::machineConfigFor(spec);
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

    if (!opt.noTable) {
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

} // namespace

int
main(int argc, char **argv)
{
    try {
        return run(argc, argv);
    } catch (const std::exception &e) {
        die(e.what());
    }
}
