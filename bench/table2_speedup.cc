/**
 * @file
 * Reproduces the paper's Table 2: percentage speedup/slowdown of the
 * dual-cluster processor relative to the single-cluster processor, for
 * the native binary ("none") and the binary rescheduled with the local
 * scheduler ("local").
 *
 * A negative entry means the dual-cluster machine needs that many
 * percent more cycles (a slowdown); positive means fewer (a speedup).
 * Absolute values differ from the paper (synthetic workloads stand in
 * for SPEC92; see DESIGN.md), but the shape should match: a broad
 * slowdown band for unscheduled binaries, substantial recovery with the
 * local scheduler, compress crossing into speedup, and ora degrading
 * under rescheduling via replay exceptions.
 *
 * The experiment runs through the campaign runner (src/runner): the 18
 * compile-and-simulate jobs (6 benchmarks × {single/native, dual/native,
 * dual/local}) are independent and shard across worker threads. Results
 * are bit-identical at any job width (see docs/campaigns.md).
 *
 * Usage: table2_speedup [scale] [max_insts] [jobs]
 *   jobs defaults to the hardware thread count.
 */

#include <iostream>
#include <limits>
#include <thread>

#include "runner/table2.hh"
#include "support/flags.hh"
#include "support/table.hh"

int
main(int argc, char **argv)
{
    using namespace mca;

    harness::ExperimentOptions opt;
    opt.workload.scale = positionalDouble(argc, argv, 1, "scale", 1.0);
    opt.maxInsts = positionalUnsigned(argc, argv, 2, "max_insts", 400'000);

    runner::CampaignOptions campaign;
    campaign.jobs = static_cast<unsigned>(positionalUnsigned(
        argc, argv, 3, "jobs",
        std::max(1u, std::thread::hardware_concurrency()),
        std::numeric_limits<unsigned>::max()));

    std::cout << "Table 2: dual-cluster speedup ratios, 8-way machines\n"
              << "  100 - 100*(cycles_dual / cycles_single); "
              << "positive = speedup\n"
              << "  workload scale " << opt.workload.scale
              << ", trace cap " << opt.maxInsts << " instructions, "
              << campaign.jobs << " parallel jobs\n\n";

    const auto result = runner::runTable2Campaign(opt, campaign);

    TextTable table;
    table.header({"benchmark", "none (paper)", "none (ours)",
                  "local (paper)", "local (ours)", "single cycles",
                  "dual-none cycles", "dual-local cycles", "replays(l)"});

    const auto &paper = harness::paperTable2();
    for (std::size_t i = 0; i < result.rows.size(); ++i) {
        const auto &row = result.rows[i];
        table.row({row.benchmark,
                   TextTable::signedPercent(paper[i].pctNone),
                   TextTable::signedPercent(row.pctNone),
                   TextTable::signedPercent(paper[i].pctLocal),
                   TextTable::signedPercent(row.pctLocal),
                   std::to_string(row.single.cycles),
                   std::to_string(row.dualNone.cycles),
                   std::to_string(row.dualLocal.cycles),
                   std::to_string(row.dualLocal.replays)});
    }
    table.print(std::cout);

    std::cout << "\nDiagnostics:\n";
    TextTable diag;
    diag.header({"benchmark", "dual% n/l", "fwd op+res n", "fwd op+res l",
                 "spill ld/st", "bpred s/n/l", "dmiss% s/n/l",
                 "disorder s/l"});
    for (const auto &row : result.rows) {
        auto dualPct = [](const runner::JobResult &s) {
            const double total =
                static_cast<double>(s.distSingle + s.distDual);
            return total == 0 ? 0.0 : 100.0 * s.distDual / total;
        };
        diag.row({row.benchmark,
                  TextTable::num(dualPct(row.dualNone), 0) + "/" +
                      TextTable::num(dualPct(row.dualLocal), 0),
                  std::to_string(row.dualNone.operandForwards +
                                 row.dualNone.resultForwards),
                  std::to_string(row.dualLocal.operandForwards +
                                 row.dualLocal.resultForwards),
                  std::to_string(row.spillLoadsLocal) + "/" +
                      std::to_string(row.spillStoresLocal),
                  TextTable::num(row.single.bpredAccuracy, 3) + "/" +
                      TextTable::num(row.dualNone.bpredAccuracy, 3) +
                      "/" +
                      TextTable::num(row.dualLocal.bpredAccuracy, 3),
                  TextTable::num(100 * row.single.dcacheMissRate, 1) +
                      "/" +
                      TextTable::num(100 * row.dualNone.dcacheMissRate,
                                     1) +
                      "/" +
                      TextTable::num(100 * row.dualLocal.dcacheMissRate,
                                     1),
                  std::to_string(row.single.issueDisorder / 1000) +
                      "k/" +
                      std::to_string(row.dualLocal.issueDisorder /
                                     1000) +
                      "k"});
    }
    diag.print(std::cout);
    return 0;
}
