/**
 * @file
 * Ablation: the local scheduler's imbalance threshold (§3.5 calls it a
 * compile-time constant). Sweeps the threshold and reports the
 * dual-cluster/local percentage and the dual-distribution fraction per
 * benchmark.
 *
 * Runs through the campaign runner (src/runner): one single-cluster
 * baseline job per benchmark plus one dual/local job per (benchmark,
 * threshold) point — the baseline is simulated once per benchmark
 * instead of once per cell, and the independent points shard across
 * worker threads.
 *
 * Usage: ablation_threshold [scale] [max_insts] [jobs]
 */

#include <iostream>
#include <limits>
#include <thread>

#include "runner/campaign.hh"
#include "support/flags.hh"
#include "support/table.hh"

int
main(int argc, char **argv)
{
    using namespace mca;

    const double scale = positionalDouble(argc, argv, 1, "scale", 0.2);
    const std::uint64_t maxInsts =
        positionalUnsigned(argc, argv, 2, "max_insts", 100'000);

    runner::CampaignOptions campaign;
    campaign.jobs = static_cast<unsigned>(positionalUnsigned(
        argc, argv, 3, "jobs",
        std::max(1u, std::thread::hardware_concurrency()),
        std::numeric_limits<unsigned>::max()));

    const unsigned thresholds[] = {1, 2, 4, 8, 16, 32};

    // Job list per benchmark: [single-cluster baseline, dual/local @ T...].
    std::vector<runner::JobSpec> specs;
    const auto &benchmarks = runner::validBenchmarks();
    for (const auto &name : benchmarks) {
        runner::JobSpec base;
        base.benchmark = name;
        base.scale = scale;
        base.maxInsts = maxInsts;
        base.traceSeed = 42;
        base.profileSeed = 42;

        runner::JobSpec single = base;
        single.machine = "single8";
        single.scheduler = "native";
        specs.push_back(single);

        for (unsigned t : thresholds) {
            runner::JobSpec dual = base;
            dual.machine = "dual8";
            dual.scheduler = "local";
            dual.threshold = t;
            specs.push_back(dual);
        }
    }

    const auto results = runner::runCampaign(specs, campaign);

    std::cout << "Ablation: local-scheduler imbalance threshold\n"
              << "  cell = local speedup% (dual-dist%)\n\n";

    TextTable table;
    std::vector<std::string> hdr = {"benchmark"};
    for (unsigned t : thresholds)
        hdr.push_back("T=" + std::to_string(t));
    table.header(hdr);

    const std::size_t stride = 1 + std::size(thresholds);
    for (std::size_t b = 0; b < benchmarks.size(); ++b) {
        const auto &single = results[b * stride];
        std::vector<std::string> cells = {benchmarks[b]};
        for (std::size_t ti = 0; ti < std::size(thresholds); ++ti) {
            const auto &dual = results[b * stride + 1 + ti];
            const double pct =
                single.cycles == 0
                    ? 0.0
                    : 100.0 - 100.0 * (static_cast<double>(dual.cycles) /
                                       static_cast<double>(single.cycles));
            const double total =
                static_cast<double>(dual.distSingle + dual.distDual);
            const double dual_pct =
                total == 0 ? 0 : 100.0 * dual.distDual / total;
            cells.push_back(TextTable::signedPercent(pct) + " (" +
                            TextTable::num(dual_pct, 0) + ")");
        }
        table.row(cells);
    }
    table.print(std::cout);
    return 0;
}
