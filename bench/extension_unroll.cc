/**
 * @file
 * Extension bench (paper §6 future work): loop unrolling as a lever
 * for the multicluster architecture. Unrolling replicates loop bodies
 * with fresh live ranges per iteration instance, letting the local
 * scheduler interleave iterations across clusters instead of splitting
 * a serial chain.
 *
 * For each benchmark and unroll factor: the unrolled program is
 * compiled both ways and the Table-2 ratio recomputed (single-cluster
 * baseline also runs the unrolled binary, so the comparison isolates
 * the clustering effect). Every point is a JobSpec, so the sweep runs
 * as one spec list through runner::runCampaign.
 *
 * Usage: extension_unroll [scale] [max_insts]
 */

#include <iostream>
#include <iterator>
#include <string>
#include <vector>

#include "runner/campaign.hh"
#include "support/flags.hh"
#include "support/table.hh"

int
main(int argc, char **argv)
{
    using namespace mca;

    const double scale = positionalDouble(argc, argv, 1, "scale", 0.2);
    const std::uint64_t max_insts =
        positionalUnsigned(argc, argv, 2, "max_insts", 100'000);
    const unsigned factors[] = {1, 2, 4};

    // Per benchmark and unroll factor: native/single8, then local/dual8.
    std::vector<runner::JobSpec> specs;
    for (const auto &name : runner::validBenchmarks())
        for (unsigned factor : factors)
            for (const std::string scheduler : {"native", "local"}) {
                runner::JobSpec spec;
                spec.benchmark = name;
                spec.scale = scale;
                spec.machine = scheduler == "native" ? "single8" : "dual8";
                spec.scheduler = scheduler;
                spec.unroll = factor;
                spec.profileSeed = 1; // the CompileOptions default
                spec.maxInsts = max_insts;
                specs.push_back(spec);
            }
    const auto results = runner::runCampaign(specs, {});
    for (const auto &r : results)
        runner::requireOk(r, r.spec.benchmark);

    std::cout << "Extension: loop unrolling (paper §6)\n"
              << "  cell = local-scheduler speedup% vs the single "
                 "cluster running the\n  same unrolled binary\n\n";

    TextTable table;
    table.header({"benchmark", "U=1 (Table 2)", "U=2", "U=4"});
    for (std::size_t i = 0; i < results.size();) {
        std::vector<std::string> cells = {results[i].spec.benchmark};
        for (std::size_t k = 0; k < std::size(factors); ++k, i += 2)
            cells.push_back(TextTable::signedPercent(
                100.0 - 100.0 * static_cast<double>(results[i + 1].cycles) /
                            static_cast<double>(results[i].cycles)));
        table.row(cells);
    }
    table.print(std::cout);
    std::cout << "\n(Only counted self-loops unroll; benchmarks whose "
                 "hot loops span\nmultiple blocks are unaffected.)\n";
    return 0;
}
