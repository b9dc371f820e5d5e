/**
 * @file
 * Example: explore the static scheduling design space on one benchmark.
 *
 * Compares the three partitioners (native/cluster-unaware, round-robin,
 * and the paper's local scheduler) across imbalance thresholds, and
 * reports cycles, dual-distribution rate, transfer traffic, and spill
 * cost — the trade-off space of §3. Each variant is a JobSpec, so the
 * six run as one spec list through runner::runCampaign.
 *
 * Usage: scheduler_explorer [benchmark] [scale]
 */

#include <iostream>
#include <string>
#include <vector>

#include "runner/campaign.hh"
#include "support/flags.hh"
#include "support/table.hh"

int
main(int argc, char **argv)
{
    using namespace mca;

    const std::string bench_name = argc > 1 ? argv[1] : "compress";

    // Every variant is one JobSpec on the dual-cluster 8-way machine.
    runner::JobSpec base;
    base.benchmark = bench_name;
    base.scale = positionalDouble(argc, argv, 2, "scale", 0.2);
    base.machine = "dual8";
    base.profileSeed = 1; // the CompileOptions default
    base.maxInsts = 300'000;
    std::vector<std::string> names = {"native (cluster-unaware)",
                                      "round-robin"};
    std::vector<runner::JobSpec> specs = {base, base};
    specs[0].scheduler = "native";
    specs[1].scheduler = "roundrobin";
    for (unsigned t : {1u, 2u, 4u, 8u}) {
        names.push_back("local, threshold " + std::to_string(t));
        specs.push_back(base);
        specs.back().threshold = t;
    }
    const auto results = runner::runCampaign(specs, {});

    std::cout << "Scheduler exploration on '" << bench_name
              << "' (dual-cluster 8-way machine)\n\n";
    TextTable table;
    table.header({"scheduler", "cycles", "ipc", "dual%", "op-fwd",
                  "res-fwd", "spill ld/st", "replays"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const auto s = runner::requireOk(results[i], names[i]);
        const double total =
            static_cast<double>(s.distSingle + s.distDual);
        table.row({names[i], std::to_string(s.cycles),
                   TextTable::num(s.ipc, 2),
                   TextTable::num(total ? 100.0 * s.distDual / total : 0,
                                  1),
                   std::to_string(s.operandForwards),
                   std::to_string(s.resultForwards),
                   std::to_string(s.spillLoads) + "/" +
                       std::to_string(s.spillStores),
                   std::to_string(s.replays)});
    }
    table.print(std::cout);
    std::cout << "\n(The native binary is measured on the dual-cluster "
                 "machine — the paper's\n\"none\" baseline. Lower "
                 "dual%% usually means fewer transfers but possibly\n"
                 "worse balance; the local scheduler trades between "
                 "them.)\n";
    return 0;
}
