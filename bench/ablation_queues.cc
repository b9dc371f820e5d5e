/**
 * @file
 * Ablation: dispatch-queue sizing. The paper attributes compress's
 * dual-cluster speedup to the *disadvantages* of the single-cluster
 * machine's larger queue (stale branch-predictor state and issue
 * disorder that degrades the data cache). This sweep runs the
 * single-cluster machine with varying queue sizes to expose that
 * effect directly.
 *
 * Usage: ablation_queues [scale] [max_insts]
 */

#include <iostream>

#include "compiler/pipeline.hh"
#include "runner/jobspec.hh"
#include "support/flags.hh"
#include "support/table.hh"
#include "workloads/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace mca;

    workloads::WorkloadParams wp;
    wp.scale = positionalDouble(argc, argv, 1, "scale", 0.2);
    const std::uint64_t max_insts =
        positionalUnsigned(argc, argv, 2, "max_insts", 100'000);

    std::cout << "Ablation: single-cluster dispatch-queue size\n"
              << "  cell = cycles / bpred accuracy / dcache miss% / "
                 "issue disorder(k)\n\n";

    const unsigned sizes[] = {16, 32, 64, 128, 256};

    TextTable table;
    std::vector<std::string> hdr = {"benchmark"};
    for (unsigned s : sizes)
        hdr.push_back("Q=" + std::to_string(s));
    table.header(hdr);

    for (const auto &bench : workloads::allBenchmarks()) {
        const auto program = bench.make(wp);
        compiler::CompileOptions copt;
        copt.scheduler = compiler::SchedulerKind::Native;
        copt.numClusters = 1;
        const auto out = compiler::compile(program, copt);

        std::vector<std::string> cells = {bench.name};
        for (unsigned s : sizes) {
            auto cfg = core::ProcessorConfig::singleCluster8();
            cfg.dispatchQueueEntries = s;
            const auto r = runner::requireOk(
                runner::simulate(out.binary, out.hardwareMap(1), cfg, 42,
                                 max_insts, 50'000'000),
                bench.name);
            cells.push_back(std::to_string(r.cycles) + " / " +
                            TextTable::num(r.bpredAccuracy, 3) + " / " +
                            TextTable::num(100.0 * r.dcacheMissRate, 1) +
                            " / " +
                            std::to_string(r.issueDisorder / 1000));
        }
        table.row(cells);
    }
    table.print(std::cout);
    return 0;
}
