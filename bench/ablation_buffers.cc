/**
 * @file
 * Ablation: transfer-buffer sizing. The paper fixes 8 operand and 8
 * result entries per cluster; this sweep shows the cost of smaller
 * buffers (stalled slaves/masters, replay exceptions) and the
 * diminishing returns of larger ones.
 *
 * Usage: ablation_buffers [scale] [max_insts]
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

    std::cout << "Ablation: operand/result transfer-buffer entries per "
                 "cluster\n  cell = dual-cluster cycles with the native "
                 "binary (replays)\n\n";

    const unsigned sizes[] = {1, 2, 4, 8, 16, 32};

    TextTable table;
    std::vector<std::string> hdr = {"benchmark"};
    for (unsigned s : sizes)
        hdr.push_back("B=" + std::to_string(s));
    table.header(hdr);

    for (const auto &bench : workloads::allBenchmarks()) {
        const auto program = bench.make(wp);
        compiler::CompileOptions copt;
        copt.scheduler = compiler::SchedulerKind::Native;
        copt.numClusters = 1;
        const auto out = compiler::compile(program, copt);

        std::vector<std::string> cells = {bench.name};
        for (unsigned s : sizes) {
            auto cfg = core::ProcessorConfig::dualCluster8();
            cfg.operandBufferEntries = s;
            cfg.resultBufferEntries = s;
            const auto r = runner::requireOk(
                runner::simulate(out.binary, out.hardwareMap(2), cfg, 42,
                                 max_insts, 50'000'000),
                bench.name);
            cells.push_back(std::to_string(r.cycles) + " (" +
                            std::to_string(r.replays) + ")");
        }
        table.row(cells);
    }
    table.print(std::cout);
    return 0;
}
