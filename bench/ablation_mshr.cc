/**
 * @file
 * Ablation: miss-handling organization. The paper assumes an inverted
 * MSHR so the data cache "imposes no restriction on the number of
 * in-flight cache misses" — a design choice from the authors' own
 * ISCA'94 complexity/performance study. This sweep replaces it with an
 * explicit MSHR file of N entries and shows how the memory-level
 * parallelism the vector codes depend on collapses as N shrinks.
 *
 * Usage: ablation_mshr [scale] [max_insts]
 */

#include <iostream>

#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "support/flags.hh"
#include "support/stats.hh"
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

    std::cout << "Ablation: data-cache miss handling (single-cluster "
                 "8-way machine)\n  cell = cycles (MSHR reject polls)\n\n";

    const unsigned entries[] = {1, 2, 4, 8, 16};

    TextTable table;
    std::vector<std::string> hdr = {"benchmark", "inverted (paper)"};
    for (unsigned e : entries)
        hdr.push_back("N=" + std::to_string(e));
    table.header(hdr);

    for (const auto &bench : workloads::allBenchmarks()) {
        const auto program = bench.make(wp);
        compiler::CompileOptions copt;
        copt.scheduler = compiler::SchedulerKind::Native;
        copt.numClusters = 1;
        const auto out = compiler::compile(program, copt);

        auto run = [&](unsigned mshr) {
            auto cfg = core::ProcessorConfig::singleCluster8();
            cfg.memory.dcache.mshrEntries = mshr;
            cfg.regMap = out.hardwareMap(1);
            StatGroup stats(bench.name);
            exec::ProgramTrace trace(out.binary, 42, max_insts);
            core::Processor cpu(cfg, trace, stats);
            const auto r = cpu.run(50'000'000);
            return std::to_string(r.cycles) + " (" +
                   std::to_string(
                       stats.counterAt("dcache.mshr_reject_polls")
                           .value()) +
                   ")";
        };

        std::vector<std::string> cells = {bench.name, run(0)};
        for (unsigned e : entries)
            cells.push_back(run(e));
        table.row(cells);
    }
    table.print(std::cout);
    return 0;
}
