/**
 * @file
 * Extension bench (paper §6): superblock formation ahead of the local
 * scheduler. Tail duplication plus straightening enlarges the hot
 * blocks, giving the §3.5 imbalance estimate more instructions to
 * reason about jointly — the paper's stated motivation.
 *
 * For each benchmark the Table-2 "local" percentage is recomputed with
 * the transformed program feeding both machines (the single-cluster
 * baseline also runs the transformed binary, isolating the clustering
 * effect).
 *
 * Usage: extension_superblock [scale] [max_insts]
 */

#include <iostream>

#include "compiler/pipeline.hh"
#include "runner/jobspec.hh"
#include "support/flags.hh"
#include "support/table.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;

struct Cell
{
    double pct;
    double dualPct;
};

Cell
localPct(const prog::Program &program, bool superblocks,
         std::uint64_t max_insts)
{
    compiler::CompileOptions nopt;
    nopt.scheduler = compiler::SchedulerKind::Native;
    nopt.numClusters = 1;
    nopt.superblocks = superblocks;
    const auto native = compiler::compile(program, nopt);

    compiler::CompileOptions lopt;
    lopt.scheduler = compiler::SchedulerKind::Local;
    lopt.numClusters = 2;
    lopt.superblocks = superblocks;
    const auto local = compiler::compile(program, lopt);

    const auto single = runner::requireOk(
        runner::simulate(native.binary, native.hardwareMap(1),
                         core::ProcessorConfig::singleCluster8(), 42,
                         max_insts),
        program.name);
    const auto dual = runner::requireOk(
        runner::simulate(local.binary, local.hardwareMap(2),
                         core::ProcessorConfig::dualCluster8(), 42,
                         max_insts),
        program.name);
    const double total =
        static_cast<double>(dual.distSingle + dual.distDual);
    return Cell{100.0 - 100.0 * static_cast<double>(dual.cycles) /
                            static_cast<double>(single.cycles),
                total ? 100.0 * dual.distDual / total : 0.0};
}

} // namespace

int
main(int argc, char **argv)
{
    workloads::WorkloadParams wp;
    wp.scale = positionalDouble(argc, argv, 1, "scale", 0.2);
    const std::uint64_t max_insts =
        positionalUnsigned(argc, argv, 2, "max_insts", 100'000);

    std::cout << "Extension: superblock formation (paper §6)\n"
              << "  cell = local speedup% (dual-dist%)\n\n";

    TextTable table;
    table.header({"benchmark", "basic blocks (Table 2)", "superblocks"});
    for (const auto &bench : workloads::allBenchmarks()) {
        const auto program = bench.make(wp);
        const auto base = localPct(program, false, max_insts);
        const auto super = localPct(program, true, max_insts);
        table.row({bench.name,
                   TextTable::signedPercent(base.pct) + " (" +
                       TextTable::num(base.dualPct, 0) + ")",
                   TextTable::signedPercent(super.pct) + " (" +
                       TextTable::num(super.dualPct, 0) + ")"});
    }
    table.print(std::cout);
    return 0;
}
