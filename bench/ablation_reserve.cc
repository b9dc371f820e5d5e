/**
 * @file
 * Ablation: deadlock handling policy. The paper's machine resolves
 * transfer-buffer deadlocks with instruction-replay exceptions (squash
 * and refetch). An alternative the paper does not adopt is to *prevent*
 * the deadlock: reserve the last entry of each transfer buffer for the
 * globally oldest instruction, which removes the §2.1 deadlock class
 * on two-cluster machines.
 *
 * This bench compares both policies on the most replay-prone
 * configuration we have: the six benchmarks compiled with the §6
 * superblock pass (which splits serial chains across clusters and
 * provokes ora's replay pathology).
 *
 * Usage: ablation_reserve [scale] [max_insts]
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

runner::JobResult
run(const prog::MachProgram &binary, const isa::RegisterMap &map,
    bool reserve, std::uint64_t max_insts)
{
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.reserveOldestEntry = reserve;
    return runner::requireOk(
        runner::simulate(binary, map, cfg, 42, max_insts), binary.name);
}

} // namespace

int
main(int argc, char **argv)
{
    workloads::WorkloadParams wp;
    wp.scale = positionalDouble(argc, argv, 1, "scale", 0.2);
    const std::uint64_t max_insts =
        positionalUnsigned(argc, argv, 2, "max_insts", 100'000);

    std::cout << "Ablation: deadlock policy — replay exceptions (paper) "
                 "vs an\noldest-reserved transfer-buffer entry "
                 "(prevention)\n  dual-cluster machine, local scheduler "
                 "+ superblocks; cell = cycles (replays)\n\n";

    TextTable table;
    table.header({"benchmark", "replay on deadlock (paper)",
                  "reserved entry (prevention)"});
    for (const auto &bench : workloads::allBenchmarks()) {
        const auto program = bench.make(wp);
        compiler::CompileOptions copt;
        copt.scheduler = compiler::SchedulerKind::Local;
        copt.numClusters = 2;
        copt.superblocks = true;
        const auto out = compiler::compile(program, copt);
        const auto paper =
            run(out.binary, out.hardwareMap(2), false, max_insts);
        const auto reserved =
            run(out.binary, out.hardwareMap(2), true, max_insts);
        table.row({bench.name,
                   std::to_string(paper.cycles) + " (" +
                       std::to_string(paper.replays) + ")",
                   std::to_string(reserved.cycles) + " (" +
                       std::to_string(reserved.replays) + ")"});
    }
    table.print(std::cout);
    std::cout << "\n(Reservation removes the deadlocks outright; the "
                 "paper's replay policy\npays squash-and-refetch each "
                 "time — the cost ora's rescheduled binary\nexposes.)\n";
    return 0;
}
