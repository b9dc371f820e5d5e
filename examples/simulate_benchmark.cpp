/**
 * @file
 * Example: compile one benchmark and simulate it on a chosen machine,
 * dumping the full statistics registry.
 *
 * Usage: simulate_benchmark [benchmark] [machine] [scheduler] [scale]
 *   benchmark: compress | doduc | gcc1 | ora | su2cor | tomcatv
 *   machine:   single8 | dual8 | single4 | dual4
 *   scheduler: native | local | roundrobin
 *
 * Demonstrates the full public API surface: workload generation, the
 * compilation pipeline, machine configuration, and a detailed run
 * through runner::simulate that records into a caller-owned
 * statistics registry.
 */

#include <iostream>
#include <string>

#include "compiler/pipeline.hh"
#include "runner/jobspec.hh"
#include "support/flags.hh"
#include "support/stats.hh"
#include "workloads/workloads.hh"

int
main(int argc, char **argv)
{
    using namespace mca;

    const std::string bench_name = argc > 1 ? argv[1] : "compress";
    const std::string machine = argc > 2 ? argv[2] : "dual8";
    const std::string sched = argc > 3 ? argv[3] : "local";
    const double scale = positionalDouble(argc, argv, 4, "scale", 0.2);

    // 1. Generate the workload program.
    workloads::WorkloadParams wp;
    wp.scale = scale;
    const prog::Program program =
        workloads::benchmarkByName(bench_name).make(wp);
    std::cout << "program '" << program.name << "': "
              << program.staticInstCount() << " static instructions, "
              << program.values.size() << " live ranges\n";

    // 2. Compile it for the target machine.
    compiler::CompileOptions copt;
    if (sched == "native") {
        copt.scheduler = compiler::SchedulerKind::Native;
        copt.numClusters = 1;
    } else if (sched == "roundrobin") {
        copt.scheduler = compiler::SchedulerKind::RoundRobin;
        copt.numClusters = 2;
    } else {
        copt.scheduler = compiler::SchedulerKind::Local;
        copt.numClusters = 2;
    }
    const auto out = compiler::compile(program, copt);
    std::cout << "compiled: " << out.binary.staticInstCount()
              << " machine instructions, "
              << out.alloc.memorySpills << " ranges spilled to memory, "
              << out.alloc.otherClusterSpills
              << " recolored across clusters\n";

    // 3. Configure the machine and run.
    core::ProcessorConfig cfg;
    unsigned clusters = 2;
    if (machine == "single8") {
        cfg = core::ProcessorConfig::singleCluster8();
        clusters = 1;
    } else if (machine == "single4") {
        cfg = core::ProcessorConfig::singleCluster4();
        clusters = 1;
    } else if (machine == "dual4") {
        cfg = core::ProcessorConfig::dualCluster4();
    } else {
        cfg = core::ProcessorConfig::dualCluster8();
    }
    const std::string label = bench_name + "@" + machine;
    StatGroup stats(label);
    const auto result = runner::requireOk(
        runner::simulate(out.binary, out.hardwareMap(clusters), cfg, 42,
                         400'000, 100'000'000, &stats),
        label);

    std::cout << "simulated " << result.retired << " instructions in "
              << result.cycles << " cycles (ipc "
              << (result.cycles
                      ? static_cast<double>(result.retired) /
                            static_cast<double>(result.cycles)
                      : 0.0)
              << ")\n\n";
    stats.dump(std::cout);
    return 0;
}
