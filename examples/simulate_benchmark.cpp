/**
 * @file
 * Example: compile one benchmark and simulate it on a chosen machine,
 * dumping the full statistics registry.
 *
 * Usage: simulate_benchmark [benchmark] [machine] [scheduler] [scale]
 *   benchmark: compress | doduc | gcc1 | ora | su2cor | tomcatv
 *   machine:   single8 | dual8 | single4 | dual4 | quad8 | octa8
 *   scheduler: native | local | roundrobin | multilevel
 * An unknown name prints one `fatal:` line and exits 1.
 *
 * Demonstrates the full public API surface: a runner::JobSpec naming
 * the point, workload generation, the compilation pipeline, the
 * machine configuration, and a detailed run through runner::simulate
 * that records into a caller-owned statistics registry.
 */

#include <exception>
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

    // 1. Name the point: the same spec a campaign job would run, so an
    //    unknown name is an error rather than some other machine.
    runner::JobSpec spec;
    spec.benchmark = argc > 1 ? argv[1] : "compress";
    spec.machine = argc > 2 ? argv[2] : "dual8";
    spec.scheduler = argc > 3 ? argv[3] : "local";
    spec.scale = positionalDouble(argc, argv, 4, "scale", 0.2);
    spec.maxInsts = 400'000;
    core::ProcessorConfig cfg;
    try {
        spec.validate();
        cfg = runner::machineConfigFor(spec);
    } catch (const std::exception &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 1;
    }

    // 2. Generate the workload program.
    workloads::WorkloadParams wp;
    wp.scale = spec.scale;
    const prog::Program program =
        workloads::benchmarkByName(spec.benchmark).make(wp);
    std::cout << "program '" << program.name << "': "
              << program.staticInstCount() << " static instructions, "
              << program.values.size() << " live ranges\n";

    // 3. Compile it for the machine's cluster count.
    const auto out = compiler::compile(
        program, runner::jobCompileOptions(spec, cfg.numClusters));
    std::cout << "compiled: " << out.binary.staticInstCount()
              << " machine instructions, "
              << out.alloc.memorySpills << " ranges spilled to memory, "
              << out.alloc.otherClusterSpills
              << " recolored across clusters\n";

    // 4. Run it, recording into a registry this program owns.
    const std::string label = spec.benchmark + "@" + spec.machine;
    StatGroup stats(label);
    const auto result = runner::requireOk(
        runner::simulate(out.binary, out.hardwareMap(cfg.numClusters), cfg,
                         spec.traceSeed, spec.maxInsts, spec.maxCycles,
                         &stats),
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
