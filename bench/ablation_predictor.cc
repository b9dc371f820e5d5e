/**
 * @file
 * Ablation: branch-predictor organization. The paper uses McFarling's
 * combining predictor; this sweep shows what the choice buys per
 * benchmark against its components (bimodal, gshare) and static
 * prediction, on the single-cluster machine.
 *
 * Usage: ablation_predictor [scale] [max_insts]
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
using Kind = core::ProcessorConfig::PredictorKind;

runner::JobResult
run(const prog::MachProgram &binary, const isa::RegisterMap &map,
    Kind kind, std::uint64_t max_insts, bool spec_history)
{
    auto cfg = core::ProcessorConfig::singleCluster8();
    cfg.predictor = kind;
    cfg.speculativeHistory = spec_history;
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

    std::cout << "Ablation: branch predictor organization "
                 "(single-cluster 8-way)\n  cell = cycles / accuracy\n\n";

    struct Variant
    {
        const char *name;
        Kind kind;
        bool specHistory;
    };
    const Variant kinds[] = {
        {"mcfarling (paper)", Kind::McFarling, false},
        {"mcf + spec.hist", Kind::McFarling, true},
        {"gshare", Kind::Gshare, false},
        {"gshare + spec.hist", Kind::Gshare, true},
        {"bimodal", Kind::Bimodal, false},
        {"static taken", Kind::StaticTaken, false},
    };

    TextTable table;
    std::vector<std::string> hdr = {"benchmark"};
    for (const auto &v : kinds)
        hdr.push_back(v.name);
    table.header(hdr);

    for (const auto &bench : workloads::allBenchmarks()) {
        const auto program = bench.make(wp);
        compiler::CompileOptions copt;
        copt.scheduler = compiler::SchedulerKind::Native;
        copt.numClusters = 1;
        const auto out = compiler::compile(program, copt);
        std::vector<std::string> cells = {bench.name};
        for (const auto &v : kinds) {
            const auto c = run(out.binary, out.hardwareMap(1), v.kind,
                               max_insts, v.specHistory);
            cells.push_back(std::to_string(c.cycles) + " / " +
                            TextTable::num(c.bpredAccuracy, 3));
        }
        table.row(cells);
    }
    table.print(std::cout);
    std::cout << "\n(Note: accuracy is the machine-measured prediction "
                 "rate; the paper's\nfootnote-2 update-at-execute "
                 "history is the default, and the speculative\n"
                 "history column shows what the stale history costs.)\n";
    return 0;
}
