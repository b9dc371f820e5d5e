/**
 * @file
 * Ablation: global-register designation. Step 3 of the paper's
 * methodology designates the stack- and global-pointer live ranges as
 * global-register candidates (replicated in every cluster). This
 * ablation compares that policy against making them ordinary local
 * candidates, and against promoting additional hot loop-carried values
 * to global registers (the paper's §6 future-work suggestion).
 *
 * Usage: ablation_globalregs [scale] [max_insts]
 */

#include <algorithm>
#include <iostream>

#include "compiler/pipeline.hh"
#include "runner/jobspec.hh"
#include "support/flags.hh"
#include "support/table.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;

/** Compile with a tweak applied to the IL, then run dual/local. */
runner::JobResult
runVariant(prog::Program program, std::uint64_t max_insts)
{
    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Local;
    copt.numClusters = 2;
    const auto out = compiler::compile(program, copt);
    return runner::requireOk(
        runner::simulate(out.binary, out.hardwareMap(2),
                         core::ProcessorConfig::dualCluster8(), 42,
                         max_insts),
        program.name);
}

/** Demote every global candidate to a local candidate. */
prog::Program
demoteGlobals(prog::Program p)
{
    for (auto &v : p.values)
        v.globalCandidate = false;
    return p;
}

/**
 * Promote the hottest written live ranges (by weighted reference count)
 * to global candidates, on top of SP/GP.
 */
prog::Program
promoteHotValues(prog::Program p, unsigned extra)
{
    std::vector<std::pair<double, prog::ValueId>> heat;
    std::vector<double> score(p.values.size(), 0.0);
    for (const auto &fn : p.functions)
        for (const auto &blk : fn.blocks)
            for (const auto &in : blk.instrs) {
                if (in.dest != prog::kNoValue)
                    score[in.dest] += blk.weight;
                for (auto s : in.srcs)
                    if (s != prog::kNoValue)
                        score[s] += blk.weight;
            }
    for (prog::ValueId v = 0; v < p.values.size(); ++v)
        if (!p.values[v].globalCandidate && score[v] > 0)
            heat.push_back({score[v], v});
    std::sort(heat.rbegin(), heat.rend());
    for (unsigned i = 0; i < extra && i < heat.size(); ++i)
        p.values[heat[i].second].globalCandidate = true;
    return p;
}

} // namespace

int
main(int argc, char **argv)
{
    workloads::WorkloadParams wp;
    wp.scale = positionalDouble(argc, argv, 1, "scale", 0.2);
    const std::uint64_t max_insts =
        positionalUnsigned(argc, argv, 2, "max_insts", 100'000);

    std::cout << "Ablation: global-register designation (dual-cluster, "
                 "local scheduler)\n  cell = cycles (dual-distributed "
                 "instruction %)\n\n";

    TextTable table;
    table.header({"benchmark", "no globals", "SP/GP global (paper)",
                  "+2 hot values", "+4 hot values"});
    for (const auto &bench : workloads::allBenchmarks()) {
        const auto base = bench.make(wp);
        auto cell = [&](const runner::JobResult &s) {
            const double total =
                static_cast<double>(s.distSingle + s.distDual);
            return std::to_string(s.cycles) + " (" +
                   TextTable::num(
                       total ? 100.0 * s.distDual / total : 0.0, 0) +
                   ")";
        };
        table.row({bench.name,
                   cell(runVariant(demoteGlobals(base), max_insts)),
                   cell(runVariant(base, max_insts)),
                   cell(runVariant(promoteHotValues(base, 2), max_insts)),
                   cell(runVariant(promoteHotValues(base, 4),
                                   max_insts))});
    }
    table.print(std::cout);
    return 0;
}
