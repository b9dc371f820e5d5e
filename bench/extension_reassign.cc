/**
 * @file
 * Extension bench (paper §2.1 + §6): dynamic reassignment of the
 * architectural registers.
 *
 * The paper's machine assumes a static register-to-cluster map but
 * notes that "a simple hardware mechanism exists to support the dynamic
 * reassignment of the architectural registers", and §6 proposes letting
 * the compiler "directly specify the architectural-register-to-cluster
 * assignment" per program phase. This bench demonstrates the mechanism
 * on a two-phase workload whose phases have opposite register
 * affinities: a static map must dual-distribute one phase; a remap
 * point between the phases (drain + architectural-state transfer)
 * removes the transfers at a one-time cost.
 *
 * Usage: extension_reassign [iters-per-phase]
 */

#include <iostream>
#include <limits>
#include <vector>

#include "core/processor.hh"
#include "exec/trace.hh"
#include "support/flags.hh"
#include "support/stats.hh"
#include "support/table.hh"

namespace
{

using namespace mca;
using isa::intReg;
using isa::Op;

/**
 * Two phases of register-blocked integer work:
 *  - phase A uses pairs (r2,r4 -> r6): even registers, cluster 0;
 *  - phase B uses pairs (r3,r5 -> r7): odd registers — cluster 1 under
 *    the default map, but phase B's *consumers* live on r2/r6, so
 *    every other op crosses clusters unless r3/r5 are re-homed.
 */
std::vector<exec::DynInst>
makePhases(unsigned iters, bool with_remap)
{
    std::vector<exec::DynInst> v;
    auto add = [&](unsigned d, unsigned a, unsigned b) {
        exec::DynInst di;
        di.mi = isa::makeRRR(Op::Add, intReg(d), intReg(a), intReg(b));
        v.push_back(di);
    };
    // Phase A: pure cluster-0 work.
    for (unsigned i = 0; i < iters; ++i) {
        add(6, 2, 4);
        add(8, 6, 2);
        add(10, 8, 4);
    }
    // Phase B: a loop-carried chain ping-ponging between r3/r5 (odd)
    // and r6 (even). Under the static map every link hops clusters and
    // the forwarding serialization lands on the critical path; with
    // r3/r5 re-homed the chain stays inside cluster 0.
    const std::size_t phase_b_start = v.size();
    for (unsigned i = 0; i < iters; ++i) {
        add(3, 3, 6);
        add(6, 6, 3);
        add(5, 5, 6);
    }
    if (with_remap)
        v[phase_b_start].remapIndex = 0;
    // Each phase is a loop over a small code footprint, so fetch is
    // icache-resident (otherwise cold fills dominate everything).
    for (std::size_t i = 0; i < v.size(); ++i) {
        const bool in_b = i >= phase_b_start;
        const Addr base = in_b ? 0x2000 : 0x1000;
        const std::size_t off = in_b ? i - phase_b_start : i;
        v[i].pc = base + 4 * static_cast<Addr>(off % 96);
    }
    return v;
}

struct Run
{
    Cycle cycles;
    std::uint64_t duals;
    std::uint64_t forwards;
    std::uint64_t remaps;
    std::uint64_t moved;
};

Run
simulate(unsigned iters, bool with_remap)
{
    core::ProcessorConfig cfg = core::ProcessorConfig::dualCluster8();
    isa::RegisterMap phase_b_map(2);
    phase_b_map.setHome(intReg(3), 0);
    phase_b_map.setHome(intReg(5), 0);
    cfg.mapSchedule = {phase_b_map};

    exec::VectorTrace trace(
        exec::VectorTrace::normalize(makePhases(iters, with_remap)));
    StatGroup stats("reassign");
    core::Processor cpu(cfg, trace, stats);
    const auto result = cpu.run();
    return Run{result.cycles,
               stats.counterAt("dist.dual").value(),
               stats.counterAt("dist.operand_forwards").value() +
                   stats.counterAt("dist.result_forwards").value(),
               stats.counterAt("remap.events").value(),
               stats.counterAt("remap.regs_moved").value()};
}

} // namespace

int
main(int argc, char **argv)
{
    const auto iters = static_cast<unsigned>(
        positionalUnsigned(argc, argv, 1, "iters", 2000,
                           std::numeric_limits<unsigned>::max()));

    std::cout << "Extension: dynamic register reassignment (paper §6)\n"
              << "  two-phase workload, " << iters
              << " iterations per phase\n\n";

    const Run fixed = simulate(iters, false);
    const Run remap = simulate(iters, true);

    TextTable table;
    table.header({"configuration", "cycles", "dual-dist", "transfers",
                  "remaps", "regs moved"});
    table.row({"static even/odd map", std::to_string(fixed.cycles),
               std::to_string(fixed.duals),
               std::to_string(fixed.forwards), "0", "0"});
    table.row({"remap before phase B", std::to_string(remap.cycles),
               std::to_string(remap.duals),
               std::to_string(remap.forwards),
               std::to_string(remap.remaps),
               std::to_string(remap.moved)});
    table.print(std::cout);

    const double pct = 100.0 - 100.0 * static_cast<double>(remap.cycles) /
                                   static_cast<double>(fixed.cycles);
    std::cout << "\nremapping "
              << (pct >= 0 ? "saves " : "costs ")
              << TextTable::num(pct >= 0 ? pct : -pct, 1)
              << "% of cycles on this workload (one drain + "
              << remap.moved << " register transfers buys zero "
              << "cross-cluster traffic in phase B)\n";
    return 0;
}
