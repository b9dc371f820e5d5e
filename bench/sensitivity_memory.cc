/**
 * @file
 * Memory-hierarchy sensitivity campaign: how the dual-cluster speedup
 * story holds up when the paper's perfect 16-cycle backside is replaced
 * by a real hierarchy. Sweeps a shared-L2 size × memory-latency grid
 * over a memory-light and a memory-heavy Table-2 benchmark, checks
 * cycle-stack conservation on every job, re-runs the paper-mode corner
 * and asserts it is bit-identical (the refactor's equivalence claim,
 * end to end through the campaign runner), and reports how the stall
 * attribution shifts between the dcache_l2 and dcache_mem causes.
 * Each failed check prints FAIL and exits 1; ctest runs this binary as
 * the `sensitivity_memory` case.
 *
 * Usage: sensitivity_memory [--scale S] [--max-insts N] [--jobs N]
 */

#include <cstdint>
#include <iostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/cycle_stack.hh"
#include "runner/campaign.hh"
#include "support/flags.hh"
#include "support/table.hh"

namespace
{

using namespace mca;

bool
conserved(const runner::JobResult &r)
{
    std::uint64_t total = 0;
    for (const auto v : r.stackSlotCycles)
        total += v;
    return total == static_cast<std::uint64_t>(r.stackSlots) * r.cycles;
}

std::uint64_t
stackCause(const runner::JobResult &r, obs::StallCause cause)
{
    return r.stackSlotCycles[static_cast<std::size_t>(cause)];
}

} // namespace

int
main(int argc, char **argv)
{
    double scale = 0.1;
    std::uint64_t max_insts = 60'000;
    unsigned jobs = 4;
    FlagTable cli("sensitivity_memory — memory-hierarchy sensitivity");
    cli.flag("--scale", "S", "workload scale [0.1]", scale);
    cli.flag("--max-insts", "N", "trace length cap [60000]", max_insts);
    cli.jobs(jobs);
    try {
        cli.parse(argc, argv);
    } catch (const std::runtime_error &e) {
        std::cerr << "fatal: " << e.what() << "\n";
        return 2;
    }

    // compress is branchy/memory-light, su2cor is the vector code whose
    // in-flight misses the paper's inverted MSHR exists for; together
    // they bracket the hierarchy's influence. The l2Kb = 0 column is
    // paper mode, so the grid contains its own baseline.
    runner::CampaignGrid grid;
    grid.benchmarks = {"compress", "su2cor"};
    grid.machines = {"dual8"};
    grid.schedulers = {"local"};
    grid.l2Kbs = {0, 256};
    grid.memLats = {8, 16, 32};
    grid.scale = scale;
    grid.maxInsts = max_insts;

    runner::CampaignOptions options;
    options.jobs = jobs;

    runner::CampaignSummary summary;
    const auto specs = runner::expandGrid(grid);
    const auto results = runner::runCampaign(specs, options, &summary);

    int rc = 0;
    if (summary.ok != results.size()) {
        std::cerr << "FAIL: " << summary.ok << "/" << results.size()
                  << " jobs succeeded\n";
        rc = 1;
    }
    std::uint64_t nonConserved = 0;
    for (const auto &r : results)
        if (r.status == runner::JobStatus::Ok && !conserved(r))
            ++nonConserved;
    if (nonConserved != 0) {
        std::cerr << "FAIL: cycle-stack conservation violated on "
                  << nonConserved << " jobs\n";
        rc = 1;
    }
    // Paper-mode corners must attribute no stall to an L2 that does
    // not exist.
    std::uint64_t paperL2Stall = 0;
    for (const auto &r : results)
        if (r.spec.l2Kb == 0)
            paperL2Stall += stackCause(r, obs::StallCause::DcacheL2);
    if (paperL2Stall != 0) {
        std::cerr << "FAIL: dcache_l2 stall cycles without an L2\n";
        rc = 1;
    }

    // Determinism: the paper-mode corner re-run point by point (fresh
    // state, serial) must reproduce the campaign's results bit for bit.
    bool deterministic = true;
    for (const auto &r : results) {
        if (r.spec.l2Kb != 0 || r.spec.memLat != 16)
            continue;
        const runner::JobResult again = runner::runJob(r.spec);
        deterministic &= again.status == r.status &&
                         again.cycles == r.cycles &&
                         again.retired == r.retired &&
                         again.stackSlotCycles == r.stackSlotCycles;
    }
    if (!deterministic) {
        std::cerr << "FAIL: paper-mode re-run diverged from campaign\n";
        rc = 1;
    }

    std::cout << "Memory-hierarchy sensitivity (dual8/local, scale "
              << scale << ")\n  paper mode = l2_kb 0, mem_lat 16\n\n";
    TextTable table;
    table.header({"benchmark", "l2_kb", "mem_lat", "cycles", "ipc",
                  "dcache_mr", "l2_mr", "stall_l2", "stall_mem"});
    for (const auto &r : results)
        table.row({r.spec.benchmark, std::to_string(r.spec.l2Kb),
                   std::to_string(r.spec.memLat),
                   std::to_string(r.cycles), TextTable::num(r.ipc),
                   TextTable::num(r.dcacheMissRate),
                   TextTable::num(r.l2MissRate),
                   std::to_string(
                       stackCause(r, obs::StallCause::DcacheL2)),
                   std::to_string(
                       stackCause(r, obs::StallCause::DcacheMem))});
    table.print(std::cout);

    return rc;
}
