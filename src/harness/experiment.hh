/**
 * @file
 * The Table-2 experiment (the paper's headline result): its options,
 * its row type and the published values.
 *
 * Methodology reproduced from §4: the *native* binary (cluster-unaware
 * compilation) runs on the single-cluster machine to give the baseline
 * cycle count; the same native binary runs on the dual-cluster machine
 * (Table 2 column "none"); and the binary rescheduled with the local
 * scheduler runs on the dual-cluster machine (column "local"). The
 * reported percentage is 100 - 100 * (C_dual / C_single): positive =
 * speedup, negative = slowdown.
 *
 * runner::runTable2Campaign (runner/table2.hh) runs it. This header
 * only names types and needs no library.
 */

#ifndef MCA_HARNESS_EXPERIMENT_HH
#define MCA_HARNESS_EXPERIMENT_HH

#include <string>
#include <vector>

#include "runner/jobspec.hh"
#include "workloads/workloads.hh"

namespace mca::harness
{

/** Per-benchmark options for the Table-2 experiment. */
struct ExperimentOptions
{
    workloads::WorkloadParams workload;
    std::uint64_t traceSeed = 42;
    std::uint64_t maxInsts = 400'000;
    unsigned imbalanceThreshold = 4;
    /** true: 8-way machines (the paper's reported data); false: 4-way. */
    bool eightWay = true;
};

/** One row of the reproduced Table 2 (plus diagnostics). */
struct Table2Row
{
    std::string benchmark;
    runner::JobResult single;    ///< native binary, single-cluster machine
    runner::JobResult dualNone;  ///< native binary, dual-cluster machine
    runner::JobResult dualLocal; ///< rescheduled binary, dual-cluster machine
    double pctNone = 0.0;        ///< 100 - 100*(dualNone/single)
    double pctLocal = 0.0;
    std::uint64_t spillLoadsLocal = 0;
    std::uint64_t spillStoresLocal = 0;
    std::uint64_t otherClusterSpills = 0;
};

/** The paper's published Table 2, for side-by-side printing. */
struct PaperTable2Entry
{
    const char *benchmark;
    int pctNone;
    int pctLocal;
};

/** Published values: {-14,+6},{-21,-15},{-15,-10},{-5,-22},{-36,-25},{-41,-19}. */
inline const std::vector<PaperTable2Entry> &
paperTable2()
{
    static const std::vector<PaperTable2Entry> kPaper = {
        {"compress", -14, +6},  {"doduc", -21, -15},
        {"gcc1", -15, -10},     {"ora", -5, -22},
        {"su2cor", -36, -25},   {"tomcatv", -41, -19},
    };
    return kPaper;
}

} // namespace mca::harness

#endif // MCA_HARNESS_EXPERIMENT_HH
