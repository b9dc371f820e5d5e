/**
 * @file
 * Campaign job specification and result.
 *
 * A JobSpec names one compile-and-simulate point: workload, compile
 * options, machine, and run-control bounds. Every field that can change
 * the simulation outcome participates in the spec's canonical key, and
 * the 64-bit content hash of that key is the identity the on-disk
 * result cache is keyed by — re-running a sweep only simulates points
 * whose spec changed.
 *
 * Jobs are validated before they run (unknown benchmark / machine /
 * scheduler / predictor names throw std::runtime_error rather than
 * taking down the process), and a job whose simulation exhausts its
 * cycle budget is recorded as TimedOut. Both outcomes are campaign
 * *results*, not campaign failures.
 *
 * runner::simulate is the one detailed-run primitive: runJob's
 * detailed arm and every caller that builds its own binary or machine
 * (custom programs, config fields a JobSpec cannot name) go through it.
 */

#ifndef MCA_RUNNER_JOBSPEC_HH
#define MCA_RUNNER_JOBSPEC_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hh"
#include "obs/cycle_stack.hh"
#include "support/types.hh"

namespace mca
{
class StatGroup;
}

namespace mca::compiler
{
struct CompileOptions;
}

namespace mca::prog
{
struct MachProgram;
}

namespace mca::runner
{

/** One compile-and-simulate point in a campaign. */
struct JobSpec
{
    /** Benchmark name (workloads::allBenchmarks() registry). */
    std::string benchmark = "compress";
    /** Workload scale (loop trip counts). */
    double scale = 0.2;

    /** Machine name: single8|dual8|single4|dual4|quad8|octa8. */
    std::string machine = "dual8";
    /** Scheduler/partitioner name: native|local|roundrobin|multilevel. */
    std::string scheduler = "local";
    /** Local-scheduler imbalance threshold. */
    unsigned threshold = 4;
    /** Unroll factor for counted self-loops (1 = off). */
    unsigned unroll = 1;
    /** Branch predictor override (empty = machine default). */
    std::string predictor;

    // Memory-hierarchy axes (defaults = paper mode; docs/memory.md).
    /** Shared-L2 size in KB; 0 = no L2 (paper mode). */
    unsigned l2Kb = 0;
    /** L1-miss-to-L2-hit latency in cycles. */
    unsigned l2Lat = 6;
    /** Memory backside latency in cycles. */
    unsigned memLat = 16;
    /** Fill ports per memory level; 0 = unlimited (paper mode). */
    unsigned fillPorts = 0;

    // Sampled-simulation axes (docs/sampling.md). samplePeriod = 0
    // runs the full detailed simulation; > 0 switches the job to the
    // systematic sampled driver with this interval period.
    std::uint64_t samplePeriod = 0;
    /** Detailed instructions measured per interval. */
    std::uint64_t sampleDetail = 10'000;
    /** Detailed warmup instructions discarded per interval. */
    std::uint64_t sampleWarmup = 2'000;

    std::uint64_t traceSeed = 42;
    /** Seed for the compiler's profiling run; expandGrid, table2Jobs and
     *  mcasim set it to traceSeed, so a seed names the whole run. */
    std::uint64_t profileSeed = 42;
    std::uint64_t maxInsts = 300'000;
    /**
     * Simulation cycle budget. A run that hits this bound without
     * retiring the full trace is recorded as JobStatus::TimedOut. The
     * budget is deterministic (simulated cycles, not wall clock), so
     * timeout behaviour is identical at any --jobs width.
     */
    Cycle maxCycles = 100'000'000;

    /**
     * Canonical key: every outcome-affecting field in a fixed order.
     * Two specs with equal keys produce bit-identical results.
     */
    std::string canonicalKey() const;

    /** FNV-1a 64-bit hash of canonicalKey(), as 16 lowercase hex digits. */
    std::string contentHash() const;

    /**
     * Throw std::runtime_error naming the offending field (and the
     * valid choices) if an enumerated field holds an unknown value, the
     * scale lies outside [0, 1e6], a bound is zero, or a sampling plan
     * is infeasible.
     */
    void validate() const;
};

/** Terminal state of one job. */
enum class JobStatus
{
    Ok,       ///< simulation retired the full trace
    TimedOut, ///< cycle budget exhausted before completion
    Failed,   ///< spec rejected or an exception escaped the pipeline
};

const char *jobStatusName(JobStatus status);

/** Everything one job produced (flat, serializable). */
struct JobResult
{
    JobSpec spec;
    JobStatus status = JobStatus::Failed;
    /** Populated when status == Failed. */
    std::string error;

    // Simulation statistics (valid for Ok; best-effort for TimedOut).
    Cycle cycles = 0;
    std::uint64_t retired = 0;
    double ipc = 0.0;
    std::uint64_t distSingle = 0;
    std::uint64_t distDual = 0;
    std::uint64_t operandForwards = 0;
    std::uint64_t resultForwards = 0;
    std::uint64_t replays = 0;
    std::uint64_t issueDisorder = 0;
    double bpredAccuracy = 0.0;
    double dcacheMissRate = 0.0;
    double icacheMissRate = 0.0;
    /** Shared-L2 local miss rate; 0 when the machine has no L2. */
    double l2MissRate = 0.0;

    // Compiler-side statistics.
    std::uint64_t spillLoads = 0;
    std::uint64_t spillStores = 0;
    std::uint64_t otherClusterSpills = 0;
    /** Affinity edge weight the partition cut (0 for native). */
    std::uint64_t partitionCut = 0;
    /** Heaviest cluster / ideal cluster weight (0 for native). */
    double partitionBalance = 0.0;

    /**
     * Cycle-stack stall attribution: slot-cycles per cause, in
     * obs::StallCause order. stackSlots is the machine's retire width;
     * the entries sum to stackSlots * cycles (conservation).
     */
    std::array<std::uint64_t, obs::kNumStallCauses> stackSlotCycles{};
    unsigned stackSlots = 0;

    // Sampled-run extras (zero/false for full detailed runs). For a
    // sampled job, `cycles` is the extrapolated total (rounded),
    // `retired` is the full trace length, and the cycle stack is the
    // sum over the measured windows only.
    bool sampled = false;
    std::uint64_t sampledIntervals = 0;
    /** 95% CI half-width on the per-interval CPI mean. */
    double cpiCi95 = 0.0;

    /** Wall-clock milliseconds spent (informational; not cached identity). */
    double wallMs = 0.0;
    /** True when this result was served from the on-disk cache. */
    bool fromCache = false;
};

/**
 * Simulate one binary on one machine in full detail.
 *
 * Fills the simulation fields of the result (statistics, cycle stack)
 * and its status: Ok when the trace retired completely, TimedOut with
 * the budget in `error` when @p max_cycles ran out first. The spec and
 * compile-side fields are left at their defaults. Asserts that @p map
 * matches the machine's cluster count and that the cycle stack
 * conserves retire slots.
 *
 * @param binary      Compiled program.
 * @param map         Register-to-cluster map the hardware should use
 *                    (normally CompileOutput::hardwareMap()).
 * @param cfg         Machine configuration (regMap is overwritten).
 * @param trace_seed  Seed for the trace interpreter.
 * @param max_insts   Trace-length bound.
 * @param max_cycles  Cycle budget.
 * @param stats       Registry to record into, for callers that dump
 *                    every statistic; nullptr uses a private one.
 */
JobResult simulate(const prog::MachProgram &binary,
                   const isa::RegisterMap &map, core::ProcessorConfig cfg,
                   std::uint64_t trace_seed, std::uint64_t max_insts,
                   Cycle max_cycles = 100'000'000,
                   StatGroup *stats = nullptr);

/**
 * @p result itself when its status is Ok. Otherwise print one
 * `fatal: <what>: <status> (<error>)` line to stderr and exit 1: for
 * benches and examples, where a partial run is never a valid cell.
 */
JobResult requireOk(JobResult result, const std::string &what);

class ArtifactStore;

/**
 * Validate, compile, and simulate one spec. Never throws for
 * invalid-spec or pipeline errors — those come back as status Failed
 * with the message in `error`.
 *
 * With an ArtifactStore, the compile step is memoized on the
 * (workload, compile-config) pair: jobs differing only in machine or
 * run-control fields share one compiled binary (see artifact_store.hh).
 * The task-graph campaign pre-compiles each distinct key in its own
 * node, so by the time runJob asks the store the artifact is ready.
 */
JobResult runJob(const JobSpec &spec, ArtifactStore *store = nullptr);

/**
 * Build the ProcessorConfig a spec names (machine factory + predictor
 * override + memory-hierarchy axes), validated. Throws
 * std::runtime_error on unknown names or inconsistent geometry; mcarun
 * uses this at parse time to fail fast before any job runs.
 */
core::ProcessorConfig machineConfigFor(const JobSpec &spec);

/**
 * The same predictor override and memory-hierarchy axes applied to an
 * explicit @p base machine instead of the one spec.machine names (mcasim
 * builds its `--clusters N` machines this way), validated.
 */
core::ProcessorConfig machineConfigFor(const JobSpec &spec,
                                       core::ProcessorConfig base);

/**
 * The compile configuration a spec names: the scheduler's base options
 * with the spec's threshold/unroll/profile-seed applied. The campaign
 * uses this (with machineConfigFor) to key compile artifacts before
 * any job runs.
 */
compiler::CompileOptions jobCompileOptions(const JobSpec &spec,
                                           unsigned machine_clusters);

/** Valid choices for the enumerated spec fields (for CLI help/errors). */
const std::vector<std::string> &validMachines();
const std::vector<std::string> &validSchedulers();
const std::vector<std::string> &validPredictors();
const std::vector<std::string> &validBenchmarks();

} // namespace mca::runner

#endif // MCA_RUNNER_JOBSPEC_HH
