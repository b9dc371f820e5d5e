/**
 * @file
 * Sampling-plan specification for the sampled-execution driver.
 *
 * A SampleSpec describes how a long run is carved into measurement
 * intervals (docs/sampling.md): every `period` instructions, restore a
 * functionally warmed snapshot, run `warmup` instructions of detailed
 * simulation to fill the pipeline, then measure `detail` instructions.
 * Two interval-selection modes are supported:
 *
 *  - Systematic (SMARTS-style): the first interval starts at a phase
 *    derived deterministically from the trace seed, so repeated runs
 *    of the same workload measure the same intervals while different
 *    seeds decorrelate the phase from any program periodicity.
 *  - Periodic: the first interval starts at a user-chosen `offset`
 *    (useful for reproducing a specific window, e.g. in regression
 *    tests or when bisecting a phase-behavior anomaly).
 *
 * The textual form accepted by `mcasim --sample=` is
 *
 *     <mode>:period=N,detail=N,warmup=N[,offset=N][,jobs=N]
 *
 * with `<mode>` one of `systematic` or `periodic`. Unknown keys and
 * ill-formed values are rejected with std::runtime_error, as are plans
 * whose warmup+detail exceed the period (intervals would overlap).
 */

#ifndef MCA_SAMPLE_SPEC_HH
#define MCA_SAMPLE_SPEC_HH

#include <cstdint>
#include <string>

namespace mca::sample
{

struct SampleSpec
{
    enum class Mode
    {
        Systematic,
        Periodic,
    };

    Mode mode = Mode::Systematic;
    /** Instructions between consecutive interval starts. */
    std::uint64_t period = 100'000;
    /** Detailed instructions measured per interval. */
    std::uint64_t detail = 10'000;
    /** Detailed instructions run (and discarded) before measuring. */
    std::uint64_t warmup = 2'000;
    /** First-interval start for Periodic mode (ignored by Systematic). */
    std::uint64_t offset = 0;
    /** Measurement workers, 1..kMaxJobs; 1 = serial (same code path,
     *  same result). */
    unsigned jobs = 1;

    /**
     * Parse the textual form. Throws std::runtime_error naming the
     * offending token on bad mode, bad key, bad number, or an
     * infeasible plan (period == 0, detail == 0, warmup+detail >
     * period).
     */
    static SampleSpec parse(const std::string &text);

    /**
     * Canonical textual form (stable field order). `jobs` is excluded:
     * it changes wall-clock behaviour, never results, so cache keys
     * built from the canonical form stay worker-count independent.
     */
    std::string canonical() const;

    /** Validate feasibility; throws std::runtime_error when violated. */
    void validate() const;
};

} // namespace mca::sample

#endif // MCA_SAMPLE_SPEC_HH
