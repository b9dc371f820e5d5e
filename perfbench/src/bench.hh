/**
 * @file
 * Shared pieces of the repository benchmark (perfbench/README.md):
 * command-line options, the metric table, output checks, the span
 * tracer, and the timing helpers every workload uses.
 *
 * The benchmark drives the simulator only through the public functions
 * of its layers (workloads, compiler, exec, core, mem, bpred, ckpt,
 * sample, taskgraph, runner); every host time is taken here, around
 * those calls, never inside src/.
 */
#ifndef MCABENCH_BENCH_HH
#define MCABENCH_BENCH_HH

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace mcabench
{

/** Command-line options of one invocation. */
struct Options
{
    std::string workload;
    /** Workload seed: trace seed, profile seed, random-program seed. */
    std::uint64_t seed = 1;
    /** Length of the measured loop in host seconds. */
    double seconds = 10.0;
    /** true: the traced run (per-layer metrics); false: end to end. */
    bool trace = false;
    /** Scratch directory for trace files and artifact stores. */
    std::string workDir;
    /** Directory the result and span files are written to. */
    std::string outDir;
    /** Executor width the campaign and the sampled driver are measured
     *  at. At 1 their nodes run one after another in a fixed order, so
     *  the operation can be timed in pieces (SliceTimes). */
    unsigned width = 1;
    /** Width the sampled estimate is re-run at and compared with the
     *  measured one: min(2, nproc). */
    unsigned checkWidth = 1;
    /** Name of an output to corrupt before it is checked (self-test). */
    std::string inject;
    /** Build provenance passed in by run.py (not a git checkout here). */
    std::string commit = "unknown";
    std::string srcDigest = "unknown";
};

/** One row of the metric table (mirrors BENCHMARK.json). */
struct MetricDef
{
    std::string name;
    std::string unit;
    std::string better; ///< "lower" or "higher"
    bool endToEnd = false;
};

/** Every metric the benchmark reports, end-to-end rows first. */
const std::vector<MetricDef> &metricTable();

/** Metric values by name; units come from metricTable(). */
using Metrics = std::map<std::string, double>;

/**
 * Output checks. An op is one simulation job or one sampled estimate;
 * each failed check counts one failed op.
 */
class Checks
{
  public:
    void addOps(std::uint64_t n) { attempted_ += n; }
    /** Record a check; returns `ok`. A failure is printed to stderr. */
    bool expect(bool ok, const std::string &what);
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const;
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    std::uint64_t attempted_ = 0;
    std::vector<std::string> failures_;
};

/** Host steady-clock nanoseconds. */
inline std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Span recorder for the traced run. Spans (layer, name, start, end,
 * parent) are kept in memory and written out when the run ends; a
 * disabled tracer reads no clock and records nothing, so untraced and
 * traced repetitions run the same code.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled) : enabled_(enabled) {}

    /** RAII span; closes on destruction. */
    class Span
    {
      public:
        Span(Tracer *tracer, int id) : tracer_(tracer), id_(id) {}
        ~Span();
        Span(const Span &) = delete;
        Span &operator=(const Span &) = delete;

      private:
        Tracer *tracer_;
        int id_;
    };

    void setEnabled(bool on) { enabled_ = on; }

    /** Open a span around a call into `layer`. */
    [[nodiscard]] Span span(const std::string &layer,
                            const std::string &name);

    /**
     * Fold in a span measured elsewhere (a taskgraph::TaskSpan) as a
     * child of the innermost open span. Times are steady-clock ns.
     */
    void addChild(const std::string &layer, const std::string &name,
                  std::uint64_t start_ns, std::uint64_t end_ns);

    /**
     * Self time per layer in ms over the span trees whose root is named
     * `root`: each span's duration minus the part of its interval its
     * children cover, summed by layer. `roots` receives the number of
     * such trees.
     */
    std::map<std::string, double>
    selfMsByLayer(const std::string &root, std::size_t *roots) const;

    /** Write every span as JSON (one object per span). */
    void writeJson(const std::string &path) const;

  private:
    struct Record
    {
        std::string layer;
        std::string name;
        std::uint64_t startNs = 0;
        std::uint64_t endNs = 0;
        int parent = -1;
    };
    void close(int id);

    bool enabled_;
    std::vector<Record> spans_;
    std::vector<int> open_;
};

/** Median of a non-empty sample (copy sorted). */
double median(std::vector<double> values);

/** Print the fastest, median and a high percentile of each sample. */
void printSamples(const std::vector<double> &setup_ns,
                  const std::vector<double> &op_ns,
                  const std::vector<double> &ns_per_cycle);

/**
 * Fastest time of each piece of a deterministic operation over many
 * repetitions. Every workload times its set-up and its operation in
 * pieces that do the same work in every repetition: per-program build,
 * compile and capture steps; slices of a fixed number of simulated
 * cycles; the jobs of a serial campaign; the nodes of a serial sampled
 * run. A piece's fastest time is its least disturbed measurement, and
 * the sum over pieces is the operation's time with every piece at its
 * fastest. setup_s, wall_s and host_ns_per_cycle are such sums.
 *
 * Why pieces: the measuring host alternates, within seconds, between
 * speeds up to 1.8x apart (user time, not preemption). The median of a
 * run lands on whichever speed dominated it, and even the fastest whole
 * repetition (0.3 to 2 s) seldom runs free of a slow phase from start
 * to end, while a piece of a few milliseconds often does. See
 * README.md, Noise, for the measured spreads.
 */
class SliceTimes
{
  public:
    /** Fold in one repetition: piece times per program. */
    void add(const std::vector<std::vector<double>> &piece_ns);
    /** Sum over pieces of each piece's fastest time, in ns. */
    double fastestTotalNs() const;
    /** Every repetition had the same number of pieces per program. */
    bool consistent() const { return consistent_; }
    std::size_t pieces() const;

  private:
    std::vector<std::vector<double>> best_;
    bool consistent_ = true;
};

/** Geometric mean of positive values. */
double geomean(const std::vector<double> &values);

/**
 * Run `rep` until `seconds` of host time have passed and at least
 * `min_reps` repetitions have run.
 */
void repeatFor(double seconds, unsigned min_reps,
               const std::function<void()> &rep);


/** Peak resident set of this process so far, in MiB. */
double peakRssMb();

/** Per-stage host-profiler shares from one profiled pass. */
struct ProfShares
{
    /** stage name ("schedule", ...) -> self ns / all profiled ns. */
    std::map<std::string, double> stageSelfFrac;
    /** Profiled region self ns summed over every node named `name`. */
    std::map<std::string, std::uint64_t> selfNsByRegion;
    std::map<std::string, std::uint64_t> totalNsByRegion;
    std::uint64_t profiledNs = 0;
    double wallNs = 0.0;
};

/**
 * Run `op` once with the src/prof region profiler on and collect the
 * per-stage shares of Processor::step (core.<stage> regions).
 */
ProfShares profiledPass(const std::function<void()> &op);

/** Fill the core.stage.* and prof.overhead_frac rows. */
void reportProfShares(const ProfShares &prof, double untraced_median_ns,
                      Metrics &out);

/**
 * Fill the self.<layer>_ms rows: self time per traced repetition of the
 * workload's operation (span trees rooted at "op").
 */
void reportSelfTimes(const Tracer &tracer, Metrics &out);

// --- workloads (one translation unit each) ---------------------------

/** Fills end-to-end rows (untraced) or per-layer rows (traced). */
using WorkloadFn = void (*)(const Options &, Checks &, Tracer &,
                            Metrics &);

void runIssueBound(const Options &, Checks &, Tracer &, Metrics &);
void runMemoryBound(const Options &, Checks &, Tracer &, Metrics &);
void runTable2Campaign(const Options &, Checks &, Tracer &, Metrics &);
void runSampledGcc1(const Options &, Checks &, Tracer &, Metrics &);

} // namespace mcabench

#endif // MCABENCH_BENCH_HH
