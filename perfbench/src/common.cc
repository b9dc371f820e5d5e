/**
 * @file
 * Metric table, checks, statistics and profiler helpers shared by the
 * benchmark's workloads.
 */

#include "bench.hh"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <iostream>

#include "obs/cycle_stack.hh"
#include "prof/prof.hh"

namespace mcabench
{

namespace
{

/** Programs whose simulated counts are reported one by one. */
const char *const kPrograms[] = {"gcc1",     "tomcatv", "su2cor", "random",
                                 "compress", "ora",     "doduc"};

/** Processor::step stages instrumented in src/core/processor.cc. */
const char *const kStages[] = {"schedule", "dispatch", "fetch",
                               "retire",   "begin",    "account",
                               "idle_skip"};

/** Layers that have spans inside a workload's operation. */
const char *const kSpanLayers[] = {"exec", "core", "sample", "runner"};

std::vector<MetricDef>
buildTable()
{
    std::vector<MetricDef> t = {
        // End to end: what a user of the simulator waits on.
        {"wall_s", "s", "lower", true},
        {"host_ns_per_cycle", "ns/cycle", "lower", true},
        {"sim_ipc", "inst/cycle", "higher", true},
        {"setup_s", "s", "lower", true},
        {"peak_rss_mb", "MiB", "lower", true},
        // Per layer.
        {"workloads.build_ms", "ms", "lower", false},
        {"compiler.compile_ms", "ms", "lower", false},
        {"compiler.compiles", "count", "lower", false},
        {"compiler.partition_cut", "weight", "lower", false},
        {"compiler.partition_balance", "ratio", "lower", false},
        {"compiler.spill_ops", "count", "lower", false},
        {"exec.trace_write_ns_per_inst", "ns", "lower", false},
        {"exec.trace_read_ns_per_inst", "ns", "lower", false},
        {"exec.trace_gen_ns_per_inst", "ns", "lower", false},
        {"core.run_ms", "ms", "lower", false},
        {"core.ns_per_stepped_cycle", "ns", "lower", false},
        {"core.stepped_frac", "frac", "lower", false},
    };
    for (const char *p : kPrograms)
        t.push_back({std::string("core.sim_cycles.") + p, "cycles",
                     "lower", false});
    for (const char *p : kPrograms)
        t.push_back({std::string("core.retired.") + p, "inst", "higher",
                     false});
    for (std::size_t c = 0; c < mca::obs::kNumStallCauses; ++c) {
        const auto cause = static_cast<mca::obs::StallCause>(c);
        t.push_back({std::string("core.stall.") +
                         mca::obs::stallCauseName(cause) + "_frac",
                     "frac",
                     cause == mca::obs::StallCause::Base ? "higher"
                                                         : "lower",
                     false});
    }
    for (const char *s : kStages)
        t.push_back({std::string("core.stage.") + s + "_self_frac", "frac",
                     "lower", false});
    const std::vector<MetricDef> rest = {
        {"prof.overhead_frac", "frac", "lower", false},
        {"mem.l1d_miss_rate", "frac", "lower", false},
        {"mem.l1i_miss_rate", "frac", "lower", false},
        {"mem.l2_miss_rate", "frac", "lower", false},
        {"mem.accesses_per_inst", "1/inst", "lower", false},
        {"bpred.accuracy", "frac", "higher", false},
        {"ckpt.save_ms", "ms", "lower", false},
        {"ckpt.restore_ms", "ms", "lower", false},
        {"ckpt.snapshot_kb", "KiB", "lower", false},
        {"sample.warm_ns_per_inst", "ns", "lower", false},
        {"sample.window_ms", "ms", "lower", false},
        {"sample.intervals", "count", "higher", false},
        {"sample.detailed_insts", "inst", "lower", false},
        {"sample.cpi_ci95", "cycles/inst", "lower", false},
        {"sample.wall_s", "s", "lower", false},
        {"sample.cpi_err_pct", "%", "lower", false},
        {"taskgraph.critical_path_ms", "ms", "lower", false},
        {"taskgraph.max_queue_depth", "count", "lower", false},
        {"taskgraph.busy_frac", "frac", "higher", false},
        {"runner.job_ms", "ms", "lower", false},
        {"runner.compile_hits", "count", "higher", false},
        {"runner.result_hits", "count", "higher", false},
        {"runner.campaign_cold_s", "s", "lower", false},
        {"runner.campaign_warm_s", "s", "lower", false},
        {"harness.table2_err_pts", "pts", "lower", false},
        {"trace.overhead_frac", "frac", "lower", false},
    };
    t.insert(t.end(), rest.begin(), rest.end());
    for (const char *l : kSpanLayers)
        t.push_back({std::string("self.") + l + "_ms", "ms", "lower",
                     false});
    return t;
}

void
sumRegions(const mca::prof::ProfileNode &node, ProfShares &out)
{
    out.selfNsByRegion[node.name] += node.selfNs();
    out.totalNsByRegion[node.name] += node.totalNs;
    for (const auto &child : node.children)
        sumRegions(child, out);
}

} // namespace

const std::vector<MetricDef> &
metricTable()
{
    static const std::vector<MetricDef> table = buildTable();
    return table;
}

bool
Checks::expect(bool ok, const std::string &what)
{
    if (!ok) {
        failures_.push_back(what);
        std::cerr << "CHECK FAILED: " << what << "\n";
    }
    return ok;
}

std::uint64_t
Checks::failed() const
{
    return std::min<std::uint64_t>(failures_.size(),
                                   std::max<std::uint64_t>(attempted_, 1));
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 0)
        return 0.0;
    return n % 2 ? values[n / 2]
                 : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
printSamples(const std::vector<double> &setup_ns,
             const std::vector<double> &op_ns,
             const std::vector<double> &ns_per_cycle)
{
    // The distribution of the repetitions: the fastest, the median, and
    // the highest percentile with at least ten repetitions beyond it.
    auto summary = [](const char *name, std::vector<double> v,
                      double scale, const char *unit) {
        std::sort(v.begin(), v.end());
        const std::size_t n = v.size();
        std::cout << "samples " << name << " n=" << n
                  << " min=" << v.front() * scale
                  << " median=" << median(v) * scale;
        if (n >= 20) {
            const std::size_t pct = 100 - (1000 + n - 1) / n;
            std::cout << " p" << pct << "="
                      << v[(n - 1) * pct / 100] * scale;
        }
        std::cout << " " << unit << "\n";
    };
    summary("setup_s", setup_ns, 1e-9, "s");
    summary("wall_s", op_ns, 1e-9, "s");
    summary("host_ns_per_cycle", ns_per_cycle, 1.0, "ns/cycle");
}

void
SliceTimes::add(const std::vector<std::vector<double>> &piece_ns)
{
    if (best_.empty()) {
        best_ = piece_ns;
        return;
    }
    if (piece_ns.size() != best_.size()) {
        consistent_ = false;
        return;
    }
    for (std::size_t p = 0; p < best_.size(); ++p) {
        if (piece_ns[p].size() != best_[p].size()) {
            consistent_ = false;
            continue;
        }
        for (std::size_t i = 0; i < best_[p].size(); ++i)
            best_[p][i] = std::min(best_[p][i], piece_ns[p][i]);
    }
}

double
SliceTimes::fastestTotalNs() const
{
    double sum = 0.0;
    for (const auto &program : best_)
        for (double ns : program)
            sum += ns;
    return sum;
}

std::size_t
SliceTimes::pieces() const
{
    std::size_t n = 0;
    for (const auto &program : best_)
        n += program.size();
    return n;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double logSum = 0.0;
    for (double v : values)
        logSum += std::log(v);
    return std::exp(logSum / static_cast<double>(values.size()));
}

void
repeatFor(double seconds, unsigned min_reps,
          const std::function<void()> &rep)
{
    const std::uint64_t t0 = nowNs();
    const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
    for (unsigned n = 0; n < min_reps || nowNs() - t0 < budget; ++n)
        rep();
}

double
peakRssMb()
{
    // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
    // exec, so it would report the launching interpreter's peak.
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0; // kB
    return 0.0;
}

ProfShares
profiledPass(const std::function<void()> &op)
{
    namespace prof = mca::prof;
    prof::reset();
    prof::setEnabled(true);
    const std::uint64_t t0 = nowNs();
    op();
    const std::uint64_t t1 = nowNs();
    prof::setEnabled(false);
    const prof::Profile profile = prof::snapshot();
    prof::reset();

    ProfShares out;
    out.wallNs = static_cast<double>(t1 - t0);
    out.profiledNs = profile.root.totalNs;
    for (const auto &child : profile.root.children)
        sumRegions(child, out);
    for (const char *stage : kStages) {
        const auto it =
            out.selfNsByRegion.find(std::string("core.") + stage);
        const double self =
            it == out.selfNsByRegion.end() ? 0.0
                                           : static_cast<double>(it->second);
        out.stageSelfFrac[stage] =
            out.profiledNs ? self / static_cast<double>(out.profiledNs)
                           : 0.0;
    }
    return out;
}

void
reportProfShares(const ProfShares &prof, double untraced_median_ns,
                 Metrics &out)
{
    for (const auto &[stage, frac] : prof.stageSelfFrac)
        out["core.stage." + stage + "_self_frac"] = frac;
    out["prof.overhead_frac"] =
        untraced_median_ns > 0.0
            ? (prof.wallNs - untraced_median_ns) / untraced_median_ns
            : 0.0;
}

void
reportSelfTimes(const Tracer &tracer, Metrics &out)
{
    std::size_t reps = 0;
    for (const auto &[layer, ms] : tracer.selfMsByLayer("op", &reps)) {
        const std::string key = "self." + layer + "_ms";
        if (out.count(key) && reps > 0)
            out[key] = ms / static_cast<double>(reps);
    }
}

} // namespace mcabench
