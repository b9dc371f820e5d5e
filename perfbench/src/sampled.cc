/**
 * @file
 * The sampled-gcc1 workload: sample::SampledDriver in systematic mode
 * on a gcc1 trace of several million instructions. Host time goes to
 * functional warming, snapshot save and restore, and short detailed
 * windows, so ckpt and sample changes show here and core changes
 * barely do. The full detailed reference run that the estimate is
 * checked against runs once per invocation, outside the measured loop
 * and outside set-up.
 */

#include "bench.hh"

#include <array>
#include <cmath>
#include <iostream>

#include "ckpt/snapshot.hh"
#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "obs/cycle_stack.hh"
#include "sample/driver.hh"
#include "sample/functional.hh"
#include "support/stats.hh"
#include "workloads/workloads.hh"

namespace mcabench
{

namespace
{

using namespace mca;

/** gcc1 at this scale runs past the cap: every seed gets 4M insts. */
constexpr double kScale = 20.0;
constexpr std::uint64_t kMaxInsts = 4'000'000;

sample::SampleSpec
sampleSpec(unsigned width)
{
    sample::SampleSpec spec;
    spec.mode = sample::SampleSpec::Mode::Systematic;
    spec.period = 200'000;
    spec.detail = 8'000;
    spec.warmup = 2'000;
    spec.jobs = width;
    return spec;
}

/** Name of the first estimate field in which two reports differ. */
std::string
firstDifference(const sample::SampleReport &a, const sample::SampleReport &b)
{
    if (a.totalInsts != b.totalInsts)
        return "totalInsts";
    if (a.detailedInsts != b.detailedInsts)
        return "detailedInsts";
    if (a.cpiMean != b.cpiMean)
        return "cpiMean";
    if (a.cpiCi95 != b.cpiCi95)
        return "cpiCi95";
    if (a.estTotalCycles != b.estTotalCycles)
        return "estTotalCycles";
    if (a.intervals.size() != b.intervals.size())
        return "intervals";
    for (std::size_t i = 0; i < a.intervals.size(); ++i)
        if (a.intervals[i].startInst != b.intervals[i].startInst ||
            a.intervals[i].cycles != b.intervals[i].cycles ||
            a.intervals[i].instructions != b.intervals[i].instructions)
            return "interval " + std::to_string(i);
    return "";
}

} // namespace

void
runSampledGcc1(const Options &opts, Checks &checks, Tracer &tracer,
               Metrics &out)
{
    // Every repetition sets up afresh and then runs the estimate, so
    // both are timed under the same host conditions. Set-up runs twice
    // back to back and the second is timed (see detailed.cc).
    std::vector<double> setupNs, buildNs, compileNs;
    SliceTimes setupSlices;
    compiler::CompileOutput compiled;
    core::ProcessorConfig cfg = core::ProcessorConfig::dualCluster8();
    auto setupOnce = [&] {
        auto root = tracer.span("bench", "setup");
        const std::uint64_t t0 = nowNs();
        const prog::Program program = [&] {
            auto s = tracer.span("workloads", "make gcc1");
            return workloads::makeGcc1(workloads::WorkloadParams{kScale});
        }();
        const std::uint64_t t1 = nowNs();
        {
            auto s = tracer.span("compiler", "compile gcc1");
            compiler::CompileOptions copt =
                compiler::compileOptionsFor("local", 2);
            copt.profileSeed = opts.seed;
            compiled = compiler::compile(program, copt);
        }
        const std::uint64_t t2 = nowNs();
        cfg.regMap = compiled.hardwareMap(cfg.numClusters);
        return std::array<double, 3>{static_cast<double>(t2 - t0),
                                     static_cast<double>(t1 - t0),
                                     static_cast<double>(t2 - t1)};
    };
    auto setupRep = [&] {
        setupOnce();
        const auto [total, build, compile] = setupOnce();
        setupSlices.add({{build, compile}});
        setupNs.push_back(total);
        buildNs.push_back(build);
        compileNs.push_back(compile);
    };
    setupRep();
    const sample::SampleSpec spec = sampleSpec(opts.width);

    sample::SampleReport ref;
    int repIndex = 0;
    auto runRep = [&](bool traced) {
        tracer.setEnabled(traced);
        if (repIndex > 0) // the first repetition uses the set-up above
            setupRep();
        sample::SampleReport rep;
        std::uint64_t ns = 0;
        {
            auto root = tracer.span("bench", "op");
            auto s = tracer.span("sample", "SampledDriver::run");
            const std::uint64_t t0 = nowNs();
            const sample::SampledDriver driver(compiled.binary, cfg,
                                               opts.seed, kMaxInsts);
            rep = driver.run(spec);
            ns = nowNs() - t0;
            // The executor's warm and measure node spans, anchored at
            // the driver call.
            for (const taskgraph::TaskSpan &ts : rep.taskSpans)
                tracer.addChild("sample", ts.name, t0 + ts.startNs,
                                t0 + ts.endNs);
        }
        tracer.setEnabled(opts.trace);
        if (opts.inject == "cycles" && repIndex == 1)
            rep.intervals.front().cycles += 1;
        ++repIndex;
        checks.addOps(1);
        checks.expect(rep.allConserved,
                      "sampled window violated cycle-stack conservation");
        checks.expect(!rep.intervals.empty() && rep.cpiMean > 0.0,
                      "sampled estimate measured no interval");
        if (ref.intervals.empty()) {
            ref = rep;
        } else {
            const std::string diff = firstDifference(rep, ref);
            checks.expect(diff.empty(),
                          "sampled estimate differs from the first "
                          "repetition in " + diff);
        }
        return std::make_pair(rep, static_cast<double>(ns));
    };

    std::vector<double> untracedNs, nsPerCycle, tracedNs;
    sample::SampleReport last;
    if (!opts.trace) {
        // At width 1 the warm and measure nodes run one after another,
        // so each node's span is a piece (see SliceTimes); the rest of
        // the call (driver and graph construction, gaps) is one more.
        SliceTimes slices;
        repeatFor(opts.seconds, 3, [&] {
            auto [rep, ns] = runRep(false);
            untracedNs.push_back(ns);
            nsPerCycle.push_back(ns / rep.estTotalCycles);
            std::vector<double> pieces;
            double nodeNs = 0;
            for (const taskgraph::TaskSpan &ts : rep.taskSpans) {
                pieces.push_back(static_cast<double>(ts.endNs - ts.startNs));
                nodeNs += pieces.back();
            }
            pieces.push_back(ns - nodeNs);
            slices.add({pieces});
            last = std::move(rep);
        });
        checks.expect(setupSlices.consistent() && slices.consistent(),
                      "piece counts differ between repetitions");
        printSamples(setupNs, untracedNs, nsPerCycle);
        out["setup_s"] = setupSlices.fastestTotalNs() / 1e9;
        std::cout << "pieces op=" << slices.pieces() << "\n";
        out["wall_s"] = slices.fastestTotalNs() / 1e9;
        out["host_ns_per_cycle"] =
            slices.fastestTotalNs() / last.estTotalCycles;
        out["sim_ipc"] = 1.0 / last.cpiMean;
        out["peak_rss_mb"] = peakRssMb();
    } else {
        repeatFor(0.5 * opts.seconds, 2, [&] {
            untracedNs.push_back(runRep(false).second);
            auto [rep, ns] = runRep(true);
            tracedNs.push_back(ns);
            last = std::move(rep);
        });
    }

    // The same graph at another width (warm and measure nodes
    // overlapping); the estimate must be bit-identical to the measured
    // one.
    {
        tracer.setEnabled(false);
        const sample::SampledDriver wide(compiled.binary, cfg, opts.seed,
                                         kMaxInsts);
        sample::SampleReport other = wide.run(sampleSpec(opts.checkWidth));
        tracer.setEnabled(opts.trace);
        if (opts.inject == "width")
            other.cpiMean += 1e-12;
        checks.addOps(1);
        const std::string diff = firstDifference(other, ref);
        checks.expect(diff.empty(),
                      "sampled estimate at width " +
                          std::to_string(opts.checkWidth) +
                          " differs from width " +
                          std::to_string(opts.width) + " in " + diff);
    }

    // The full detailed reference run of the same trace.
    StatGroup stats("gcc1");
    core::SimResult full;
    Cycle stepped = 0;
    double runNs = 0;
    {
        auto root = tracer.span("bench", "reference");
        exec::ProgramTrace trace(compiled.binary, opts.seed, kMaxInsts);
        core::Processor cpu(cfg, trace, stats);
        auto s = tracer.span("core", "Processor::run gcc1");
        const std::uint64_t t0 = nowNs();
        full = cpu.run();
        runNs = static_cast<double>(nowNs() - t0);
        stepped = cpu.steppedCycles();
    }
    if (opts.inject == "retired")
        full.instructions -= 1;
    checks.addOps(1);
    checks.expect(full.completed && full.instructions == ref.totalInsts,
                  "reference run retired " +
                      std::to_string(full.instructions) +
                      " instructions, the sampled pass consumed " +
                      std::to_string(ref.totalInsts));
    if (!opts.trace)
        return;

    // Checkpoint and warming costs, measured from outside: advance a
    // functional warmer to each interval start, save the machine, and
    // restore the snapshot into a fresh one (which must re-save to the
    // same bytes).
    std::vector<double> saveMs, restoreMs, snapKb;
    double warmNs = 0, genNs = 0;
    std::uint64_t warmInsts = 0, genInsts = 0;
    {
        auto root = tracer.span("bench", "probe");
        StatGroup sg("warm");
        exec::ProgramTrace trace(compiled.binary, opts.seed, kMaxInsts);
        core::Processor proc(cfg, trace, sg);
        sample::FunctionalWarmer warmer(proc);
        for (const sample::IntervalResult &iv : last.intervals) {
            {
                auto s = tracer.span("sample", "FunctionalWarmer::advance");
                const std::uint64_t t0 = nowNs();
                warmInsts += warmer.advance(iv.startInst - warmer.consumed());
                warmNs += static_cast<double>(nowNs() - t0);
            }
            proc.memorySystem().settle();
            ckpt::Snapshot snap;
            {
                auto s = tracer.span("ckpt", "Processor::saveState");
                const std::uint64_t t0 = nowNs();
                ckpt::SnapshotBuilder b(proc.configHash());
                proc.saveState(b);
                snap = b.finish();
                saveMs.push_back(static_cast<double>(nowNs() - t0) / 1e6);
            }
            snapKb.push_back(static_cast<double>(snap.payload.size()) /
                             1024.0);
            StatGroup sg2("restore");
            exec::ProgramTrace trace2(compiled.binary, opts.seed, kMaxInsts);
            core::Processor fresh(cfg, trace2, sg2);
            {
                auto s = tracer.span("ckpt", "Processor::loadState");
                const std::uint64_t t0 = nowNs();
                ckpt::SnapshotParser parser(snap, fresh.configHash());
                fresh.loadState(parser);
                restoreMs.push_back(static_cast<double>(nowNs() - t0) /
                                    1e6);
            }
            ckpt::SnapshotBuilder again(fresh.configHash());
            fresh.saveState(again);
            checks.expect(again.finish().payload == snap.payload,
                          "snapshot at instruction " +
                              std::to_string(iv.startInst) +
                              " does not re-save identically after "
                              "restore");
        }
        auto s = tracer.span("exec", "ProgramTrace drain gcc1");
        exec::ProgramTrace live(compiled.binary, opts.seed, kMaxInsts);
        const std::uint64_t t0 = nowNs();
        while (live.next())
            ++genInsts;
        genNs = static_cast<double>(nowNs() - t0);
    }

    // One estimate under the src/prof region profiler.
    tracer.setEnabled(false);
    const ProfShares prof = profiledPass([&] {
        const sample::SampledDriver driver(compiled.binary, cfg, opts.seed,
                                           kMaxInsts);
        const sample::SampleReport rep = driver.run(spec);
        checks.addOps(1);
        checks.expect(firstDifference(rep, ref).empty(),
                      "profiled sampled estimate differs");
    });
    tracer.setEnabled(true);

    const double untracedMedian = median(untracedNs);
    out["workloads.build_ms"] = median(buildNs) / 1e6;
    out["compiler.compile_ms"] = median(compileNs) / 1e6;
    out["compiler.compiles"] = 1;
    out["compiler.partition_cut"] =
        static_cast<double>(compiled.partitionStats.cutWeight);
    out["compiler.partition_balance"] = compiled.partitionStats.balance;
    out["compiler.spill_ops"] =
        static_cast<double>(compiled.alloc.spillLoadsInserted +
                            compiled.alloc.spillStoresInserted);
    out["exec.trace_gen_ns_per_inst"] =
        genNs / static_cast<double>(genInsts);
    out["core.run_ms"] = runNs / 1e6;
    out["core.ns_per_stepped_cycle"] = runNs / static_cast<double>(stepped);
    out["core.stepped_frac"] =
        static_cast<double>(stepped) / static_cast<double>(full.cycles);
    out["core.sim_cycles.gcc1"] = static_cast<double>(full.cycles);
    out["core.retired.gcc1"] = static_cast<double>(full.instructions);
    // Stall attribution of the measured windows (each one conserved).
    obs::CycleStack windows;
    for (const sample::IntervalResult &iv : last.intervals)
        for (std::size_t c = 0; c < obs::kNumStallCauses; ++c)
            windows.slotCycles[c] += iv.stack.slotCycles[c];
    const double slots = static_cast<double>(windows.totalSlotCycles());
    for (std::size_t c = 0; c < obs::kNumStallCauses; ++c)
        out[std::string("core.stall.") +
            obs::stallCauseName(static_cast<obs::StallCause>(c)) +
            "_frac"] = static_cast<double>(windows.slotCycles[c]) / slots;
    auto rate = [&](const char *num, const char *den) {
        const double d = static_cast<double>(stats.counterAt(den).value());
        return d > 0 ? static_cast<double>(stats.counterAt(num).value()) / d
                     : 0.0;
    };
    out["mem.l1d_miss_rate"] = rate("dcache.misses", "dcache.accesses");
    out["mem.l1i_miss_rate"] = rate("icache.misses", "icache.accesses");
    out["mem.accesses_per_inst"] =
        static_cast<double>(stats.counterAt("dcache.accesses").value() +
                            stats.counterAt("icache.accesses").value()) /
        static_cast<double>(full.instructions);
    out["bpred.accuracy"] = 1.0 - rate("bpred.mispredicts", "bpred.lookups");

    out["ckpt.save_ms"] = median(saveMs);
    out["ckpt.restore_ms"] = median(restoreMs);
    out["ckpt.snapshot_kb"] = median(snapKb);
    out["sample.warm_ns_per_inst"] =
        warmNs / static_cast<double>(warmInsts);
    std::vector<double> windowMs;
    for (const sample::IntervalResult &iv : last.intervals)
        windowMs.push_back(static_cast<double>(iv.hostNs) / 1e6);
    out["sample.window_ms"] = median(windowMs);
    out["sample.intervals"] = static_cast<double>(last.intervals.size());
    out["sample.detailed_insts"] = static_cast<double>(last.detailedInsts);
    out["sample.cpi_ci95"] = last.cpiCi95;
    out["sample.wall_s"] = untracedMedian / 1e9;
    const double cpiFull = static_cast<double>(full.cycles) /
                           static_cast<double>(full.instructions);
    out["sample.cpi_err_pct"] =
        100.0 * std::fabs(last.cpiMean - cpiFull) / cpiFull;

    double busyNs = 0;
    for (const taskgraph::TaskSpan &ts : last.taskSpans)
        busyNs += static_cast<double>(ts.endNs - ts.startNs);
    out["taskgraph.critical_path_ms"] = last.execCriticalPathMs;
    out["taskgraph.max_queue_depth"] =
        static_cast<double>(last.execMaxQueueDepth);
    out["taskgraph.busy_frac"] =
        busyNs / (tracedNs.back() * static_cast<double>(spec.jobs));
    out["trace.overhead_frac"] =
        (median(tracedNs) - untracedMedian) / untracedMedian;
    reportProfShares(prof, untracedMedian, out);
    reportSelfTimes(tracer, out);
}

} // namespace mcabench
