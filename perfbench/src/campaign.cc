/**
 * @file
 * The table2-campaign workload: runner::runTable2Campaign into an empty
 * ArtifactStore (cold: 18 jobs, 12 compiles, 18 artifacts written) and
 * again on the same store (warm: every result a hit, reads only). It is
 * the only workload whose host time sits in compiles with their
 * profiling runs, task-graph scheduling, and artifact writes and reads;
 * cold next to warm separates the writes from the reads. Its rows are
 * the repository's only reference result (the paper's Table 2).
 */

#include "bench.hh"

#include <array>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <set>

#include "compiler/pipeline.hh"
#include "harness/experiment.hh"
#include "runner/table2.hh"
#include "workloads/workloads.hh"

namespace mcabench
{

namespace
{

using namespace mca;

/**
 * First field (other than wallMs and fromCache) in which two results of
 * the same job differ, or "" when they are equal.
 */
std::string
firstDifference(const runner::JobResult &a, const runner::JobResult &b)
{
    if (a.spec.canonicalKey() != b.spec.canonicalKey())
        return "spec";
    if (a.status != b.status)
        return "status";
    if (a.error != b.error)
        return "error";
#define MCABENCH_FIELD(f)                                                  \
    if (!(a.f == b.f))                                                     \
        return #f;
    MCABENCH_FIELD(cycles)
    MCABENCH_FIELD(retired)
    MCABENCH_FIELD(ipc)
    MCABENCH_FIELD(distSingle)
    MCABENCH_FIELD(distDual)
    MCABENCH_FIELD(operandForwards)
    MCABENCH_FIELD(resultForwards)
    MCABENCH_FIELD(replays)
    MCABENCH_FIELD(issueDisorder)
    MCABENCH_FIELD(bpredAccuracy)
    MCABENCH_FIELD(dcacheMissRate)
    MCABENCH_FIELD(icacheMissRate)
    MCABENCH_FIELD(l2MissRate)
    MCABENCH_FIELD(spillLoads)
    MCABENCH_FIELD(spillStores)
    MCABENCH_FIELD(otherClusterSpills)
    MCABENCH_FIELD(partitionCut)
    MCABENCH_FIELD(partitionBalance)
    MCABENCH_FIELD(stackSlotCycles)
    MCABENCH_FIELD(stackSlots)
    MCABENCH_FIELD(sampled)
    MCABENCH_FIELD(sampledIntervals)
    MCABENCH_FIELD(cpiCi95)
#undef MCABENCH_FIELD
    return "";
}

/** Mean absolute gap to the paper's Table 2, in percentage points. */
double
table2ErrorPts(const std::vector<harness::Table2Row> &rows)
{
    double sum = 0.0;
    int n = 0;
    for (const harness::Table2Row &row : rows)
        for (const harness::PaperTable2Entry &paper : harness::paperTable2())
            if (row.benchmark == paper.benchmark) {
                sum += std::fabs(row.pctNone - paper.pctNone) +
                       std::fabs(row.pctLocal - paper.pctLocal);
                n += 2;
            }
    return n ? sum / n : 0.0;
}

struct Rep
{
    double coldNs = 0, warmNs = 0;
    runner::Table2CampaignResult cold, warm;
    /** The cold campaign in pieces: host ns from one settled job to
     *  the next (the first from the call, the last to the return). */
    std::vector<double> pieceNs;
    /** Canonical keys of the cold jobs in the order they settled. */
    std::vector<std::string> settleOrder;
};

} // namespace

void
runTable2Campaign(const Options &opts, Checks &checks, Tracer &tracer,
                  Metrics &out)
{
    harness::ExperimentOptions eo;
    eo.traceSeed = opts.seed;

    // Set-up: the job list, each spec validated with its machine (what
    // mcarun does before any job runs), and every workload built once.
    // Every repetition sets up afresh and then runs the campaign, so both
    // are timed under the same host conditions. Set-up runs twice back
    // to back and the second is timed (see detailed.cc).
    std::vector<double> setupNs, buildNs;
    SliceTimes setupSlices;
    std::vector<runner::JobSpec> specs;
    auto setupOnce = [&] {
        auto root = tracer.span("bench", "setup");
        const std::uint64_t t0 = nowNs();
        {
            auto s = tracer.span("runner", "table2Jobs");
            specs = runner::table2Jobs(eo);
            for (const runner::JobSpec &spec : specs) {
                spec.validate();
                runner::machineConfigFor(spec);
            }
        }
        const std::uint64_t t1 = nowNs();
        for (const auto &bench : workloads::allBenchmarks()) {
            auto s = tracer.span("workloads", "make " + bench.name);
            const prog::Program program = bench.make(eo.workload);
            checks.expect(program.staticInstCount() > 0,
                          bench.name + ": empty workload program");
        }
        const std::uint64_t t2 = nowNs();
        return std::make_pair(static_cast<double>(t2 - t0),
                              static_cast<double>(t2 - t1));
    };
    auto setupRep = [&] {
        setupOnce();
        const auto [total, build] = setupOnce();
        setupSlices.add({{total - build, build}});
        setupNs.push_back(total);
        buildNs.push_back(build);
    };
    setupRep();

    const std::string storeDir = opts.workDir + "/store";
    runner::CampaignOptions co;
    co.jobs = opts.width;
    co.cacheDir = storeDir;
    // At width 1 the jobs settle one after another in a fixed order, so
    // the time between two settles is the same work in every repetition
    // and can be timed as a piece (see SliceTimes).
    Rep *current = nullptr;
    std::uint64_t mark = 0;
    co.onResult = [&](std::size_t, std::size_t,
                      const runner::JobResult &r) {
        if (!current)
            return;
        const std::uint64_t now = nowNs();
        current->pieceNs.push_back(static_cast<double>(now - mark));
        current->settleOrder.push_back(r.spec.canonicalKey());
        mark = now;
    };

    std::vector<runner::JobResult> ref;
    std::vector<std::string> refOrder;
    int repIndex = 0;
    auto runRep = [&](bool traced) {
        tracer.setEnabled(traced);
        if (repIndex > 0) // the first repetition uses the set-up above
            setupRep();
        Rep rep;
        std::filesystem::remove_all(storeDir);
        {
            auto root = tracer.span("bench", "op");
            current = &rep;
            std::uint64_t t0 = nowNs();
            mark = t0;
            {
                auto s = tracer.span("runner", "runTable2Campaign cold");
                rep.cold = runner::runTable2Campaign(eo, co);
            }
            std::uint64_t t1 = nowNs();
            current = nullptr;
            rep.pieceNs.push_back(static_cast<double>(t1 - mark));
            {
                auto s = tracer.span("runner", "runTable2Campaign warm");
                rep.warm = runner::runTable2Campaign(eo, co);
            }
            rep.coldNs = static_cast<double>(t1 - t0);
            rep.warmNs = static_cast<double>(nowNs() - t1);
        }
        std::filesystem::remove_all(storeDir);
        tracer.setEnabled(opts.trace);

        auto &cold = rep.cold.jobs;
        auto &warm = rep.warm.jobs;
        if (opts.inject == "cycles" && repIndex == 1)
            cold.front().cycles += 1;
        if (opts.inject == "warm")
            warm.back().ipc += 1e-9;
        if (opts.inject == "retired")
            cold.front().retired -= 1;
        ++repIndex;

        checks.addOps(cold.size() + warm.size());
        checks.expect(cold.size() == 18 && warm.size() == 18,
                      "campaign ran " + std::to_string(cold.size()) +
                          " cold and " + std::to_string(warm.size()) +
                          " warm jobs, expected 18");
        checks.expect(rep.cold.summary.compiles == 12 &&
                          rep.cold.summary.compileHits == 6,
                      "cold campaign: " +
                          std::to_string(rep.cold.summary.compiles) +
                          " compiles (" +
                          std::to_string(rep.cold.summary.compileHits) +
                          " shared), expected 12 (6 shared)");
        checks.expect(rep.warm.summary.fromCache == warm.size(),
                      "warm campaign: " +
                          std::to_string(rep.warm.summary.fromCache) +
                          " results from the store, expected all");
        for (std::size_t i = 0; i < cold.size() && i < warm.size(); ++i) {
            const runner::JobResult &c = cold[i];
            const std::string name = c.spec.benchmark + "/" +
                                     c.spec.machine + "/" + c.spec.scheduler;
            // Ok means the job retired its full trace; a native binary
            // retires the same trace on both machines.
            checks.expect(c.status == runner::JobStatus::Ok && c.retired > 0,
                          name + ": status " +
                              runner::jobStatusName(c.status) + ", retired " +
                              std::to_string(c.retired));
            if (i % 3 == 1)
                checks.expect(c.retired == cold[i - 1].retired,
                              name + ": retired " +
                                  std::to_string(c.retired) +
                                  " instructions, single8 retired " +
                                  std::to_string(cold[i - 1].retired));
            const std::string diff = firstDifference(c, warm[i]);
            checks.expect(diff.empty(), name + ": warm result differs from "
                                               "cold in field " + diff);
            if (ref.size() == cold.size())
                checks.expect(c.cycles == ref[i].cycles,
                              name + ": " + std::to_string(c.cycles) +
                                  " simulated cycles, first run had " +
                                  std::to_string(ref[i].cycles));
        }
        if (ref.empty()) {
            ref = cold;
            refOrder = rep.settleOrder;
        }
        checks.expect(rep.settleOrder == refOrder,
                      "cold campaign jobs settled in a different order "
                      "than in the first repetition");
        return rep;
    };

    std::vector<double> coldNs, warmNs, nsPerCycle, tracedColdNs, jobMs;
    std::vector<double> criticalMs, queueDepth;
    Rep last;
    auto record = [&](const Rep &rep) {
        coldNs.push_back(rep.coldNs);
        warmNs.push_back(rep.warmNs);
        std::uint64_t cycles = 0;
        for (const auto &j : rep.cold.jobs)
            cycles += j.cycles;
        nsPerCycle.push_back(rep.coldNs / static_cast<double>(cycles));
    };
    if (!opts.trace) {
        SliceTimes coldSlices;
        repeatFor(opts.seconds, 3, [&] {
            last = runRep(false);
            record(last);
            coldSlices.add({last.pieceNs});
        });
        checks.expect(setupSlices.consistent() && coldSlices.consistent(),
                      "piece counts differ between repetitions");
        std::vector<double> ipcs;
        std::uint64_t cycles = 0;
        for (const auto &j : last.cold.jobs) {
            ipcs.push_back(j.ipc);
            cycles += j.cycles;
        }
        printSamples(setupNs, coldNs, nsPerCycle);
        std::cout << "pieces op=" << coldSlices.pieces() << "\n";
        out["setup_s"] = setupSlices.fastestTotalNs() / 1e9;
        out["wall_s"] = coldSlices.fastestTotalNs() / 1e9;
        out["host_ns_per_cycle"] =
            coldSlices.fastestTotalNs() / static_cast<double>(cycles);
        out["sim_ipc"] = geomean(ipcs);
        out["peak_rss_mb"] = peakRssMb();
        return;
    }

    repeatFor(0.6 * opts.seconds, 2, [&] {
        record(runRep(false));
        last = runRep(true);
        tracedColdNs.push_back(last.coldNs);
        criticalMs.push_back(last.cold.summary.criticalPathMs);
        queueDepth.push_back(
            static_cast<double>(last.cold.summary.maxQueueDepth));
        for (const auto &j : last.cold.jobs)
            jobMs.push_back(j.wallMs);
    });

    // The campaign's compiles, repeated from outside: one per distinct
    // (benchmark, compile options) pair, exactly as the store keys them.
    double compileNs = 0, cut = 0, balance = 0, spills = 0;
    int clustered = 0;
    {
        auto root = tracer.span("bench", "probe");
        std::set<std::string> seen;
        for (const runner::JobSpec &spec : specs) {
            const compiler::CompileOptions copt = runner::jobCompileOptions(
                spec, runner::machineConfigFor(spec).numClusters);
            if (!seen.insert(spec.benchmark + "|" + copt.canonicalKey())
                     .second)
                continue;
            const prog::Program program = [&] {
                auto s = tracer.span("workloads", "make " + spec.benchmark);
                workloads::WorkloadParams wp;
                wp.scale = spec.scale;
                return workloads::benchmarkByName(spec.benchmark).make(wp);
            }();
            auto s = tracer.span("compiler", "compile " + spec.benchmark +
                                                 "/" + spec.scheduler);
            const std::uint64_t t0 = nowNs();
            const compiler::CompileOutput c = compiler::compile(program, copt);
            compileNs += static_cast<double>(nowNs() - t0);
            cut += static_cast<double>(c.partitionStats.cutWeight);
            spills += static_cast<double>(c.alloc.spillLoadsInserted +
                                          c.alloc.spillStoresInserted);
            if (copt.scheduler != compiler::SchedulerKind::Native) {
                balance += c.partitionStats.balance;
                ++clustered;
            }
        }
    }

    // One cold campaign under the src/prof region profiler.
    tracer.setEnabled(false);
    std::filesystem::remove_all(storeDir);
    runner::Table2CampaignResult profiled;
    const ProfShares prof = profiledPass(
        [&] { profiled = runner::runTable2Campaign(eo, co); });
    std::filesystem::remove_all(storeDir);
    tracer.setEnabled(true);
    checks.addOps(profiled.jobs.size());
    for (std::size_t i = 0; i < profiled.jobs.size() && i < ref.size(); ++i)
        checks.expect(firstDifference(profiled.jobs[i], ref[i]).empty(),
                      "profiled campaign job " + std::to_string(i) +
                          " differs from the untraced run");

    const double untracedMedian = median(coldNs);
    out["workloads.build_ms"] = median(buildNs) / 1e6;
    out["compiler.compile_ms"] = compileNs / 1e6;
    out["compiler.compiles"] =
        static_cast<double>(last.cold.summary.compiles);
    out["compiler.partition_cut"] = cut;
    out["compiler.partition_balance"] = clustered ? balance / clustered : 0;
    out["compiler.spill_ops"] = spills;

    std::array<std::uint64_t, obs::kNumStallCauses> slots{};
    double dmiss = 0, imiss = 0, bpred = 0;
    for (const runner::JobResult &j : last.cold.jobs) {
        out["core.sim_cycles." + j.spec.benchmark] +=
            static_cast<double>(j.cycles);
        out["core.retired." + j.spec.benchmark] +=
            static_cast<double>(j.retired);
        for (std::size_t c = 0; c < obs::kNumStallCauses; ++c)
            slots[c] += j.stackSlotCycles[c];
        dmiss += j.dcacheMissRate;
        imiss += j.icacheMissRate;
        bpred += j.bpredAccuracy;
    }
    std::uint64_t allSlots = 0;
    for (auto v : slots)
        allSlots += v;
    for (std::size_t c = 0; c < obs::kNumStallCauses; ++c)
        out[std::string("core.stall.") +
            obs::stallCauseName(static_cast<obs::StallCause>(c)) +
            "_frac"] = allSlots ? static_cast<double>(slots[c]) /
                                      static_cast<double>(allSlots)
                                : 0.0;
    const double jobs = static_cast<double>(last.cold.jobs.size());
    out["mem.l1d_miss_rate"] = dmiss / jobs;
    out["mem.l1i_miss_rate"] = imiss / jobs;
    out["bpred.accuracy"] = bpred / jobs;

    double taskNs = 0;
    for (const auto &[region, ns] : prof.totalNsByRegion)
        if (region.rfind("taskgraph.", 0) == 0)
            taskNs += static_cast<double>(ns);
    out["taskgraph.critical_path_ms"] = median(criticalMs);
    out["taskgraph.max_queue_depth"] = median(queueDepth);
    out["taskgraph.busy_frac"] = taskNs / (prof.wallNs * co.jobs);
    out["runner.job_ms"] = median(jobMs);
    out["runner.compile_hits"] =
        static_cast<double>(last.cold.summary.compileHits);
    out["runner.result_hits"] =
        static_cast<double>(last.warm.summary.fromCache);
    out["runner.campaign_cold_s"] = untracedMedian / 1e9;
    out["runner.campaign_warm_s"] = median(warmNs) / 1e9;
    out["harness.table2_err_pts"] = table2ErrorPts(last.cold.rows);
    out["trace.overhead_frac"] =
        (median(tracedColdNs) - untracedMedian) / untracedMedian;
    reportProfShares(prof, untracedMedian, out);
    reportSelfTimes(tracer, out);
}

} // namespace mcabench
