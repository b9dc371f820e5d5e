/**
 * @file
 * The two detailed-simulation workloads.
 *
 *  - issue-bound: gcc1, tomcatv, su2cor and a seeded random program on
 *    dual8 (local scheduler, event engine). Each dynamic stream is
 *    captured once during set-up with exec::writeTrace and replayed
 *    through exec::FileTrace — the paper's trace-driven method. High
 *    IPC and L1-resident, so host time sits in Processor::step: an
 *    issue-path or trace-reader change shows here.
 *  - memory-bound-octa8: compress, ora and doduc on octa8 (multilevel
 *    partitioner) with a 256 KB shared L2, 100-cycle memory and a
 *    16 KB L1D smaller than the working set, fed by a live
 *    exec::ProgramTrace. Misses and idle skip instead of saturated
 *    issue, so an issue-path gain should shrink here, and the 8-way
 *    partition cut drives IPC.
 */

#include "bench.hh"

#include <iostream>
#include <memory>
#include <stdexcept>

#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "exec/trace_io.hh"
#include "obs/cycle_stack.hh"
#include "support/stats.hh"
#include "workloads/workloads.hh"

namespace mcabench
{

namespace
{

using namespace mca;

struct ProgramDef
{
    std::string name;
    std::function<prog::Program(std::uint64_t seed)> make;
};

struct DetailedWorkload
{
    core::ProcessorConfig machine;
    std::string scheduler;
    /** Replay a captured trace file (true) or a live ProgramTrace. */
    bool fileTrace = false;
    /** Dynamic-instruction cap per program (equal work per seed). */
    std::uint64_t maxInsts = 0;
    /** Simulated cycles per timed slice of Processor::run (see
     *  SliceTimes); sized so a slice takes a few host milliseconds. */
    Cycle sliceCycles = 0;
    std::vector<ProgramDef> programs;
};

/** A built, compiled (and, for file traces, captured) program. */
struct Prepared
{
    std::string name;
    compiler::CompileOutput compiled;
    std::string tracePath;
    /** Records writeTrace wrote (file traces only). */
    std::uint64_t traceInsts = 0;
};

/** Host times of one set-up. */
struct SetupTimes
{
    double totalNs = 0, buildNs = 0, compileNs = 0, writeNs = 0;
    /** Per program: build, compile and (file traces) capture ns. */
    std::vector<std::vector<double>> pieceNs;
};

/** Outcome of one detailed run. */
struct RunOut
{
    Cycle cycles = 0;
    Cycle stepped = 0;
    std::uint64_t retired = 0;
    bool completed = false;
    /** Trace open + machine construction + run(). */
    std::uint64_t ns = 0;
    /** Processor::run() alone. */
    std::uint64_t runNs = 0;
    /** Host ns of each piece of the run, when timed in slices: trace
     *  open and machine construction, then one entry per run slice. */
    std::vector<double> pieceNs;
    // Counters for the mem and bpred rows.
    std::uint64_t dacc = 0, dmiss = 0, iacc = 0, imiss = 0;
    std::uint64_t l2acc = 0, l2miss = 0;
    std::uint64_t bpLookups = 0, bpMiss = 0;
};

/**
 * A random program in bench/micro_perf's random7 shape, generated from
 * the seed. Programs of this shape run anywhere from a hundred to about
 * a million dynamic instructions, so take the first one in the seed's
 * sequence whose profiling walk passes twice the cap: every seed then
 * simulates the same number of instructions.
 */
prog::Program
randomProgram(std::uint64_t seed, std::uint64_t cap)
{
    constexpr std::uint64_t kSalt = 0x7a2d;
    workloads::RandomProgramParams rp;
    rp.numFunctions = 4;
    rp.segmentsPerFunction = 16;
    rp.loopTrip = 2000;
    for (std::uint64_t k = 0; k < 1000; ++k) {
        rp.seed = exec::hashSeed(seed, kSalt, k);
        prog::Program program = workloads::makeRandomProgram(rp);
        if (!exec::profileProgram(program, seed, 2 * cap).completed)
            return program;
    }
    throw std::runtime_error("no random program reaches the instruction "
                             "cap");
}

DetailedWorkload
issueBound()
{
    DetailedWorkload w;
    w.machine = core::ProcessorConfig::dualCluster8();
    w.scheduler = "local";
    w.fileTrace = true;
    w.maxInsts = 250'000;
    w.sliceCycles = 4096;
    const workloads::WorkloadParams wp{3.0};
    w.programs = {
        {"gcc1", [wp](std::uint64_t) { return workloads::makeGcc1(wp); }},
        {"tomcatv",
         [wp](std::uint64_t) { return workloads::makeTomcatv(wp); }},
        {"su2cor",
         [wp](std::uint64_t) { return workloads::makeSu2cor(wp); }},
        {"random",
         [cap = w.maxInsts](std::uint64_t seed) {
             return randomProgram(seed, cap);
         }},
    };
    return w;
}

DetailedWorkload
memoryBound()
{
    DetailedWorkload w;
    w.machine = core::ProcessorConfig::multiCluster8(8);
    w.machine.memory.l2SizeBytes = 256 * 1024;
    w.machine.memory.memLatency = 100;
    w.machine.memory.dcache.sizeBytes = 16 * 1024;
    w.machine.validate();
    w.scheduler = "multilevel";
    w.fileTrace = false;
    w.maxInsts = 150'000;
    w.sliceCycles = 16384;
    const workloads::WorkloadParams wp{2.0};
    w.programs = {
        {"compress",
         [wp](std::uint64_t) { return workloads::makeCompress(wp); }},
        {"ora", [wp](std::uint64_t) { return workloads::makeOra(wp); }},
        {"doduc", [wp](std::uint64_t) { return workloads::makeDoduc(wp); }},
    };
    return w;
}

std::vector<Prepared>
setup(const DetailedWorkload &w, const Options &opts, Tracer &tracer,
      SetupTimes &times)
{
    auto root = tracer.span("bench", "setup");
    const std::uint64_t t0 = nowNs();
    std::vector<Prepared> out;
    for (const ProgramDef &def : w.programs) {
        Prepared p;
        p.name = def.name;
        std::vector<double> &pieces = times.pieceNs.emplace_back();
        std::uint64_t a = nowNs();
        prog::Program program = [&] {
            auto s = tracer.span("workloads", "make " + def.name);
            return def.make(opts.seed);
        }();
        std::uint64_t b = nowNs();
        times.buildNs += static_cast<double>(b - a);
        pieces.push_back(static_cast<double>(b - a));
        {
            auto s = tracer.span("compiler", "compile " + def.name);
            compiler::CompileOptions copt = compiler::compileOptionsFor(
                w.scheduler, w.machine.numClusters);
            copt.profileSeed = opts.seed;
            p.compiled = compiler::compile(program, copt);
        }
        a = nowNs();
        times.compileNs += static_cast<double>(a - b);
        pieces.push_back(static_cast<double>(a - b));
        if (w.fileTrace) {
            auto s = tracer.span("exec", "writeTrace " + def.name);
            p.tracePath = opts.workDir + "/" + def.name + ".mct";
            exec::ProgramTrace live(p.compiled.binary, opts.seed,
                                    w.maxInsts);
            p.traceInsts = exec::writeTrace(p.tracePath, live,
                                            p.compiled.alloc.globalRegs,
                                            w.maxInsts);
            pieces.push_back(static_cast<double>(nowNs() - a));
            times.writeNs += pieces.back();
        }
        out.push_back(std::move(p));
    }
    times.totalNs = static_cast<double>(nowNs() - t0);
    return out;
}

/**
 * Simulate one program. With `sliced`, Processor::run advances in
 * steps of w.sliceCycles simulated cycles and each step is timed on
 * its own; the simulated result is the same as one run() call.
 */
RunOut
simulate(const DetailedWorkload &w, const Prepared &p,
         const Options &opts, Tracer &tracer, obs::CycleStack *stack,
         bool sliced = false)
{
    RunOut out;
    const std::uint64_t t0 = nowNs();
    StatGroup stats(p.name);
    core::ProcessorConfig cfg = w.machine;
    std::unique_ptr<exec::TraceSource> trace;
    if (w.fileTrace) {
        auto s = tracer.span("exec", "FileTrace " + p.name);
        auto file = std::make_unique<exec::FileTrace>(p.tracePath);
        cfg.regMap = isa::RegisterMap(cfg.numClusters);
        file->applyGlobals(cfg.regMap);
        trace = std::move(file);
    } else {
        cfg.regMap = p.compiled.hardwareMap(cfg.numClusters);
        trace = std::make_unique<exec::ProgramTrace>(p.compiled.binary,
                                                     opts.seed, w.maxInsts);
    }
    core::Processor cpu(cfg, *trace, stats);
    if (stack)
        cpu.attachCycleStack(stack);
    {
        auto s = tracer.span("core", "Processor::run " + p.name);
        const std::uint64_t r0 = nowNs();
        core::SimResult r;
        if (sliced) {
            out.pieceNs.push_back(static_cast<double>(r0 - t0));
            std::uint64_t a = r0;
            Cycle limit = 0;
            do { // run() stops at the bound or when the trace has drained
                limit = cpu.now() + w.sliceCycles;
                r = cpu.run(limit);
                const std::uint64_t b = nowNs();
                out.pieceNs.push_back(static_cast<double>(b - a));
                a = b;
            } while (r.cycles >= limit);
        } else {
            r = cpu.run();
        }
        out.runNs = nowNs() - r0;
        out.cycles = r.cycles;
        out.retired = r.instructions;
        out.completed = r.completed;
    }
    out.stepped = cpu.steppedCycles();
    out.ns = nowNs() - t0;
    out.dacc = stats.counterAt("dcache.accesses").value();
    out.dmiss = stats.counterAt("dcache.misses").value();
    out.iacc = stats.counterAt("icache.accesses").value();
    out.imiss = stats.counterAt("icache.misses").value();
    if (stats.hasCounter("l2.accesses")) {
        out.l2acc = stats.counterAt("l2.accesses").value();
        out.l2miss = stats.counterAt("l2.misses").value();
    }
    out.bpLookups = stats.counterAt("bpred.lookups").value();
    out.bpMiss = stats.counterAt("bpred.mispredicts").value();
    return out;
}

/** Drain a trace source alone; returns the host ns it took. */
double
drainNs(exec::TraceSource &src, std::uint64_t &insts)
{
    const std::uint64_t t0 = nowNs();
    insts = 0;
    while (src.next())
        ++insts;
    return static_cast<double>(nowNs() - t0);
}

double
ratio(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

void
runDetailed(const DetailedWorkload &w, const Options &opts, Checks &checks,
            Tracer &tracer, Metrics &out)
{
    // Every repetition sets the workload up afresh and then runs it, so
    // set-up and operation are timed under the same host conditions,
    // both in pieces (see SliceTimes). Set-up runs twice back to back
    // and the second is timed: the first brings code and data into the
    // caches, so the figure measures set-up work rather than what the
    // previous operation left there.
    std::vector<double> setupNs, buildNs, compileNs, writeNsPerInst;
    SliceTimes setupSlices;
    std::vector<Prepared> progs;
    auto setupRep = [&] {
        SetupTimes warm;
        setup(w, opts, tracer, warm);
        SetupTimes t;
        progs = setup(w, opts, tracer, t);
        setupSlices.add(t.pieceNs);
        setupNs.push_back(t.totalNs);
        buildNs.push_back(t.buildNs);
        compileNs.push_back(t.compileNs);
        std::uint64_t insts = 0;
        for (const Prepared &p : progs)
            insts += p.traceInsts;
        if (w.fileTrace)
            writeNsPerInst.push_back(t.writeNs / static_cast<double>(insts));
    };
    setupRep();

    // Trace lengths, the reference every run must retire in full: each
    // program's ProgramTrace drained alone. For file traces the capture
    // and the FileTrace must agree with it. The drains also time the
    // exec layer without the core.
    std::vector<std::uint64_t> expect;
    double genNs = 0, readNs = 0;
    std::uint64_t genInsts = 0, readInsts = 0;
    {
        auto root = tracer.span("bench", "probe");
        for (const Prepared &p : progs) {
            std::uint64_t n = 0;
            {
                auto s = tracer.span("exec", "ProgramTrace drain " + p.name);
                exec::ProgramTrace live(p.compiled.binary, opts.seed,
                                        w.maxInsts);
                genNs += drainNs(live, n);
            }
            genInsts += n;
            expect.push_back(n);
            if (!w.fileTrace)
                continue;
            checks.expect(n == p.traceInsts,
                          p.name + ": trace file holds " +
                              std::to_string(p.traceInsts) +
                              " records, program yields " +
                              std::to_string(n));
            auto s = tracer.span("exec", "FileTrace drain " + p.name);
            exec::FileTrace file(p.tracePath);
            std::uint64_t m = 0;
            readNs += drainNs(file, m);
            readInsts += m;
            checks.expect(m == file.count(),
                          p.name + ": FileTrace yielded " +
                              std::to_string(m) + " of " +
                              std::to_string(file.count()) + " records");
        }
    }
    if (opts.inject == "retired")
        expect.front() += 1;

    // The measured loop. Reference counts come from the first run of
    // each program; every later run must reproduce them exactly.
    std::vector<RunOut> ref;
    auto checkRun = [&](std::size_t i, const RunOut &r, const char *pass) {
        const std::string &name = progs[i].name;
        checks.expect(r.completed && r.retired == expect[i],
                      name + " (" + pass + "): retired " +
                          std::to_string(r.retired) + " of " +
                          std::to_string(expect[i]) + " instructions");
        if (ref.size() <= i) {
            ref.push_back(r);
            return;
        }
        checks.expect(r.cycles == ref[i].cycles && r.retired == ref[i].retired,
                      name + " (" + pass + "): " +
                          std::to_string(r.cycles) +
                          " simulated cycles, first run had " +
                          std::to_string(ref[i].cycles));
    };

    struct Rep
    {
        double ns = 0, runNs = 0;
        std::uint64_t cycles = 0, stepped = 0;
        /** RunOut::pieceNs of each program. */
        std::vector<std::vector<double>> pieceNs;
    };
    int repIndex = 0;
    auto runRep = [&](bool traced) {
        tracer.setEnabled(traced);
        if (repIndex > 0) // the first repetition uses the set-up above
            setupRep();
        Rep rep;
        {
            auto root = tracer.span("bench", "op");
            for (std::size_t i = 0; i < progs.size(); ++i) {
                RunOut r =
                    simulate(w, progs[i], opts, tracer, nullptr, true);
                if (opts.inject == "cycles" && repIndex == 1 && i == 0)
                    r.cycles += 1;
                checks.addOps(1);
                checkRun(i, r, traced ? "traced" : "untraced");
                rep.ns += static_cast<double>(r.ns);
                rep.runNs += static_cast<double>(r.runNs);
                rep.cycles += r.cycles;
                rep.stepped += r.stepped;
                rep.pieceNs.push_back(std::move(r.pieceNs));
            }
        }
        ++repIndex;
        tracer.setEnabled(opts.trace);
        return rep;
    };

    std::vector<double> untracedNs, untracedNsPerCycle;
    std::vector<double> tracedNs, runMs, nsPerStepped;
    Rep last;
    if (!opts.trace) {
        SliceTimes opSlices;
        repeatFor(opts.seconds, 3, [&] {
            last = runRep(false);
            untracedNs.push_back(last.ns);
            untracedNsPerCycle.push_back(last.ns /
                                         static_cast<double>(last.cycles));
            opSlices.add(last.pieceNs);
        });
        checks.expect(setupSlices.consistent() && opSlices.consistent(),
                      "piece counts differ between repetitions");
        std::vector<double> ipcs;
        for (const RunOut &r : ref)
            ipcs.push_back(ratio(r.retired, r.cycles));
        printSamples(setupNs, untracedNs, untracedNsPerCycle);
        std::cout << "pieces setup=" << setupSlices.pieces()
                  << " op=" << opSlices.pieces() << "\n";
        out["setup_s"] = setupSlices.fastestTotalNs() / 1e9;
        out["wall_s"] = opSlices.fastestTotalNs() / 1e9;
        out["host_ns_per_cycle"] = opSlices.fastestTotalNs() /
                                   static_cast<double>(last.cycles);
        out["sim_ipc"] = geomean(ipcs);
        out["peak_rss_mb"] = peakRssMb();
        return;
    }

    // Alternate untraced and traced repetitions so both see the same
    // host conditions; the difference is the tracing overhead.
    repeatFor(0.6 * opts.seconds, 2, [&] {
        untracedNs.push_back(runRep(false).ns);
        last = runRep(true);
        tracedNs.push_back(last.ns);
        runMs.push_back(last.runNs / 1e6);
        nsPerStepped.push_back(last.runNs / static_cast<double>(last.stepped));
    });

    // One pass with a cycle stack attached: stall attribution, and the
    // conservation invariant on every program.
    std::vector<obs::CycleStack> stacks(progs.size());
    std::vector<RunOut> observed;
    {
        tracer.setEnabled(true);
        auto root = tracer.span("bench", "observe");
        for (std::size_t i = 0; i < progs.size(); ++i) {
            RunOut r = simulate(w, progs[i], opts, tracer, &stacks[i]);
            checks.addOps(1);
            checkRun(i, r, "observed");
            checks.expect(stacks[i].conserved(),
                          progs[i].name + ": cycle stack not conserved");
            observed.push_back(r);
        }
    }

    // One pass under the src/prof region profiler: per-stage shares.
    tracer.setEnabled(false);
    const ProfShares prof = profiledPass([&] {
        for (std::size_t i = 0; i < progs.size(); ++i) {
            RunOut r = simulate(w, progs[i], opts, tracer, nullptr);
            checks.addOps(1);
            checkRun(i, r, "profiled");
        }
    });
    tracer.setEnabled(true);

    const double untracedMedian = median(untracedNs);
    out["workloads.build_ms"] = median(buildNs) / 1e6;
    out["compiler.compile_ms"] = median(compileNs) / 1e6;
    out["compiler.compiles"] = static_cast<double>(progs.size());
    double cut = 0, balance = 0, spills = 0;
    for (const Prepared &p : progs) {
        cut += static_cast<double>(p.compiled.partitionStats.cutWeight);
        balance += p.compiled.partitionStats.balance;
        spills += static_cast<double>(p.compiled.alloc.spillLoadsInserted +
                                      p.compiled.alloc.spillStoresInserted);
    }
    out["compiler.partition_cut"] = cut;
    out["compiler.partition_balance"] =
        balance / static_cast<double>(progs.size());
    out["compiler.spill_ops"] = spills;
    if (w.fileTrace) {
        out["exec.trace_write_ns_per_inst"] = median(writeNsPerInst);
        out["exec.trace_read_ns_per_inst"] =
            readNs / static_cast<double>(readInsts);
    }
    out["exec.trace_gen_ns_per_inst"] = genNs / static_cast<double>(genInsts);
    out["core.run_ms"] = median(runMs);
    out["core.ns_per_stepped_cycle"] = median(nsPerStepped);

    RunOut sum;
    obs::CycleStack total;
    for (std::size_t i = 0; i < progs.size(); ++i) {
        const RunOut &r = observed[i];
        out["core.sim_cycles." + progs[i].name] =
            static_cast<double>(r.cycles);
        out["core.retired." + progs[i].name] =
            static_cast<double>(r.retired);
        sum.cycles += r.cycles;
        sum.stepped += r.stepped;
        sum.retired += r.retired;
        sum.dacc += r.dacc;
        sum.dmiss += r.dmiss;
        sum.iacc += r.iacc;
        sum.imiss += r.imiss;
        sum.l2acc += r.l2acc;
        sum.l2miss += r.l2miss;
        sum.bpLookups += r.bpLookups;
        sum.bpMiss += r.bpMiss;
        for (std::size_t c = 0; c < obs::kNumStallCauses; ++c)
            total.slotCycles[c] += stacks[i].slotCycles[c];
    }
    out["core.stepped_frac"] = ratio(sum.stepped, sum.cycles);
    const std::uint64_t slots = total.totalSlotCycles();
    for (std::size_t c = 0; c < obs::kNumStallCauses; ++c)
        out[std::string("core.stall.") +
            obs::stallCauseName(static_cast<obs::StallCause>(c)) +
            "_frac"] = ratio(total.slotCycles[c], slots);
    out["mem.l1d_miss_rate"] = ratio(sum.dmiss, sum.dacc);
    out["mem.l1i_miss_rate"] = ratio(sum.imiss, sum.iacc);
    out["mem.l2_miss_rate"] = ratio(sum.l2miss, sum.l2acc);
    out["mem.accesses_per_inst"] =
        ratio(sum.dacc + sum.iacc + sum.l2acc, sum.retired);
    out["bpred.accuracy"] = 1.0 - ratio(sum.bpMiss, sum.bpLookups);
    out["trace.overhead_frac"] =
        (median(tracedNs) - untracedMedian) / untracedMedian;
    reportProfShares(prof, untracedMedian, out);
    reportSelfTimes(tracer, out);
}

} // namespace

void
runIssueBound(const Options &opts, Checks &checks, Tracer &tracer,
              Metrics &out)
{
    runDetailed(issueBound(), opts, checks, tracer, out);
}

void
runMemoryBound(const Options &opts, Checks &checks, Tracer &tracer,
               Metrics &out)
{
    runDetailed(memoryBound(), opts, checks, tracer, out);
}

} // namespace mcabench
