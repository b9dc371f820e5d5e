#include "runner/jobspec.hh"

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "compiler/pipeline.hh"
#include "core/config.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "prof/prof.hh"
#include "runner/artifact_store.hh"
#include "sample/driver.hh"
#include "sample/spec.hh"
#include "support/flags.hh"
#include "support/json.hh"
#include "support/panic.hh"
#include "support/stats.hh"
#include "workloads/workloads.hh"

namespace mca::runner
{

namespace
{

/**
 * Sampled job: one functional warming pass + K detailed intervals
 * instead of a full detailed run. The campaign already parallelizes
 * across jobs, so the driver runs its intervals serially (no nested
 * pools).
 */
JobResult
simulateSampled(const prog::MachProgram &binary, const isa::RegisterMap &map,
                core::ProcessorConfig cfg, const JobSpec &spec)
{
    cfg.regMap = map;
    sample::SampleSpec sspec;
    sspec.mode = sample::SampleSpec::Mode::Systematic;
    sspec.period = spec.samplePeriod;
    sspec.detail = spec.sampleDetail;
    sspec.warmup = spec.sampleWarmup;
    sspec.jobs = 1;
    sample::SampledDriver driver(binary, cfg, spec.traceSeed,
                                 spec.maxInsts);
    sample::SampleReport rep;
    {
        PROF_SCOPE("runner.sample");
        rep = driver.run(sspec);
    }
    if (!rep.allConserved)
        throw std::runtime_error(
            "sampled interval violated cycle-stack conservation");
    JobResult out;
    out.sampled = true;
    out.sampledIntervals = rep.intervals.size();
    out.cpiCi95 = rep.cpiCi95;
    out.retired = rep.totalInsts;
    out.cycles = static_cast<Cycle>(rep.estTotalCycles + 0.5);
    out.ipc = rep.cpiMean > 0.0 ? 1.0 / rep.cpiMean : 0.0;
    // Stall attribution summed over the measured windows; each interval
    // conserves, so the sum does too.
    if (!rep.intervals.empty())
        out.stackSlots = rep.intervals.front().stack.slots;
    for (const auto &iv : rep.intervals)
        for (std::size_t i = 0; i < obs::kNumStallCauses; ++i)
            out.stackSlotCycles[i] += iv.stack.slotCycles[i];
    out.status = JobStatus::Ok;
    return out;
}

} // namespace

core::ProcessorConfig
machineConfigFor(const JobSpec &spec)
{
    core::ProcessorConfig cfg;
    if (spec.machine == "single8")
        cfg = core::ProcessorConfig::singleCluster8();
    else if (spec.machine == "dual8")
        cfg = core::ProcessorConfig::dualCluster8();
    else if (spec.machine == "single4")
        cfg = core::ProcessorConfig::singleCluster4();
    else if (spec.machine == "dual4")
        cfg = core::ProcessorConfig::dualCluster4();
    else if (spec.machine == "quad8")
        cfg = core::ProcessorConfig::multiCluster8(4);
    else if (spec.machine == "octa8")
        cfg = core::ProcessorConfig::multiCluster8(8);
    else
        throw std::runtime_error("unknown machine '" + spec.machine + "'");
    return machineConfigFor(spec, std::move(cfg));
}

core::ProcessorConfig
machineConfigFor(const JobSpec &spec, core::ProcessorConfig cfg)
{
    if (!spec.predictor.empty()) {
        using Kind = core::ProcessorConfig::PredictorKind;
        if (spec.predictor == "mcfarling")
            cfg.predictor = Kind::McFarling;
        else if (spec.predictor == "gshare")
            cfg.predictor = Kind::Gshare;
        else if (spec.predictor == "bimodal")
            cfg.predictor = Kind::Bimodal;
        else if (spec.predictor == "taken")
            cfg.predictor = Kind::StaticTaken;
        else if (spec.predictor == "nottaken")
            cfg.predictor = Kind::StaticNotTaken;
        else
            throw std::runtime_error("unknown predictor '" +
                                     spec.predictor + "'");
    }

    cfg.memory.l2SizeBytes = static_cast<std::uint64_t>(spec.l2Kb) * 1024;
    cfg.memory.l2HitLatency = spec.l2Lat;
    cfg.memory.memLatency = spec.memLat;
    cfg.memory.icache.fillPorts = spec.fillPorts;
    cfg.memory.dcache.fillPorts = spec.fillPorts;
    cfg.memory.l2FillPorts = spec.fillPorts;
    cfg.memory.memPorts = spec.fillPorts;
    cfg.validate();
    return cfg;
}

compiler::CompileOptions
jobCompileOptions(const JobSpec &spec, unsigned machine_clusters)
{
    compiler::CompileOptions copt =
        compiler::compileOptionsFor(spec.scheduler, machine_clusters);
    copt.imbalanceThreshold = spec.threshold;
    copt.unrollFactor = spec.unroll;
    copt.profileSeed = spec.profileSeed;
    return copt;
}

std::string
JobSpec::canonicalKey() const
{
    std::ostringstream oss;
    oss << "benchmark=" << benchmark
        << ";scale=" << canonicalDouble(scale)
        << ";machine=" << machine
        << ";scheduler=" << scheduler
        << ";threshold=" << threshold
        << ";unroll=" << unroll
        << ";predictor=" << predictor
        << ";traceSeed=" << traceSeed
        << ";profileSeed=" << profileSeed
        << ";maxInsts=" << maxInsts
        << ";maxCycles=" << maxCycles
        << ";l2Kb=" << l2Kb
        << ";l2Lat=" << l2Lat
        << ";memLat=" << memLat
        << ";fillPorts=" << fillPorts
        << ";samplePeriod=" << samplePeriod
        << ";sampleDetail=" << sampleDetail
        << ";sampleWarmup=" << sampleWarmup;
    return oss.str();
}

std::string
JobSpec::contentHash() const
{
    // FNV-1a, 64-bit: stable across platforms and runs (unlike
    // std::hash, which the standard leaves unspecified).
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : canonicalKey()) {
        h ^= c;
        h *= 1099511628211ull;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
JobSpec::validate() const
{
    checkChoice(benchmark, validBenchmarks(), "benchmark");
    checkChoice(machine, validMachines(), "machine");
    checkChoice(scheduler, validSchedulers(), "scheduler");
    if (!predictor.empty())
        checkChoice(predictor, validPredictors(), "predictor");
    // The workload generators cast scale x trip count to an unsigned
    // integer, which is undefined outside this range.
    if (!(scale >= 0.0 && scale <= 1e6))
        throw std::runtime_error("scale must be in [0, 1e6], got " +
                                 canonicalDouble(scale));
    if (maxInsts == 0)
        throw std::runtime_error("maxInsts must be positive");
    if (maxCycles == 0)
        throw std::runtime_error("maxCycles must be positive");
    if (samplePeriod > 0) {
        sample::SampleSpec sspec;
        sspec.period = samplePeriod;
        sspec.detail = sampleDetail;
        sspec.warmup = sampleWarmup;
        sspec.validate(); // overlap / zero-detail checks, same messages
    }
}

const char *
jobStatusName(JobStatus status)
{
    switch (status) {
    case JobStatus::Ok: return "ok";
    case JobStatus::TimedOut: return "timeout";
    case JobStatus::Failed: return "failed";
    }
    return "unknown";
}

JobResult
simulate(const prog::MachProgram &binary, const isa::RegisterMap &map,
         core::ProcessorConfig cfg, std::uint64_t trace_seed,
         std::uint64_t max_insts, Cycle max_cycles, StatGroup *stats)
{
    cfg.regMap = map;
    MCA_ASSERT(map.numClusters() == cfg.numClusters,
               "register map does not match machine cluster count");

    StatGroup own(binary.name);
    StatGroup &sg = stats ? *stats : own;
    exec::ProgramTrace trace(binary, trace_seed, max_insts);
    core::Processor cpu(cfg, trace, sg);
    obs::CycleStack cstack;
    cpu.attachCycleStack(&cstack);
    const core::SimResult result = cpu.run(max_cycles);
    MCA_ASSERT(cstack.conserved(),
               "cycle-stack conservation violated for ", binary.name);

    const auto rate = [&](const char *misses, const char *accesses) {
        const auto acc = sg.counterAt(accesses).value();
        return acc ? static_cast<double>(sg.counterAt(misses).value()) /
                         static_cast<double>(acc)
                   : 0.0;
    };
    JobResult out;
    out.cycles = result.cycles;
    out.retired = result.instructions;
    out.ipc = sg.formulaAt("sim.ipc");
    out.distSingle = sg.counterAt("dist.single").value();
    out.distDual = sg.counterAt("dist.dual").value();
    out.operandForwards = sg.counterAt("dist.operand_forwards").value();
    out.resultForwards = sg.counterAt("dist.result_forwards").value();
    out.replays = sg.counterAt("replay.exceptions").value();
    out.issueDisorder = sg.counterAt("issue.disorder").value();
    out.bpredAccuracy = sg.formulaAt("bpred.accuracy");
    out.dcacheMissRate = rate("dcache.misses", "dcache.accesses");
    out.icacheMissRate = rate("icache.misses", "icache.accesses");
    if (sg.hasCounter("l2.accesses"))
        out.l2MissRate = rate("l2.misses", "l2.accesses");
    out.stackSlotCycles = cstack.slotCycles;
    out.stackSlots = cstack.slots;
    out.status = result.completed ? JobStatus::Ok : JobStatus::TimedOut;
    if (out.status == JobStatus::TimedOut)
        out.error = "cycle budget exhausted (" +
                    std::to_string(max_cycles) + " cycles)";
    return out;
}

JobResult
requireOk(JobResult result, const std::string &what)
{
    if (result.status != JobStatus::Ok) {
        std::cerr << "fatal: " << what << ": "
                  << jobStatusName(result.status) << " (" << result.error
                  << ")\n";
        std::exit(1);
    }
    return result;
}

JobResult
runJob(const JobSpec &spec, ArtifactStore *store)
{
    JobResult out;
    PROF_SCOPE("runner.job");
    const auto start = std::chrono::steady_clock::now();
    try {
        spec.validate();

        const core::ProcessorConfig cfg = machineConfigFor(spec);
        const compiler::CompileOptions copt =
            jobCompileOptions(spec, cfg.numClusters);
        // Workload construction lives inside the builder so cache hits
        // skip it along with the compile.
        const auto build = [&] {
            PROF_SCOPE("runner.compile");
            workloads::WorkloadParams wp;
            wp.scale = spec.scale;
            const prog::Program program =
                workloads::benchmarkByName(spec.benchmark).make(wp);
            return compiler::compile(program, copt);
        };
        const std::shared_ptr<const compiler::CompileOutput> compiled =
            store ? store->getOrCompile(
                        ArtifactStore::compileKeyFor(spec, copt), build)
                  : std::make_shared<const compiler::CompileOutput>(
                        build());
        const isa::RegisterMap map =
            compiled->hardwareMap(cfg.numClusters);

        if (spec.samplePeriod > 0) {
            out = simulateSampled(compiled->binary, map, cfg, spec);
        } else {
            PROF_SCOPE("runner.simulate");
            out = simulate(compiled->binary, map, cfg, spec.traceSeed,
                           spec.maxInsts, spec.maxCycles);
        }
        out.spillLoads = compiled->alloc.spillLoadsInserted;
        out.spillStores = compiled->alloc.spillStoresInserted;
        out.otherClusterSpills = compiled->alloc.otherClusterSpills;
        out.partitionCut = compiled->partitionStats.cutWeight;
        out.partitionBalance = compiled->partitionStats.balance;
    } catch (const std::exception &e) {
        out.status = JobStatus::Failed;
        out.error = e.what();
    }
    out.spec = spec;
    out.wallMs = std::chrono::duration<double, std::milli>(
                     std::chrono::steady_clock::now() - start)
                     .count();
    return out;
}

const std::vector<std::string> &
validMachines()
{
    static const std::vector<std::string> kMachines = {
        "single8", "dual8", "single4", "dual4", "quad8", "octa8",
    };
    return kMachines;
}

const std::vector<std::string> &
validSchedulers()
{
    static const std::vector<std::string> kSchedulers = {
        "native", "local", "roundrobin", "multilevel",
    };
    return kSchedulers;
}

const std::vector<std::string> &
validPredictors()
{
    static const std::vector<std::string> kPredictors = {
        "mcfarling", "gshare", "bimodal", "taken", "nottaken",
    };
    return kPredictors;
}

const std::vector<std::string> &
validBenchmarks()
{
    static const std::vector<std::string> kBenchmarks = [] {
        std::vector<std::string> names;
        for (const auto &bench : workloads::allBenchmarks())
            names.push_back(bench.name);
        return names;
    }();
    return kBenchmarks;
}

} // namespace mca::runner
