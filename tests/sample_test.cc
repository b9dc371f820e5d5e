/**
 * @file
 * Sampled-simulation tests (src/sample).
 *
 * The contracts under test:
 *  - the spec grammar round-trips and rejects infeasible plans;
 *  - sampled CPI tracks the full detailed run's CPI closely;
 *  - a sampled run is deterministic, and parallel measurement
 *    (jobs > 1) is bit-identical to serial (jobs = 1);
 *  - every measured interval's cycle stack conserves retire slots;
 *  - periodic mode starts intervals exactly where asked;
 *  - functional warming trains the branch predictor on every
 *    conditional branch it consumes.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <string>

#include "bpred/predictors.hh"
#include "ckpt/io.hh"
#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "isa/opcodes.hh"
#include "sample/driver.hh"
#include "sample/functional.hh"
#include "sample/spec.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;

constexpr std::uint64_t kTraceSeed = 42;
constexpr std::uint64_t kMaxInsts = 120'000;

struct Compiled
{
    prog::MachProgram binary;
    isa::RegisterMap map;
};

Compiled
compileBenchmark(const std::string &name, unsigned clusters,
                 double scale = 1.0)
{
    const auto &bench = workloads::benchmarkByName(name);
    workloads::WorkloadParams wp;
    wp.scale = scale;
    const prog::Program program = bench.make(wp);
    compiler::CompileOptions copt =
        compiler::compileOptionsFor(clusters > 1 ? "local" : "native",
                                    clusters);
    copt.profileSeed = kTraceSeed;
    const auto out = compiler::compile(program, copt);
    return Compiled{out.binary, out.hardwareMap(clusters)};
}

core::ProcessorConfig
dualConfig(const isa::RegisterMap &map)
{
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.regMap = map;
    return cfg;
}

/** Full detailed run: exact CPI to compare the estimate against. */
double
fullRunCpi(const Compiled &c, std::uint64_t max_insts,
           std::uint64_t *insts_out)
{
    StatGroup sg("mca");
    exec::ProgramTrace trace(c.binary, kTraceSeed, max_insts);
    core::Processor proc(dualConfig(c.map), trace, sg);
    const auto res = proc.run();
    if (insts_out)
        *insts_out = res.instructions;
    return static_cast<double>(res.cycles) /
           static_cast<double>(res.instructions);
}

sample::SampleSpec
testSpec(unsigned jobs = 1)
{
    sample::SampleSpec spec;
    spec.mode = sample::SampleSpec::Mode::Systematic;
    spec.period = 15'000;
    spec.detail = 3'000;
    spec.warmup = 1'000;
    spec.jobs = jobs;
    return spec;
}

// --- spec grammar ----------------------------------------------------

TEST(SampleSpec, ParseFullForm)
{
    const auto spec = sample::SampleSpec::parse(
        "periodic:period=5000,detail=1000,warmup=200,offset=42,jobs=3");
    EXPECT_EQ(spec.mode, sample::SampleSpec::Mode::Periodic);
    EXPECT_EQ(spec.period, 5000u);
    EXPECT_EQ(spec.detail, 1000u);
    EXPECT_EQ(spec.warmup, 200u);
    EXPECT_EQ(spec.offset, 42u);
    EXPECT_EQ(spec.jobs, 3u);
}

TEST(SampleSpec, ModeAloneUsesDefaults)
{
    const auto spec = sample::SampleSpec::parse("systematic");
    EXPECT_EQ(spec.mode, sample::SampleSpec::Mode::Systematic);
    EXPECT_GE(spec.period, spec.warmup + spec.detail);
}

TEST(SampleSpec, CanonicalRoundTrips)
{
    const auto spec = sample::SampleSpec::parse(
        "periodic:period=5000,detail=1000,warmup=200,offset=42");
    const auto again = sample::SampleSpec::parse(spec.canonical());
    EXPECT_EQ(again.canonical(), spec.canonical());
    EXPECT_EQ(again.period, spec.period);
    EXPECT_EQ(again.offset, spec.offset);
}

TEST(SampleSpec, RejectsBadInput)
{
    EXPECT_THROW(sample::SampleSpec::parse("random:period=10"),
                 std::runtime_error);
    EXPECT_THROW(sample::SampleSpec::parse("systematic:periods=10"),
                 std::runtime_error);
    EXPECT_THROW(sample::SampleSpec::parse("systematic:period=ten"),
                 std::runtime_error);
    EXPECT_THROW(sample::SampleSpec::parse("systematic:period"),
                 std::runtime_error);
    EXPECT_THROW(sample::SampleSpec::parse("systematic:detail=0"),
                 std::runtime_error);
    // warmup + detail must fit inside one period.
    EXPECT_THROW(sample::SampleSpec::parse(
                     "systematic:period=1000,detail=900,warmup=200"),
                 std::runtime_error);
}

TEST(SampleSpec, RejectsJobsBeyondTheWorkerBound)
{
    // 2^32 + 1 once narrowed to one worker; jobs is bounded like --jobs.
    EXPECT_THROW(sample::SampleSpec::parse("systematic:jobs=4294967297"),
                 std::runtime_error);
    EXPECT_THROW(sample::SampleSpec::parse("systematic:jobs=4097"),
                 std::runtime_error);
    EXPECT_EQ(sample::SampleSpec::parse("systematic:jobs=4096").jobs,
              4096u);
}

TEST(SampleSpec, RejectsOverlapHiddenByAWrappingSum)
{
    // warmup + detail wraps to 1 in 64 bits, which once passed as
    // fitting inside the period.
    EXPECT_THROW(sample::SampleSpec::parse(
                     "systematic:warmup=18446744073709551615,detail=2,"
                     "period=10"),
                 std::runtime_error);
}

// --- sampled execution ----------------------------------------------

TEST(SampledRun, CpiTracksFullRun)
{
    struct Case
    {
        const char *benchmark;
        double scale;
        std::uint64_t maxInsts;
        sample::SampleSpec spec;
        double bound; // relative CPI error
    };
    // compress: a short trace under the suite's test spec. gcc1: the
    // long branchy trace sampling exists for (2.4M insts at scale 10,
    // under the 4M cap), six windows, held to 2% (measures ~0.4%).
    const Case cases[] = {
        {"compress", 1.0, kMaxInsts, testSpec(), 0.10},
        {"gcc1", 10.0, 4'000'000,
         sample::SampleSpec::parse(
             "systematic:period=400000,detail=8000,warmup=2000"),
         0.02},
    };
    for (const Case &tc : cases) {
        SCOPED_TRACE(tc.benchmark);
        const auto c = compileBenchmark(tc.benchmark, 2, tc.scale);
        std::uint64_t fullInsts = 0;
        const double fullCpi = fullRunCpi(c, tc.maxInsts, &fullInsts);

        sample::SampledDriver driver(c.binary, dualConfig(c.map),
                                     kTraceSeed, tc.maxInsts);
        const auto rep = driver.run(tc.spec);

        ASSERT_GE(rep.intervals.size(), 4u);
        EXPECT_EQ(rep.totalInsts, fullInsts);
        EXPECT_GT(rep.cpiMean, 0.0);
        const double relErr = std::fabs(rep.cpiMean - fullCpi) / fullCpi;
        EXPECT_LT(relErr, tc.bound) << "sampled " << rep.cpiMean
                                    << " vs full " << fullCpi;
        // The estimate pays far fewer detailed instructions than the
        // run it predicts.
        EXPECT_LT(rep.detailedInsts, rep.totalInsts / 2);
    }
}

TEST(SampledRun, DeterministicAcrossRuns)
{
    const auto c = compileBenchmark("ora", 2);
    sample::SampledDriver driver(c.binary, dualConfig(c.map), kTraceSeed,
                                 kMaxInsts);
    const auto a = driver.run(testSpec());
    const auto b = driver.run(testSpec());

    ASSERT_EQ(a.intervals.size(), b.intervals.size());
    EXPECT_EQ(a.cpiMean, b.cpiMean);
    EXPECT_EQ(a.estTotalCycles, b.estTotalCycles);
    for (std::size_t i = 0; i < a.intervals.size(); ++i) {
        EXPECT_EQ(a.intervals[i].startInst, b.intervals[i].startInst);
        EXPECT_EQ(a.intervals[i].cycles, b.intervals[i].cycles);
        EXPECT_EQ(a.intervals[i].instructions, b.intervals[i].instructions);
    }
}

TEST(SampledRun, ParallelMatchesSerial)
{
    const auto c = compileBenchmark("gcc1", 2);
    sample::SampledDriver driver(c.binary, dualConfig(c.map), kTraceSeed,
                                 kMaxInsts);
    const auto serial = driver.run(testSpec(1));
    const auto parallel = driver.run(testSpec(4));

    ASSERT_EQ(serial.intervals.size(), parallel.intervals.size());
    EXPECT_EQ(serial.cpiMean, parallel.cpiMean);
    EXPECT_EQ(serial.cpiStdDev, parallel.cpiStdDev);
    EXPECT_EQ(serial.estTotalCycles, parallel.estTotalCycles);
    for (std::size_t i = 0; i < serial.intervals.size(); ++i) {
        EXPECT_EQ(serial.intervals[i].cycles, parallel.intervals[i].cycles);
        EXPECT_EQ(serial.intervals[i].stack.totalSlotCycles(),
                  parallel.intervals[i].stack.totalSlotCycles());
    }
}

TEST(SampledRun, EveryIntervalConservesCycleStack)
{
    const auto c = compileBenchmark("su2cor", 2);
    sample::SampledDriver driver(c.binary, dualConfig(c.map), kTraceSeed,
                                 kMaxInsts);
    const auto rep = driver.run(testSpec());

    ASSERT_FALSE(rep.intervals.empty());
    EXPECT_TRUE(rep.allConserved);
    for (const auto &iv : rep.intervals) {
        EXPECT_TRUE(iv.conserved) << "interval " << iv.index;
        EXPECT_EQ(iv.stack.totalSlotCycles(),
                  static_cast<std::uint64_t>(iv.stack.slots) *
                      iv.stack.cycles);
        EXPECT_GT(iv.instructions, 0u);
        EXPECT_GT(iv.cycles, 0u);
    }
}

TEST(SampledRun, PeriodicModeStartsAtOffset)
{
    const auto c = compileBenchmark("doduc", 2);
    sample::SampledDriver driver(c.binary, dualConfig(c.map), kTraceSeed,
                                 kMaxInsts);
    auto spec = testSpec();
    spec.mode = sample::SampleSpec::Mode::Periodic;
    spec.offset = 7'777;
    const auto rep = driver.run(spec);

    ASSERT_GE(rep.intervals.size(), 2u);
    EXPECT_EQ(rep.intervals[0].startInst, 7'777u);
    EXPECT_EQ(rep.intervals[1].startInst, 7'777u + spec.period);
}

TEST(SampledRun, SingleClusterAlsoSamples)
{
    const auto c = compileBenchmark("compress", 1);
    auto cfg = core::ProcessorConfig::singleCluster8();
    cfg.regMap = c.map;
    const double fullCpi = [&] {
        StatGroup sg("mca");
        exec::ProgramTrace trace(c.binary, kTraceSeed, kMaxInsts);
        core::Processor proc(cfg, trace, sg);
        const auto res = proc.run();
        return static_cast<double>(res.cycles) /
               static_cast<double>(res.instructions);
    }();

    sample::SampledDriver driver(c.binary, cfg, kTraceSeed, kMaxInsts);
    const auto rep = driver.run(testSpec());
    ASSERT_FALSE(rep.intervals.empty());
    const double relErr = std::fabs(rep.cpiMean - fullCpi) / fullCpi;
    EXPECT_LT(relErr, 0.10);
}

TEST(FunctionalWarming, TrainsThePredictorOnEveryConditionalBranch)
{
    constexpr std::uint64_t kInsts = 60'000;
    const auto c = compileBenchmark("gcc1", 2, 0.5);
    const auto cfg = dualConfig(c.map);

    StatGroup sg("mca");
    exec::ProgramTrace trace(c.binary, kTraceSeed, kInsts);
    core::Processor proc(cfg, trace, sg);
    sample::FunctionalWarmer warmer(proc);
    EXPECT_GT(warmer.advance(kInsts), 0u);

    // The same kind of predictor (the dual machine's McFarling), fed
    // update(pc, taken) for the same trace's conditional branches.
    ASSERT_EQ(cfg.predictor, core::ProcessorConfig::PredictorKind::McFarling);
    const auto make = [&] {
        return bpred::McFarlingPredictor(
            cfg.bimodalIndexBits, cfg.historyBits, cfg.gshareIndexBits,
            cfg.chooserIndexBits, cfg.speculativeHistory);
    };
    auto trained = make();
    const auto fresh = make();
    exec::ProgramTrace replay(c.binary, kTraceSeed, kInsts);
    std::uint64_t branches = 0;
    while (const auto di = replay.next())
        if (isa::isCondBranch(di->mi.op)) {
            trained.update(di->pc, di->taken);
            ++branches;
        }
    ASSERT_GT(branches, 1'000u);

    const auto state = [](const bpred::Predictor &p) {
        ckpt::Writer w;
        p.saveState(w);
        return w.take();
    };
    // Compared as booleans: the serialized tables are kilobytes long.
    const std::string warmed = state(proc.predictor());
    EXPECT_TRUE(warmed == state(trained))
        << "warming did not train the predictor on every branch";
    EXPECT_TRUE(warmed != state(fresh))
        << "warming left the predictor untrained";
}

} // namespace
