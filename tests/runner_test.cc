/**
 * @file
 * Tests for the campaign runner (src/runner): grid expansion, spec-hash
 * stability, cache hit/miss behaviour, determinism across worker
 * widths, and timeout/failure capture.
 */

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <stdexcept>

#include <unistd.h>

#include <gtest/gtest.h>

#include "compiler/pipeline.hh"
#include "runner/campaign.hh"
#include "runner/artifact_store.hh"
#include "runner/emit.hh"
#include "runner/table2.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;
using runner::JobResult;
using runner::JobSpec;
using runner::JobStatus;

/** Tiny spec that compiles and simulates in a few milliseconds. */
JobSpec
tinySpec()
{
    JobSpec spec;
    spec.benchmark = "compress";
    spec.scale = 0.05;
    spec.maxInsts = 10'000;
    return spec;
}

/** Self-cleaning temporary directory for cache tests. */
class TempDir
{
  public:
    explicit TempDir(const std::string &tag)
        : path_(std::filesystem::temp_directory_path() /
                ("mca_runner_test_" + tag + "_" +
                 std::to_string(::getpid())))
    {
        std::filesystem::remove_all(path_);
    }
    ~TempDir() { std::filesystem::remove_all(path_); }
    std::string str() const { return path_.string(); }

  private:
    std::filesystem::path path_;
};

TEST(GridExpansion, CrossProductOrderAndSize)
{
    runner::CampaignGrid grid;
    grid.benchmarks = {"compress", "ora"};
    grid.machines = {"single8", "dual8"};
    grid.schedulers = {"native", "local"};
    grid.thresholds = {2, 4};
    grid.traceSeeds = {1, 2, 3};

    const auto specs = runner::expandGrid(grid);
    ASSERT_EQ(specs.size(), 2u * 2u * 2u * 2u * 3u);

    // Nesting order: benchmark (outer) ... traceSeed (inner).
    EXPECT_EQ(specs[0].benchmark, "compress");
    EXPECT_EQ(specs[0].machine, "single8");
    EXPECT_EQ(specs[0].scheduler, "native");
    EXPECT_EQ(specs[0].threshold, 2u);
    EXPECT_EQ(specs[0].traceSeed, 1u);
    EXPECT_EQ(specs[1].traceSeed, 2u);
    EXPECT_EQ(specs[3].threshold, 4u);
    EXPECT_EQ(specs.back().benchmark, "ora");
    EXPECT_EQ(specs.back().scheduler, "local");
    EXPECT_EQ(specs.back().traceSeed, 3u);

    // Every spec is distinct.
    std::set<std::string> keys;
    for (const auto &spec : specs)
        keys.insert(spec.canonicalKey());
    EXPECT_EQ(keys.size(), specs.size());
}

TEST(GridExpansion, SharedParametersReachEverySpec)
{
    runner::CampaignGrid grid;
    grid.scale = 0.75;
    grid.unroll = 3;
    grid.predictor = "gshare";
    grid.maxInsts = 1234;
    grid.maxCycles = 9999;
    grid.traceSeeds = {7};

    const auto specs = runner::expandGrid(grid);
    ASSERT_EQ(specs.size(), 1u);
    EXPECT_DOUBLE_EQ(specs[0].scale, 0.75);
    EXPECT_EQ(specs[0].unroll, 3u);
    EXPECT_EQ(specs[0].predictor, "gshare");
    EXPECT_EQ(specs[0].maxInsts, 1234u);
    EXPECT_EQ(specs[0].maxCycles, 9999u);
    // profileSeed follows traceSeed by default (Table-2 convention).
    EXPECT_EQ(specs[0].profileSeed, 7u);
}

TEST(GridExpansion, EmptyAxisThrows)
{
    runner::CampaignGrid grid;
    grid.machines.clear();
    EXPECT_THROW(runner::expandGrid(grid), std::runtime_error);
}

TEST(JobSpecHash, StableAndCanonical)
{
    const JobSpec a = tinySpec();
    JobSpec b = tinySpec();
    EXPECT_EQ(a.contentHash(), b.contentHash());
    EXPECT_EQ(a.canonicalKey(), b.canonicalKey());

    // 16 lowercase hex digits.
    EXPECT_EQ(a.contentHash().size(), 16u);
    EXPECT_EQ(a.contentHash().find_first_not_of("0123456789abcdef"),
              std::string::npos);

    // The hash is a pure function of the spec: copies agree across
    // separate constructions, and the key round-trips every field that
    // can affect the outcome.
    EXPECT_NE(a.canonicalKey().find("benchmark=compress"),
              std::string::npos);
    EXPECT_NE(a.canonicalKey().find("maxInsts=10000"), std::string::npos);
}

TEST(JobSpecHash, EveryOutcomeFieldChangesTheHash)
{
    const JobSpec base = tinySpec();
    std::set<std::string> hashes = {base.contentHash()};

    auto expectFresh = [&](JobSpec spec, const char *field) {
        const auto inserted = hashes.insert(spec.contentHash()).second;
        EXPECT_TRUE(inserted) << "field did not alter the hash: " << field;
    };

    JobSpec s = base;
    s.benchmark = "ora";
    expectFresh(s, "benchmark");
    s = base;
    s.scale = 0.051;
    expectFresh(s, "scale");
    s = base;
    s.machine = "single8";
    expectFresh(s, "machine");
    s = base;
    s.scheduler = "native";
    expectFresh(s, "scheduler");
    s = base;
    s.threshold = 5;
    expectFresh(s, "threshold");
    s = base;
    s.unroll = 2;
    expectFresh(s, "unroll");
    s = base;
    s.predictor = "bimodal";
    expectFresh(s, "predictor");
    s = base;
    s.traceSeed = 43;
    expectFresh(s, "traceSeed");
    s = base;
    s.profileSeed = 43;
    expectFresh(s, "profileSeed");
    s = base;
    s.maxInsts = 10'001;
    expectFresh(s, "maxInsts");
    s = base;
    s.maxCycles = 10'000;
    expectFresh(s, "maxCycles");
}

TEST(RunJob, InvalidSpecsAreCapturedNotFatal)
{
    JobSpec spec = tinySpec();
    spec.benchmark = "nonesuch";
    const JobResult result = runner::runJob(spec);
    EXPECT_EQ(result.status, JobStatus::Failed);
    EXPECT_NE(result.error.find("nonesuch"), std::string::npos);
    // The error names the valid choices so scripts can self-correct.
    EXPECT_NE(result.error.find("compress"), std::string::npos);

    spec = tinySpec();
    spec.machine = "hex16";
    EXPECT_EQ(runner::runJob(spec).status, JobStatus::Failed);

    spec = tinySpec();
    spec.scheduler = "global";
    EXPECT_EQ(runner::runJob(spec).status, JobStatus::Failed);

    spec = tinySpec();
    spec.predictor = "oracle";
    EXPECT_EQ(runner::runJob(spec).status, JobStatus::Failed);

    // The generators cast scale x trip count to an unsigned integer; a
    // negative scale once made that cast undefined and ran a huge loop.
    spec = tinySpec();
    spec.scale = -5.0;
    const JobResult negative = runner::runJob(spec);
    EXPECT_EQ(negative.status, JobStatus::Failed);
    EXPECT_NE(negative.error.find("scale"), std::string::npos);
}

TEST(RunJob, CycleBudgetExhaustionIsTimeout)
{
    JobSpec spec = tinySpec();
    spec.maxCycles = 500; // far below what the trace needs
    const JobResult result = runner::runJob(spec);
    EXPECT_EQ(result.status, JobStatus::TimedOut);
    EXPECT_EQ(result.cycles, 500u);
    EXPECT_NE(result.error.find("cycle budget"), std::string::npos);
}

TEST(Campaign, FailuresDoNotAbortTheCampaign)
{
    std::vector<JobSpec> specs(3, tinySpec());
    specs[1].benchmark = "nonesuch";   // fails validation
    specs[2].maxCycles = 500;          // times out

    runner::CampaignOptions options;
    runner::CampaignSummary summary;
    const auto results = runner::runCampaign(specs, options, &summary);

    ASSERT_EQ(results.size(), 3u);
    EXPECT_EQ(results[0].status, JobStatus::Ok);
    EXPECT_EQ(results[1].status, JobStatus::Failed);
    EXPECT_EQ(results[2].status, JobStatus::TimedOut);
    EXPECT_EQ(summary.ok, 1u);
    EXPECT_EQ(summary.failed, 1u);
    EXPECT_EQ(summary.timedOut, 1u);
    EXPECT_EQ(summary.total, 3u);
}

TEST(Campaign, DeterministicAcrossJobWidths)
{
    runner::CampaignGrid grid;
    grid.benchmarks = {"compress", "ora"};
    grid.machines = {"single8", "dual8"};
    grid.schedulers = {"native", "local"};
    grid.scale = 0.05;
    grid.maxInsts = 10'000;
    const auto specs = runner::expandGrid(grid);

    runner::CampaignOptions serial;
    serial.jobs = 1;
    runner::CampaignOptions wide;
    wide.jobs = 4;

    const auto a = runner::runCampaign(specs, serial);
    const auto b = runner::runCampaign(specs, wide);

    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].spec.canonicalKey(), b[i].spec.canonicalKey());
        EXPECT_EQ(a[i].status, b[i].status) << i;
        EXPECT_EQ(a[i].cycles, b[i].cycles) << i;
        EXPECT_EQ(a[i].retired, b[i].retired) << i;
        EXPECT_EQ(a[i].distSingle, b[i].distSingle) << i;
        EXPECT_EQ(a[i].distDual, b[i].distDual) << i;
        EXPECT_EQ(a[i].replays, b[i].replays) << i;
        EXPECT_DOUBLE_EQ(a[i].ipc, b[i].ipc) << i;
        EXPECT_DOUBLE_EQ(a[i].bpredAccuracy, b[i].bpredAccuracy) << i;
    }
}

TEST(Campaign, ResultCacheHitsAndMisses)
{
    const TempDir dir("cache");
    runner::CampaignOptions options;
    options.cacheDir = dir.str();

    std::vector<JobSpec> specs = {tinySpec()};
    const auto first = runner::runCampaign(specs, options);
    ASSERT_EQ(first.size(), 1u);
    EXPECT_EQ(first[0].status, JobStatus::Ok);
    EXPECT_FALSE(first[0].fromCache);

    // Identical spec: served from cache, identical numbers.
    const auto second = runner::runCampaign(specs, options);
    EXPECT_TRUE(second[0].fromCache);
    EXPECT_EQ(second[0].cycles, first[0].cycles);
    EXPECT_EQ(second[0].retired, first[0].retired);
    EXPECT_DOUBLE_EQ(second[0].ipc, first[0].ipc);
    EXPECT_EQ(second[0].spillLoads, first[0].spillLoads);

    // Changed point: miss, fresh simulation.
    specs[0].traceSeed = 43;
    const auto third = runner::runCampaign(specs, options);
    EXPECT_FALSE(third[0].fromCache);
}

TEST(Campaign, CacheRejectsMismatchedKey)
{
    const TempDir dir("collide");
    const JobSpec spec = tinySpec();
    const JobResult result = runner::runJob(spec);
    const runner::ArtifactStore store(dir.str());
    store.storeResult(result);

    // Corrupt the stored key: the loader must treat it as a miss (this
    // is the collision-safety path — hash matches, key does not).
    const std::string path = store.resultPath(spec);
    std::ifstream in(path);
    std::string contents((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
    in.close();
    const auto pos = contents.find("benchmark=compress");
    ASSERT_NE(pos, std::string::npos);
    contents.replace(pos, 18, "benchmark=tampered");
    std::ofstream(path, std::ios::trunc) << contents;

    EXPECT_FALSE(store.loadResult(spec).has_value());
}

TEST(Campaign, FailedJobsAreNotCached)
{
    const TempDir dir("nofail");
    runner::CampaignOptions options;
    options.cacheDir = dir.str();

    std::vector<JobSpec> specs = {tinySpec()};
    specs[0].benchmark = "nonesuch";
    const auto first = runner::runCampaign(specs, options);
    EXPECT_EQ(first[0].status, JobStatus::Failed);
    const auto second = runner::runCampaign(specs, options);
    EXPECT_FALSE(second[0].fromCache); // retried, not replayed
}

TEST(Campaign, TimeoutsAreCached)
{
    const TempDir dir("timeout");
    runner::CampaignOptions options;
    options.cacheDir = dir.str();

    std::vector<JobSpec> specs = {tinySpec()};
    specs[0].maxCycles = 500;
    const auto first = runner::runCampaign(specs, options);
    EXPECT_EQ(first[0].status, JobStatus::TimedOut);
    const auto second = runner::runCampaign(specs, options);
    EXPECT_TRUE(second[0].fromCache);
    EXPECT_EQ(second[0].status, JobStatus::TimedOut);
}

TEST(Campaign, ProgressCallbackSeesEveryJob)
{
    std::vector<JobSpec> specs(4, tinySpec());
    specs[1].traceSeed = 43;
    specs[2].traceSeed = 44;
    specs[3].traceSeed = 45;

    runner::CampaignOptions options;
    options.jobs = 2;
    std::size_t calls = 0;
    std::size_t lastFinished = 0;
    options.onResult = [&](std::size_t finished, std::size_t total,
                           const JobResult &) {
        ++calls;
        EXPECT_EQ(total, 4u);
        EXPECT_GT(finished, lastFinished); // monotone under the lock
        lastFinished = finished;
    };
    runner::runCampaign(specs, options);
    EXPECT_EQ(calls, 4u);
}

/**
 * Serial reference for the Table-2 campaign: the paper's three-run
 * methodology written out directly. Compile the native and the locally
 * scheduled binary once, then simulate native/single, native/dual and
 * local/dual in sequence.
 */
harness::Table2Row
serialTable2Row(const workloads::BenchmarkInfo &bench,
                const harness::ExperimentOptions &options)
{
    const prog::Program program = bench.make(options.workload);
    compiler::CompileOptions nopt = compiler::compileOptionsFor("native", 1);
    nopt.profileSeed = options.traceSeed;
    const auto native = compiler::compile(program, nopt);
    compiler::CompileOptions lopt = compiler::compileOptionsFor("local", 2);
    lopt.imbalanceThreshold = options.imbalanceThreshold;
    lopt.profileSeed = options.traceSeed;
    const auto local = compiler::compile(program, lopt);

    const auto singleCfg = options.eightWay
                               ? core::ProcessorConfig::singleCluster8()
                               : core::ProcessorConfig::singleCluster4();
    const auto dualCfg = options.eightWay
                             ? core::ProcessorConfig::dualCluster8()
                             : core::ProcessorConfig::dualCluster4();

    harness::Table2Row row;
    row.benchmark = bench.name;
    row.single = runner::simulate(native.binary, native.hardwareMap(1),
                                  singleCfg, options.traceSeed,
                                  options.maxInsts);
    row.dualNone = runner::simulate(native.binary, native.hardwareMap(2),
                                    dualCfg, options.traceSeed,
                                    options.maxInsts);
    row.dualLocal = runner::simulate(local.binary, local.hardwareMap(2),
                                     dualCfg, options.traceSeed,
                                     options.maxInsts);
    const auto pct = [&](const JobResult &dual) {
        return 100.0 - 100.0 * (static_cast<double>(dual.cycles) /
                                static_cast<double>(row.single.cycles));
    };
    row.pctNone = pct(row.dualNone);
    row.pctLocal = pct(row.dualLocal);
    row.spillLoadsLocal = local.alloc.spillLoadsInserted;
    row.spillStoresLocal = local.alloc.spillStoresInserted;
    row.otherClusterSpills = local.alloc.otherClusterSpills;
    return row;
}

void
expectSameRun(const JobResult &got, const JobResult &want)
{
    EXPECT_EQ(got.status, want.status);
    EXPECT_EQ(got.cycles, want.cycles);
    EXPECT_EQ(got.retired, want.retired);
    EXPECT_EQ(got.replays, want.replays);
    EXPECT_EQ(got.distDual, want.distDual);
    EXPECT_EQ(got.stackSlotCycles, want.stackSlotCycles);
}

TEST(Table2Campaign, MatchesTheSerialHarness)
{
    for (const bool eightWay : {true, false}) {
        SCOPED_TRACE(eightWay ? "8-way" : "4-way");
        harness::ExperimentOptions opt;
        opt.workload.scale = 0.05;
        opt.maxInsts = 10'000;
        opt.eightWay = eightWay;

        runner::CampaignOptions campaign;
        campaign.jobs = 3;
        const auto result = runner::runTable2Campaign(opt, campaign);
        const auto &benches = workloads::allBenchmarks();
        ASSERT_EQ(result.rows.size(), benches.size());
        ASSERT_EQ(result.jobs.size(), 3 * result.rows.size());

        for (std::size_t i = 0; i < benches.size(); ++i) {
            const auto reference = serialTable2Row(benches[i], opt);
            const auto &row = result.rows[i];
            SCOPED_TRACE(reference.benchmark);
            EXPECT_EQ(row.benchmark, reference.benchmark);
            EXPECT_EQ(row.single.status, JobStatus::Ok);
            expectSameRun(row.single, reference.single);
            expectSameRun(row.dualNone, reference.dualNone);
            expectSameRun(row.dualLocal, reference.dualLocal);
            EXPECT_DOUBLE_EQ(row.pctNone, reference.pctNone);
            EXPECT_DOUBLE_EQ(row.pctLocal, reference.pctLocal);
            EXPECT_EQ(row.spillLoadsLocal, reference.spillLoadsLocal);
            EXPECT_EQ(row.spillStoresLocal, reference.spillStoresLocal);
            EXPECT_EQ(row.otherClusterSpills,
                      reference.otherClusterSpills);
        }
    }
}

TEST(Emit, JsonAndCsvShapes)
{
    const JobResult result = runner::runJob(tinySpec());
    ASSERT_EQ(result.status, JobStatus::Ok);

    std::ostringstream json;
    runner::emitJsonLine(json, result);
    const std::string line = json.str();
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"benchmark\":\"compress\""), std::string::npos);
    EXPECT_NE(line.find("\"status\":\"ok\""), std::string::npos);
    EXPECT_NE(line.find("\"cycles\":" + std::to_string(result.cycles)),
              std::string::npos);
    EXPECT_EQ(line.find('\n'), std::string::npos);

    std::ostringstream csv;
    runner::emitCsv(csv, {result});
    const std::string text = csv.str();
    // Header column count == row column count.
    const auto countCommas = [](const std::string &s) {
        return std::count(s.begin(), s.end(), ',');
    };
    const auto nl = text.find('\n');
    ASSERT_NE(nl, std::string::npos);
    const std::string header = text.substr(0, nl);
    const std::string row = text.substr(nl + 1);
    EXPECT_EQ(countCommas(header), countCommas(row));
    EXPECT_NE(header.find("cycles"), std::string::npos);
}

TEST(ArtifactStoreTest, OneBuildPerKey)
{
    runner::ArtifactStore store;
    int builds = 0;
    auto build = [&builds] {
        ++builds;
        const auto p = workloads::makeCompress(
            workloads::WorkloadParams{0.05});
        return compiler::compile(
            p, compiler::compileOptionsFor("native", 1));
    };

    bool hit = true;
    const auto first = store.getOrCompile("k1", build, &hit);
    EXPECT_FALSE(hit);
    const auto again = store.getOrCompile("k1", build, &hit);
    EXPECT_TRUE(hit);
    EXPECT_EQ(builds, 1);
    EXPECT_EQ(first.get(), again.get()); // literally the same output
    store.getOrCompile("k2", build, &hit);
    EXPECT_FALSE(hit);
    EXPECT_EQ(builds, 2);

    const auto stats = store.stats();
    EXPECT_EQ(stats.compileLookups, 3u);
    EXPECT_EQ(stats.compileHits, 1u);
    EXPECT_EQ(stats.compiles, 2u);
}

TEST(ArtifactStoreTest, BuilderExceptionReachesEveryWaiter)
{
    runner::ArtifactStore store;
    const auto boom = []() -> compiler::CompileOutput {
        throw std::runtime_error("boom");
    };
    EXPECT_THROW(store.getOrCompile("bad", boom), std::runtime_error);
    // The poisoned entry rethrows instead of re-running the builder.
    int builds = 0;
    EXPECT_THROW(store.getOrCompile(
                     "bad",
                     [&builds]() -> compiler::CompileOutput {
                         ++builds;
                         throw std::runtime_error("unreachable");
                     }),
                 std::runtime_error);
    EXPECT_EQ(builds, 0);
}

TEST(ArtifactStoreTest, KeyIgnoresMachineAndRunControlFields)
{
    JobSpec a = tinySpec();
    a.machine = "single8";
    JobSpec b = tinySpec();
    b.machine = "dual8";
    b.traceSeed = 99;
    b.maxInsts = 77;
    // Native compiles are cluster-blind, so both land on numClusters=1
    // and the key collapses across machines, seeds, and budgets.
    const auto copt = compiler::compileOptionsFor("native", 1);
    EXPECT_EQ(runner::ArtifactStore::compileKeyFor(a, copt),
              runner::ArtifactStore::compileKeyFor(b, copt));

    JobSpec scaled = tinySpec();
    scaled.scale = 0.1;
    EXPECT_NE(runner::ArtifactStore::compileKeyFor(a, copt),
              runner::ArtifactStore::compileKeyFor(scaled, copt));
    JobSpec other = tinySpec();
    other.benchmark = "ora";
    EXPECT_NE(runner::ArtifactStore::compileKeyFor(a, copt),
              runner::ArtifactStore::compileKeyFor(other, copt));
    EXPECT_NE(
        runner::ArtifactStore::compileKeyFor(
            a, compiler::compileOptionsFor("local", 2)),
        runner::ArtifactStore::compileKeyFor(a, copt));
}

TEST(Campaign, CompileCacheSharesCompilesAcrossTheGrid)
{
    // 2 benchmarks x {single8, dual8} x {native, local} = 8 jobs but
    // only 4 distinct compiles: native is cluster-blind, and `local`
    // on a single-cluster machine degrades to the native compile.
    runner::CampaignGrid grid;
    grid.benchmarks = {"compress", "ora"};
    grid.machines = {"single8", "dual8"};
    grid.schedulers = {"native", "local"};
    grid.scale = 0.05;
    grid.maxInsts = 10'000;
    const auto specs = runner::expandGrid(grid);
    ASSERT_EQ(specs.size(), 8u);

    runner::CampaignOptions options;
    options.jobs = 4;
    runner::CampaignSummary summary;
    const auto cached = runner::runCampaign(specs, options, &summary);
    EXPECT_EQ(summary.compiles, 4u);
    EXPECT_EQ(summary.compileHits, 4u);

    // Shared compiles change nothing observable: results match each
    // spec run on its own, with its own compile, field for field.
    std::vector<runner::JobResult> plain;
    for (const auto &spec : specs)
        plain.push_back(runner::runJob(spec));
    ASSERT_EQ(plain.size(), cached.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].status, cached[i].status) << i;
        EXPECT_EQ(plain[i].cycles, cached[i].cycles) << i;
        EXPECT_EQ(plain[i].retired, cached[i].retired) << i;
        EXPECT_EQ(plain[i].spillLoads, cached[i].spillLoads) << i;
        EXPECT_EQ(plain[i].spillStores, cached[i].spillStores) << i;
        EXPECT_DOUBLE_EQ(plain[i].ipc, cached[i].ipc) << i;
    }
}

} // namespace
