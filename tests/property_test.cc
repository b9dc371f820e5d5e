/**
 * @file
 * Property-based tests: randomized programs are pushed through the full
 * compile-and-simulate pipeline and cross-checked against the
 * invariants the reproduction depends on:
 *
 *   1. allocation validity — interfering live ranges never share a
 *      register;
 *   2. cluster discipline — with the local scheduler, every register
 *      respects its live range's final cluster;
 *   3. path equivalence — the native and rescheduled binaries execute
 *      the same dynamic path (same non-spill opcode sequence), the
 *      paper's core methodological invariant;
 *   4. machine liveness — both machines drain every trace completely
 *      and deterministically;
 *   5. snapshot fidelity — at arbitrary mid-run cycle points, a full
 *      machine snapshot survives save → restore → re-save with
 *      byte-identical payloads (the snapshot is a fixed point of
 *      save∘load, so no machine state escapes the checkpoint chain).
 */

#include <gtest/gtest.h>

#include "ckpt/snapshot.hh"
#include "compiler/interference.hh"
#include "compiler/liveness.hh"
#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "exec/trace.hh"
#include "exec/walker.hh"
#include "runner/jobspec.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;

class RandomPipeline : public ::testing::TestWithParam<std::uint64_t>
{
  protected:
    prog::Program
    program() const
    {
        workloads::RandomProgramParams rp;
        rp.seed = GetParam();
        rp.numFunctions = 3;
        rp.segmentsPerFunction = 5;
        rp.instrsPerBlock = 7;
        return workloads::makeRandomProgram(rp);
    }
};

TEST_P(RandomPipeline, AllocationNeverOverlapsRegisters)
{
    const auto p = program();
    for (const auto sched : {compiler::SchedulerKind::Native,
                             compiler::SchedulerKind::Local}) {
        compiler::CompileOptions copt;
        copt.scheduler = sched;
        copt.numClusters =
            sched == compiler::SchedulerKind::Native ? 1 : 2;
        const auto out = compiler::compile(p, copt);

        const auto &rewritten = out.alloc.rewritten;
        const auto live = compiler::computeLiveness(rewritten);
        BitSet spilled(rewritten.values.size());
        for (prog::FunctionId f = 0; f < rewritten.functions.size();
             ++f) {
            for (unsigned ci = 0; ci < 2; ++ci) {
                const auto cls = static_cast<isa::RegClass>(ci);
                const auto g = compiler::buildInterference(
                    rewritten, f, cls, live, spilled);
                for (std::size_t i = 0; i < g.numNodes(); ++i) {
                    const auto vi = g.valueOf(i);
                    g.forEachNeighbor(i, [&](std::size_t j) {
                        const auto vj = g.valueOf(j);
                        EXPECT_FALSE(out.alloc.regOf[vi] ==
                                     out.alloc.regOf[vj])
                            << "fn " << f << ": values " << vi << "/"
                            << vj << " share "
                            << isa::regName(out.alloc.regOf[vi]);
                    });
                }
            }
        }
    }
}

TEST_P(RandomPipeline, LocalSchedulerClusterDiscipline)
{
    const auto p = program();
    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Local;
    copt.numClusters = 2;
    const auto out = compiler::compile(p, copt);
    const auto &alloc = out.alloc;
    for (prog::ValueId v = 0; v < alloc.rewritten.values.size(); ++v) {
        if (alloc.rewritten.values[v].globalCandidate)
            continue;
        const int cluster = alloc.finalAssignment.clusterOf(v);
        if (cluster < 0)
            continue;
        const auto reg = alloc.regOf[v];
        if (reg.isZero())
            continue;
        EXPECT_EQ(reg.index % 2, static_cast<unsigned>(cluster))
            << "value " << v;
    }
}

TEST_P(RandomPipeline, NativeAndLocalExecuteSamePath)
{
    const auto p = program();
    compiler::CompileOptions nat;
    nat.scheduler = compiler::SchedulerKind::Native;
    nat.numClusters = 1;
    const auto native = compiler::compile(p, nat);
    compiler::CompileOptions loc;
    loc.scheduler = compiler::SchedulerKind::Local;
    loc.numClusters = 2;
    const auto local = compiler::compile(p, loc);

    auto opcodes = [](const prog::MachProgram &mp, std::uint64_t seed) {
        exec::ProgramTrace trace(mp, seed, 300'000);
        std::vector<isa::Op> ops;
        while (auto di = trace.next())
            if (!di->isSpill)
                ops.push_back(di->mi.op);
        return ops;
    };
    const auto a = opcodes(native.binary, 13);
    const auto b = opcodes(local.binary, 13);
    // Rescheduling must not change the executed path: identical
    // non-spill opcode sequences (the paper's ATOM invariant).
    EXPECT_EQ(a, b);
}

TEST_P(RandomPipeline, BothMachinesDrainDeterministically)
{
    const auto p = program();
    compiler::CompileOptions nat;
    nat.scheduler = compiler::SchedulerKind::Native;
    nat.numClusters = 1;
    const auto native = compiler::compile(p, nat);
    compiler::CompileOptions loc;
    loc.scheduler = compiler::SchedulerKind::Local;
    loc.numClusters = 2;
    const auto local = compiler::compile(p, loc);

    const auto s1 = runner::simulate(
        native.binary, native.hardwareMap(1),
        core::ProcessorConfig::singleCluster8(), 13, 100'000);
    const auto s2 = runner::simulate(
        native.binary, native.hardwareMap(2),
        core::ProcessorConfig::dualCluster8(), 13, 100'000);
    const auto s3 = runner::simulate(
        local.binary, local.hardwareMap(2),
        core::ProcessorConfig::dualCluster8(), 13, 100'000);
    EXPECT_EQ(s1.status, runner::JobStatus::Ok);
    EXPECT_EQ(s2.status, runner::JobStatus::Ok);
    EXPECT_EQ(s3.status, runner::JobStatus::Ok);
    EXPECT_GT(s1.retired, 0u);
    // Native binary retires the same count on both machines.
    EXPECT_EQ(s1.retired, s2.retired);

    const auto again = runner::simulate(
        local.binary, local.hardwareMap(2),
        core::ProcessorConfig::dualCluster8(), 13, 100'000);
    EXPECT_EQ(again.cycles, s3.cycles);
}

TEST_P(RandomPipeline, FourClusterMachineAlsoDrains)
{
    const auto p = program();
    compiler::CompileOptions nat;
    nat.scheduler = compiler::SchedulerKind::Native;
    nat.numClusters = 1;
    const auto native = compiler::compile(p, nat);
    const auto cfg = core::ProcessorConfig::multiCluster8(4);
    const auto s = runner::simulate(native.binary,
                                    native.hardwareMap(4), cfg, 13,
                                    50'000);
    EXPECT_EQ(s.status, runner::JobStatus::Ok);
    EXPECT_GT(s.retired, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomPipeline,
                         ::testing::Range<std::uint64_t>(1, 13));

} // namespace

namespace modes
{

using namespace mca;

/** Every machine-mode combination must drain every random program. */
class ModeMatrix : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ModeMatrix, AllConfigurationsDrainAndAgreeOnRetireCount)
{
    workloads::RandomProgramParams rp;
    rp.seed = GetParam();
    rp.numFunctions = 2;
    rp.segmentsPerFunction = 4;
    const auto p = workloads::makeRandomProgram(rp);
    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Local;
    copt.numClusters = 2;
    copt.superblocks = (GetParam() % 2) == 0;
    copt.unrollFactor = (GetParam() % 3) == 0 ? 2 : 1;
    const auto out = compiler::compile(p, copt);

    std::uint64_t retired = 0;
    for (const bool window : {false, true}) {
        for (const bool reserve : {false, true}) {
            auto cfg = core::ProcessorConfig::dualCluster8();
            cfg.regMap = out.hardwareMap(2);
            cfg.holdQueueUntilRetire = window;
            cfg.reserveOldestEntry = reserve;
            cfg.speculativeHistory = reserve; // vary it too
            cfg.paranoid = true;
            StatGroup stats("m");
            exec::ProgramTrace trace(out.binary, 5, 40'000);
            core::Processor cpu(cfg, trace, stats);
            const auto r = cpu.run(10'000'000);
            ASSERT_TRUE(r.completed)
                << "window=" << window << " reserve=" << reserve;
            if (retired == 0)
                retired = r.instructions;
            // Machine policy must never change WHAT executes.
            EXPECT_EQ(r.instructions, retired)
                << "window=" << window << " reserve=" << reserve;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ModeMatrix,
                         ::testing::Range<std::uint64_t>(20, 28));

} // namespace modes

namespace ckptprop
{

using namespace mca;

/**
 * Snapshot fidelity across every benchmark in the registry plus the
 * pointer-chase microbenchmark: stop a run at pseudo-random cycle
 * points, save the full machine, restore it into a fresh machine, and
 * re-save — the two payloads must be byte-identical. Any drift means
 * some piece of state (queues, rename maps, caches, MSHRs, predictor,
 * trace cursor, stats) escaped the save/restore chain.
 */
class SnapshotRoundTrip : public ::testing::TestWithParam<const char *>
{
};

TEST_P(SnapshotRoundTrip, SaveRestoreSaveIsByteIdentical)
{
    const std::string bench = GetParam();
    const auto program = bench == "chase"
                             ? workloads::makePointerChase({})
                             : workloads::benchmarkByName(bench).make({});
    compiler::CompileOptions copt = compiler::compileOptionsFor("local", 2);
    copt.profileSeed = 42;
    const auto compiled = compiler::compile(program, copt);
    auto cfg = core::ProcessorConfig::dualCluster8();
    cfg.regMap = compiled.hardwareMap(2);

    // Per-workload pseudo-random mid-run stop points (deterministic,
    // but not aligned to anything the pipeline does).
    std::uint64_t nameSalt = 0;
    for (const char c : bench)
        nameSalt = nameSalt * 131 + static_cast<unsigned char>(c);
    for (std::uint64_t trial = 0; trial < 3; ++trial) {
        const Cycle stop =
            200 + exec::hashSeed(42, nameSalt, trial) % 5'000;

        StatGroup sg("mca");
        exec::ProgramTrace trace(compiled.binary, 42, 20'000);
        core::Processor proc(cfg, trace, sg);
        proc.run(stop);
        ckpt::SnapshotBuilder save(proc.configHash());
        proc.saveState(save);
        const ckpt::Snapshot first = save.finish();

        StatGroup sg2("mca");
        exec::ProgramTrace trace2(compiled.binary, 42, 20'000);
        core::Processor restored(cfg, trace2, sg2);
        ckpt::SnapshotParser parser(first, restored.configHash());
        restored.loadState(parser);
        ckpt::SnapshotBuilder resave(restored.configHash());
        restored.saveState(resave);
        const ckpt::Snapshot second = resave.finish();

        ASSERT_EQ(first.payload, second.payload)
            << bench << ": payload drift at cycle " << stop;
        EXPECT_EQ(first.contentHash(), second.contentHash());
    }
}

INSTANTIATE_TEST_SUITE_P(Workloads, SnapshotRoundTrip,
                         ::testing::Values("compress", "doduc", "gcc1",
                                           "ora", "su2cor", "tomcatv",
                                           "chase"),
                         [](const auto &info) {
                             return std::string(info.param);
                         });

} // namespace ckptprop
