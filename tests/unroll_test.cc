/**
 * @file
 * Tests for the loop-unrolling extension (paper §6): structural
 * correctness, trace-length preservation, loop-carried renaming, and
 * the end-to-end interaction with the partitioner.
 */

#include <gtest/gtest.h>

#include "compiler/pipeline.hh"
#include "compiler/unroll.hh"
#include "exec/trace.hh"
#include "runner/jobspec.hh"
#include "prog/builder.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;
using isa::Op;
using isa::RegClass;

/** acc/i counted self-loop with a store, trip iterations. */
prog::Program
makeLoop(std::uint64_t trip)
{
    prog::Builder b("unrollable");
    const auto fn = b.function("main");
    const auto entry = b.block(fn, 1, "entry");
    const auto body = b.block(fn, static_cast<double>(trip), "body");
    const auto exit = b.block(fn, 1, "exit");
    const auto arr = b.stream(prog::AddrStream::strided(0x1000, 8,
                                                        64 * 1024));
    b.setInsertPoint(fn, entry);
    const auto i = b.emitConst(RegClass::Int, 0, "i");
    const auto acc = b.emitConst(RegClass::Int, 0, "acc");
    const auto base = b.emitConst(RegClass::Int, 0x1000, "base");
    b.edge(fn, entry, body);
    b.setInsertPoint(fn, body);
    const auto x = b.emitLoad(Op::Ldl, arr, base, "x");
    b.emitRRRTo(acc, Op::Add, acc, x);
    b.emitRRITo(i, Op::Add, i, 1);
    const auto c = b.emitRRI(Op::CmpLt, i, 0x7fff, "c");
    b.emitBranch(Op::Bne, c, b.branch(prog::BranchModel::loop(trip)));
    b.edge(fn, body, exit);
    b.edge(fn, body, body);
    b.setInsertPoint(fn, exit);
    b.emitStore(Op::Stl, acc, arr, base);
    b.emitRet();
    return b.build();
}

std::uint64_t
dynLength(const prog::Program &p)
{
    return exec::profileProgram(p, 3, 10'000'000).totalInsts;
}

TEST(Unroll, ReplicatesBodyWithSingleLatch)
{
    auto p = makeLoop(64);
    const auto before = p.functions[0].blocks[1].instrs.size();
    const auto stats = compiler::unrollLoops(p, 4);
    EXPECT_EQ(stats.loopsUnrolled, 1u);
    const auto &body = p.functions[0].blocks[1].instrs;
    // 4 copies of the 4-instruction body + one terminator.
    EXPECT_EQ(body.size(), 4 * (before - 1) + 1);
    // Exactly one control-flow instruction, and it is last.
    unsigned ctrl = 0;
    for (const auto &in : body)
        ctrl += isa::isCtrlFlow(in.op);
    EXPECT_EQ(ctrl, 1u);
    EXPECT_TRUE(isa::isCondBranch(body.back().op));
}

TEST(Unroll, DynamicInstructionCountRoughlyPreserved)
{
    auto base = makeLoop(96);
    const auto len_before = dynLength(base);
    compiler::unrollLoops(base, 4);
    const auto len_after = dynLength(base);
    // The same work is executed with 3 of every 4 latch branches
    // removed: shorter, but never by more than the latch share.
    EXPECT_LE(len_after, len_before);
    EXPECT_GE(static_cast<double>(len_after), 0.75 * len_before);
}

TEST(Unroll, IntermediateInstancesGetFreshValues)
{
    auto p = makeLoop(64);
    const auto nvals = p.values.size();
    compiler::unrollLoops(p, 4);
    // Three extra instances of {x, acc, i, c}.
    EXPECT_EQ(p.values.size(), nvals + 3 * 4);
}

TEST(Unroll, FinalInstanceRestoresOriginalNames)
{
    auto p = makeLoop(64);
    const auto acc_name = std::string("acc");
    compiler::unrollLoops(p, 2);
    const auto &body = p.functions[0].blocks[1].instrs;
    // The last write to an 'acc'-family value must be the original.
    prog::ValueId last_acc = prog::kNoValue;
    for (const auto &in : body)
        if (in.dest != prog::kNoValue &&
            p.values[in.dest].name.substr(0, 3) == acc_name)
            last_acc = in.dest;
    ASSERT_NE(last_acc, prog::kNoValue);
    EXPECT_EQ(p.values[last_acc].name, "acc"); // no ".u" suffix
}

TEST(Unroll, SkipsNonCountedLoops)
{
    prog::Builder b("bern");
    const auto fn = b.function("main");
    const auto entry = b.block(fn, 1);
    const auto body = b.block(fn, 10);
    const auto exit = b.block(fn, 1);
    b.setInsertPoint(fn, entry);
    const auto x = b.emitConst(RegClass::Int, 0, "x");
    b.edge(fn, entry, body);
    b.setInsertPoint(fn, body);
    b.emitRRITo(x, Op::Add, x, 1);
    b.emitBranch(Op::Bne, x,
                 b.branch(prog::BranchModel::bernoulli(0.9)));
    b.edge(fn, body, exit);
    b.edge(fn, body, body);
    b.setInsertPoint(fn, exit);
    b.emitRet();
    auto p = b.build();
    const auto stats = compiler::unrollLoops(p, 4);
    EXPECT_EQ(stats.loopsUnrolled, 0u);
}

TEST(Unroll, SkipsLoopsWithCalls)
{
    prog::Builder b("call");
    const auto fn = b.function("main");
    const auto callee = b.function("f");
    const auto entry = b.block(fn, 1);
    const auto body = b.block(fn, 10);
    const auto cont = b.block(fn, 10);
    const auto exit = b.block(fn, 1);
    b.setInsertPoint(fn, entry);
    const auto x = b.emitConst(RegClass::Int, 0, "x");
    b.edge(fn, entry, body);
    b.setInsertPoint(fn, body);
    b.emitRRITo(x, Op::Add, x, 1);
    b.emitJsr(callee);
    b.edge(fn, body, cont);
    b.setInsertPoint(fn, cont);
    b.emitBranch(Op::Bne, x, b.branch(prog::BranchModel::loop(10)));
    b.edge(fn, cont, exit);
    b.edge(fn, cont, body);
    b.setInsertPoint(fn, exit);
    b.emitRet();
    const auto cb = b.block(callee, 10);
    b.setInsertPoint(callee, cb);
    b.emitRet();
    auto p = b.build();
    // The self-loop here is body->cont->body, not a self edge, and the
    // call block must never be replicated.
    const auto stats = compiler::unrollLoops(p, 4);
    EXPECT_EQ(stats.loopsUnrolled, 0u);
}

TEST(Unroll, CompiledUnrolledProgramStillValidates)
{
    auto p = makeLoop(128);
    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Local;
    copt.numClusters = 2;
    copt.unrollFactor = 4;
    const auto out = compiler::compile(p, copt);
    EXPECT_EQ(out.unrollStats.loopsUnrolled, 1u);
    const auto s = runner::simulate(
        out.binary, out.hardwareMap(2),
        core::ProcessorConfig::dualCluster8(), 11, 100'000);
    EXPECT_EQ(s.status, runner::JobStatus::Ok);
    EXPECT_GT(s.retired, 100u);
}

TEST(Unroll, InterleavesIterationsAcrossClusters)
{
    // A serial fp kernel: without unrolling the partitioner must keep
    // the chain in one cluster; with unrolling, distinct iteration
    // instances can land in different clusters.
    prog::Builder b("fpchain");
    const auto fn = b.function("main");
    const auto entry = b.block(fn, 1);
    const auto body = b.block(fn, 512, "body");
    const auto exit = b.block(fn, 1);
    const auto arr = b.stream(prog::AddrStream::strided(0x2000, 8,
                                                        256 * 1024));
    b.setInsertPoint(fn, entry);
    const auto i = b.emitConst(RegClass::Int, 0, "i");
    const auto k1 = b.emitConst(RegClass::Fp, 3, "k1");
    const auto base = b.emitConst(RegClass::Int, 0x2000, "base");
    b.edge(fn, entry, body);
    b.setInsertPoint(fn, body);
    const auto v = b.emitLoad(Op::Ldt, arr, base, "v");
    const auto t1 = b.emitRRR(Op::MulF, v, k1, "t1");
    const auto t2 = b.emitRRR(Op::AddF, t1, v, "t2");
    b.emitStore(Op::Stt, t2, arr, base);
    b.emitRRITo(i, Op::Add, i, 1);
    const auto c = b.emitRRI(Op::CmpLt, i, 512, "c");
    b.emitBranch(Op::Bne, c, b.branch(prog::BranchModel::loop(512)));
    b.edge(fn, body, exit);
    b.edge(fn, body, body);
    b.setInsertPoint(fn, exit);
    b.emitRet();
    const auto p = b.build();

    auto fpWorkBalance = [&](unsigned factor) {
        auto copt = compiler::CompileOptions{};
        copt.scheduler = compiler::SchedulerKind::Local;
        copt.numClusters = 2;
        copt.unrollFactor = factor;
        const auto out = compiler::compile(p, copt);
        // Count fp-op parity split in the hot block of the binary.
        std::uint64_t fp[2] = {0, 0};
        for (const auto &mfn : out.binary.functions)
            for (const auto &blk : mfn.blocks)
                for (const auto &e : blk.instrs) {
                    const auto cls = isa::opClass(e.mi.op);
                    if (cls != isa::OpClass::FpOther ||
                        !e.mi.dest.has_value())
                        continue;
                    ++fp[e.mi.dest->index % 2];
                }
        return fp[0] == 0 || fp[1] == 0
                   ? 0.0
                   : static_cast<double>(std::min(fp[0], fp[1])) /
                         static_cast<double>(fp[0] + fp[1]);
    };

    // Unrolled code must spread fp work at least as well as the rolled
    // loop (and strictly better when the rolled loop is one-sided).
    const double rolled = fpWorkBalance(1);
    const double unrolled = fpWorkBalance(4);
    EXPECT_GE(unrolled, rolled);
    EXPECT_GT(unrolled, 0.2); // both clusters get fp work
}

} // namespace
