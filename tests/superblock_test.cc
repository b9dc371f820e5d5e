/**
 * @file
 * Tests for superblock formation (paper §6): tail duplication,
 * straightening, dynamic-path preservation, and the interaction with
 * the partitioner.
 */

#include <gtest/gtest.h>

#include "compiler/pipeline.hh"
#include "compiler/superblock.hh"
#include "exec/trace.hh"
#include "exec/walker.hh"
#include "runner/jobspec.hh"
#include "prog/builder.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;
using isa::Op;
using isa::RegClass;

/** Diamond inside a loop: the join block is a tail-duplication target. */
prog::Program
diamondLoop(std::uint64_t trip)
{
    prog::Builder b("dloop");
    const auto fn = b.function("main");
    const auto entry = b.block(fn, 1, "entry");
    const auto head = b.block(fn, static_cast<double>(trip), "head");
    const auto then_b = b.block(fn, trip * 0.7, "then");
    const auto else_b = b.block(fn, trip * 0.3, "else");
    const auto join = b.block(fn, static_cast<double>(trip), "join");
    const auto exit = b.block(fn, 1, "exit");

    b.setInsertPoint(fn, entry);
    const auto i = b.emitConst(RegClass::Int, 0, "i");
    const auto acc = b.emitConst(RegClass::Int, 0, "acc");
    b.edge(fn, entry, head);

    b.setInsertPoint(fn, head);
    const auto t = b.emitRRI(Op::And, i, 3, "t");
    b.emitBranch(Op::Bne, t, b.branch(prog::BranchModel::bernoulli(0.7)));
    b.edge(fn, head, else_b);
    b.edge(fn, head, then_b);

    b.setInsertPoint(fn, then_b);
    b.emitRRRTo(acc, Op::Add, acc, t);
    b.emitBr();
    b.edge(fn, then_b, join);

    b.setInsertPoint(fn, else_b);
    b.emitRRRTo(acc, Op::Sub, acc, t);
    b.edge(fn, else_b, join);

    b.setInsertPoint(fn, join);
    const auto sq = b.emitRRR(Op::Mull, acc, acc, "sq");
    b.emitRRRTo(acc, Op::Xor, acc, sq);
    b.emitRRITo(i, Op::Add, i, 1);
    const auto c = b.emitRRI(Op::CmpLt, i, 1000, "c");
    b.emitBranch(Op::Bne, c, b.branch(prog::BranchModel::loop(trip)));
    b.edge(fn, join, exit);
    b.edge(fn, join, head);

    b.setInsertPoint(fn, exit);
    b.emitRet();
    return b.build();
}

/** Dynamic (op) sequence of an IL program. */
std::vector<isa::Op>
opSequence(const prog::Program &p, std::uint64_t cap = 200'000)
{
    exec::CfgWalker<prog::Program> walker(p, 5);
    exec::WalkSite site;
    std::vector<isa::Op> ops;
    while (ops.size() < cap && walker.step(site)) {
        const auto op =
            p.functions[site.fn].blocks[site.blk].instrs[site.idx].op;
        if (op != isa::Op::Br) // straightening removes Br instructions
            ops.push_back(op);
    }
    return ops;
}

TEST(Superblock, DuplicatesTheJoinTail)
{
    auto p = diamondLoop(100);
    const auto nblocks = p.functions[0].blocks.size();
    const auto stats = compiler::formSuperblocks(p);
    EXPECT_GE(stats.tailsDuplicated, 1u);
    EXPECT_GT(p.functions[0].blocks.size(), nblocks);
}

TEST(Superblock, StraighteningGrowsHotBlocks)
{
    auto p = diamondLoop(100);
    std::size_t max_before = 0;
    for (const auto &blk : p.functions[0].blocks)
        max_before = std::max(max_before, blk.instrs.size());
    const auto stats = compiler::formSuperblocks(p);
    EXPECT_GE(stats.blocksMerged, 1u);
    std::size_t max_after = 0;
    for (const auto &blk : p.functions[0].blocks)
        max_after = std::max(max_after, blk.instrs.size());
    // then/else arms merge with their private join copies.
    EXPECT_GT(max_after, max_before);
}

TEST(Superblock, DynamicPathPreservedModuloBranches)
{
    auto p = diamondLoop(200);
    const auto before = opSequence(p);
    compiler::formSuperblocks(p);
    const auto after = opSequence(p);
    // Same computation ops in the same order (shared branch models keep
    // the walk identical; only unconditional branches disappear).
    EXPECT_EQ(before, after);
}

TEST(Superblock, GrowthIsBounded)
{
    auto p = diamondLoop(100);
    std::size_t before = p.staticInstCount();
    compiler::formSuperblocks(p, 1.3);
    EXPECT_LE(p.staticInstCount(),
              static_cast<std::size_t>(1.3 * before) + 16);
}

TEST(Superblock, SelfLoopsAreLeftAlone)
{
    // A pure counted self-loop has no joins to duplicate.
    prog::Builder b("selfloop");
    const auto fn = b.function("main");
    const auto e = b.block(fn, 1);
    const auto body = b.block(fn, 50);
    const auto x = b.block(fn, 1);
    b.setInsertPoint(fn, e);
    const auto i = b.emitConst(RegClass::Int, 0, "i");
    b.edge(fn, e, body);
    b.setInsertPoint(fn, body);
    b.emitRRITo(i, Op::Add, i, 1);
    const auto c = b.emitRRI(Op::CmpLt, i, 50, "c");
    b.emitBranch(Op::Bne, c, b.branch(prog::BranchModel::loop(50)));
    b.edge(fn, body, x);
    b.edge(fn, body, body);
    b.setInsertPoint(fn, x);
    b.emitRet();
    auto p = b.build();
    const auto stats = compiler::formSuperblocks(p);
    EXPECT_EQ(stats.tailsDuplicated, 0u);
}

TEST(Superblock, CompiledProgramsStillSimulate)
{
    for (const auto &bench : workloads::allBenchmarks()) {
        SCOPED_TRACE(bench.name);
        const auto program =
            bench.make(workloads::WorkloadParams{0.02});
        compiler::CompileOptions copt;
        copt.scheduler = compiler::SchedulerKind::Local;
        copt.numClusters = 2;
        copt.superblocks = true;
        const auto out = compiler::compile(program, copt);
        const auto s = runner::simulate(
            out.binary, out.hardwareMap(2),
            core::ProcessorConfig::dualCluster8(), 11, 30'000);
        EXPECT_EQ(s.status, runner::JobStatus::Ok);
        EXPECT_GT(s.retired, 100u);
    }
}

TEST(Superblock, PathEquivalenceHoldsThroughFullPipeline)
{
    const auto p = diamondLoop(300);
    auto compileWith = [&](compiler::SchedulerKind k, unsigned n) {
        compiler::CompileOptions copt;
        copt.scheduler = k;
        copt.numClusters = n;
        copt.superblocks = true;
        return compiler::compile(p, copt);
    };
    const auto native =
        compileWith(compiler::SchedulerKind::Native, 1);
    const auto local = compileWith(compiler::SchedulerKind::Local, 2);
    auto ops = [](const prog::MachProgram &mp) {
        exec::ProgramTrace trace(mp, 13, 100'000);
        std::vector<isa::Op> out;
        while (auto di = trace.next())
            if (!di->isSpill)
                out.push_back(di->mi.op);
        return out;
    };
    EXPECT_EQ(ops(native.binary), ops(local.binary));
}

} // namespace
