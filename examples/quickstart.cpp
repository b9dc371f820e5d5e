/**
 * @file
 * Quickstart: the minimal end-to-end flow of the library in ~60 lines.
 *
 *  1. Build a small program with the prog::Builder API.
 *  2. Compile it twice: cluster-unaware (the "native binary") and with
 *     the paper's local scheduler for a dual-cluster target.
 *  3. Simulate three machine/binary combinations and compare cycles —
 *     a one-program version of the paper's Table-2 methodology.
 */

#include <iostream>

#include "compiler/pipeline.hh"
#include "runner/jobspec.hh"
#include "prog/builder.hh"

int
main()
{
    using namespace mca;
    using isa::Op;
    using isa::RegClass;

    // --- 1. a small program: sum an array and count odd elements -----
    prog::Builder b("quickstart");
    b.globalValue(RegClass::Int, "sp"); // stack pointer (global reg)
    const auto fn = b.function("main");
    const auto entry = b.block(fn, 1, "entry");
    const auto body = b.block(fn, 5000, "body");
    const auto odd = b.block(fn, 2500, "odd");
    const auto latch = b.block(fn, 5000, "latch");
    const auto done = b.block(fn, 1, "done");

    const auto array = b.stream(prog::AddrStream::strided(
        0x0100'0000, 8, 512 * 1024));
    const auto out = b.stream(prog::AddrStream::fixed(0x0200'0000));

    b.setInsertPoint(fn, entry);
    const auto i = b.emitConst(RegClass::Int, 0, "i");
    const auto sum = b.emitConst(RegClass::Int, 0, "sum");
    const auto odds = b.emitConst(RegClass::Int, 0, "odds");
    const auto base = b.emitConst(RegClass::Int, 0x0100'0000, "base");
    b.edge(fn, entry, body);

    b.setInsertPoint(fn, body);
    const auto x = b.emitLoad(Op::Ldl, array, base, "x");
    b.emitRRRTo(sum, Op::Add, sum, x);
    const auto bit = b.emitRRI(Op::And, x, 1, "bit");
    b.emitBranch(Op::Bne, bit,
                 b.branch(prog::BranchModel::bernoulli(0.5)));
    b.edge(fn, body, latch); // even: fall through
    b.edge(fn, body, odd);   // odd: taken

    b.setInsertPoint(fn, odd);
    b.emitRRITo(odds, Op::Add, odds, 1);
    b.edge(fn, odd, latch);

    b.setInsertPoint(fn, latch);
    b.emitRRITo(i, Op::Add, i, 1);
    const auto c = b.emitRRI(Op::CmpLt, i, 5000, "c");
    b.emitBranch(Op::Bne, c, b.branch(prog::BranchModel::loop(5000)));
    b.edge(fn, latch, done);
    b.edge(fn, latch, body);

    b.setInsertPoint(fn, done);
    b.emitStore(Op::Stl, sum, out, base);
    b.emitRet();
    const prog::Program program = b.build();

    // --- 2. compile both ways -------------------------------------
    compiler::CompileOptions native_opt;
    native_opt.scheduler = compiler::SchedulerKind::Native;
    native_opt.numClusters = 1;
    const auto native = compiler::compile(program, native_opt);

    compiler::CompileOptions local_opt;
    local_opt.scheduler = compiler::SchedulerKind::Local;
    local_opt.numClusters = 2;
    const auto local = compiler::compile(program, local_opt);

    // --- 3. simulate ---------------------------------------------------
    // runner::simulate reports TimedOut when the cycle budget runs out;
    // requireOk turns that into an error instead of a partial count.
    const auto run = [](const compiler::CompileOutput &out,
                        unsigned clusters, core::ProcessorConfig cfg) {
        return runner::requireOk(
            runner::simulate(out.binary, out.hardwareMap(clusters), cfg,
                             42, 1'000'000),
            "quickstart");
    };
    const auto single =
        run(native, 1, core::ProcessorConfig::singleCluster8());
    const auto dual_none =
        run(native, 2, core::ProcessorConfig::dualCluster8());
    const auto dual_local =
        run(local, 2, core::ProcessorConfig::dualCluster8());

    auto report = [&](const char *name, const runner::JobResult &s) {
        std::cout << name << ": " << s.cycles << " cycles, ipc "
                  << s.ipc << ", dual-distributed " << s.distDual
                  << " of " << (s.distSingle + s.distDual)
                  << " instructions\n";
    };
    std::cout << "quickstart program, " << single.retired
              << " dynamic instructions\n\n";
    report("8-way single cluster (native binary) ", single);
    report("dual cluster        (native binary) ", dual_none);
    report("dual cluster        (local sched)   ", dual_local);

    const double pct_none =
        100.0 - 100.0 * double(dual_none.cycles) / double(single.cycles);
    const double pct_local =
        100.0 - 100.0 * double(dual_local.cycles) / double(single.cycles);
    std::cout << "\nTable-2-style ratios: none "
              << (pct_none >= 0 ? "+" : "") << pct_none << "%, local "
              << (pct_local >= 0 ? "+" : "") << pct_local << "%\n";
    return 0;
}
