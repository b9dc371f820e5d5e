/**
 * @file
 * Example: building a custom workload with the full program-model API —
 * multiple functions, nested loops, branch-behaviour models, address
 * streams with different localities, and floating-point kernels — then
 * characterizing it on both machines.
 *
 * The program is a toy "molecular dynamics" step: an outer timestep
 * loop calls a force kernel (fp, stencil-like reads), applies an
 * integration update (fp multiply/add), and occasionally rebuilds a
 * neighbour list (integer, data-dependent branches).
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

    prog::Builder b("custom-md");
    b.globalValue(RegClass::Int, "sp");
    b.globalValue(RegClass::Int, "gp");

    const auto fn_main = b.function("main");
    const auto fn_force = b.function("force_kernel");

    // --- force kernel: strided fp reads, divide, accumulate ---------
    {
        const auto entry = b.block(fn_force, 1, "f_entry");
        const auto body = b.block(fn_force, 64, "f_body");
        const auto exit = b.block(fn_force, 1, "f_exit");
        const auto pos = b.stream(prog::AddrStream::strided(
            0x0300'0000, 8, 256 * 1024));
        const auto frc = b.stream(prog::AddrStream::strided(
            0x0340'2020, 8, 256 * 1024));

        b.setInsertPoint(fn_force, entry);
        const auto k = b.emitConst(RegClass::Int, 0, "k");
        const auto pbase = b.emitConst(RegClass::Int, 0x300000, "pb");
        const auto eps = b.emitConst(RegClass::Fp, 2, "eps");
        b.edge(fn_force, entry, body);

        b.setInsertPoint(fn_force, body);
        const auto r = b.emitLoad(Op::Ldt, pos, pbase, "r");
        const auto r2 = b.emitRRR(Op::MulF, r, r, "r2");
        const auto inv = b.emitRRR(Op::DivD, eps, r2, "inv");
        const auto f = b.emitRRR(Op::MulF, inv, r, "f");
        b.emitStore(Op::Stt, f, frc, pbase);
        b.emitRRITo(k, Op::Add, k, 1);
        const auto c = b.emitRRI(Op::CmpLt, k, 64, "c");
        b.emitBranch(Op::Bne, c, b.branch(prog::BranchModel::loop(64)));
        b.edge(fn_force, body, exit);
        b.edge(fn_force, body, body);

        b.setInsertPoint(fn_force, exit);
        b.emitRet();
    }

    // --- main: timestep loop with an occasional neighbour rebuild ----
    {
        const auto entry = b.block(fn_main, 1, "entry");
        const auto step = b.block(fn_main, 400, "step");
        const auto integrate = b.block(fn_main, 400, "integrate");
        const auto rebuild = b.block(fn_main, 40, "rebuild");
        const auto latch = b.block(fn_main, 400, "latch");
        const auto done = b.block(fn_main, 1, "done");
        const auto vel = b.stream(prog::AddrStream::strided(
            0x0380'4040, 8, 128 * 1024));
        const auto nbr = b.stream(prog::AddrStream::randomIn(
            0x03c0'6060, 96 * 1024));

        b.setInsertPoint(fn_main, entry);
        const auto t = b.emitConst(RegClass::Int, 0, "t");
        const auto vbase = b.emitConst(RegClass::Int, 0x380000, "vb");
        const auto dt = b.emitConst(RegClass::Fp, 1, "dt");
        b.edge(fn_main, entry, step);

        b.setInsertPoint(fn_main, step);
        b.emitJsr(fn_force);
        b.edge(fn_main, step, integrate);

        b.setInsertPoint(fn_main, integrate);
        const auto v = b.emitLoad(Op::Ldt, vel, vbase, "v");
        const auto dv = b.emitRRR(Op::MulF, v, dt, "dv");
        const auto v2 = b.emitRRR(Op::AddF, v, dv, "v2");
        b.emitStore(Op::Stt, v2, vel, vbase);
        // Rebuild the neighbour list every ~10th step.
        const auto drift = b.emitRRI(Op::And, t, 0xf, "drift");
        b.emitBranch(Op::Bne, drift,
                     b.branch(prog::BranchModel::bernoulli(0.1)));
        b.edge(fn_main, integrate, latch);   // usually skip
        b.edge(fn_main, integrate, rebuild); // taken: rebuild

        b.setInsertPoint(fn_main, rebuild);
        const auto cell = b.emitLoad(Op::Ldl, nbr, t, "cell");
        const auto h = b.emitRRI(Op::Srl, cell, 3, "h");
        b.emitStore(Op::Stl, h, nbr, cell);
        b.edge(fn_main, rebuild, latch);

        b.setInsertPoint(fn_main, latch);
        b.emitRRITo(t, Op::Add, t, 1);
        const auto c = b.emitRRI(Op::CmpLt, t, 400, "c");
        b.emitBranch(Op::Bne, c, b.branch(prog::BranchModel::loop(400)));
        b.edge(fn_main, latch, done);
        b.edge(fn_main, latch, step);

        b.setInsertPoint(fn_main, done);
        b.emitRet();
    }

    const prog::Program program = b.build();
    std::cout << "custom workload '" << program.name << "': "
              << program.staticInstCount() << " static instructions, "
              << program.values.size() << " live ranges\n\n";

    // Characterize on both machines with the local scheduler.
    compiler::CompileOptions nopt;
    nopt.scheduler = compiler::SchedulerKind::Native;
    nopt.numClusters = 1;
    const auto native = compiler::compile(program, nopt);

    compiler::CompileOptions lopt;
    lopt.scheduler = compiler::SchedulerKind::Local;
    lopt.numClusters = 2;
    const auto local = compiler::compile(program, lopt);
    std::cout << "local scheduler: "
              << local.partitionTrace.assignmentOrder.size()
              << " live ranges partitioned, "
              << local.alloc.spillLoadsInserted << " spill loads, "
              << local.alloc.otherClusterSpills
              << " ranges recolored into the other cluster\n\n";

    const auto single = runner::requireOk(
        runner::simulate(native.binary, native.hardwareMap(1),
                         core::ProcessorConfig::singleCluster8(), 9,
                         500'000),
        program.name);
    const auto dual = runner::requireOk(
        runner::simulate(local.binary, local.hardwareMap(2),
                         core::ProcessorConfig::dualCluster8(), 9,
                         500'000),
        program.name);

    std::cout << "single cluster: " << single.cycles << " cycles (ipc "
              << single.ipc << ")\n"
              << "dual cluster:   " << dual.cycles << " cycles (ipc "
              << dual.ipc << "), dual-distributed " << dual.distDual
              << " instructions, " << dual.operandForwards
              << " operand + " << dual.resultForwards
              << " result transfers\n";
    return 0;
}
