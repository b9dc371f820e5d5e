/**
 * @file
 * Tests for the observability subsystem: cycle-stack conservation on
 * the paper scenarios, benchmark runs and campaign jobs; interval
 * sampler row arithmetic and serialization; Perfetto trace-event
 * export (valid JSON, per-track monotonic timestamps, lane packing);
 * and the validating JSON parser itself.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "compiler/pipeline.hh"
#include "core/processor.hh"
#include "core/timeline.hh"
#include "exec/trace.hh"
#include "harness/scenarios.hh"
#include "isa/inst.hh"
#include "isa/registers.hh"
#include "obs/cycle_stack.hh"
#include "obs/json.hh"
#include "obs/perfetto.hh"
#include "obs/sampler.hh"
#include "obs/snapshot.hh"
#include "runner/jobspec.hh"
#include "support/stats.hh"
#include "workloads/workloads.hh"

namespace
{

using namespace mca;
using obs::StallCause;

// ---------------------------------------------------------------- //
// CycleStack arithmetic                                            //
// ---------------------------------------------------------------- //

TEST(CycleStack, AccountPartitionsEverySlot)
{
    obs::CycleStack cs;
    cs.slots = 8;
    cs.account(8, StallCause::Base);        // full retire cycle
    cs.account(3, StallCause::DcacheMem);  // 3 base + 5 miss
    cs.account(0, StallCause::RemoteReg);   // fully stalled
    EXPECT_EQ(cs.cycles, 3u);
    EXPECT_EQ(cs.at(StallCause::Base), 11u);
    EXPECT_EQ(cs.at(StallCause::DcacheMem), 5u);
    EXPECT_EQ(cs.at(StallCause::RemoteReg), 8u);
    EXPECT_EQ(cs.totalSlotCycles(), 24u);
    EXPECT_TRUE(cs.conserved());
    EXPECT_DOUBLE_EQ(cs.cyclesOf(StallCause::RemoteReg), 1.0);
    EXPECT_DOUBLE_EQ(cs.cyclesOf(StallCause::DcacheMem), 0.625);
}

TEST(CycleStack, ResetClearsCountsButKeepsSlots)
{
    obs::CycleStack cs;
    cs.slots = 4;
    cs.account(1, StallCause::Squash);
    cs.reset();
    EXPECT_EQ(cs.cycles, 0u);
    EXPECT_EQ(cs.totalSlotCycles(), 0u);
    EXPECT_EQ(cs.slots, 4u);
    EXPECT_TRUE(cs.conserved());
}

TEST(CycleStack, EveryCauseHasDistinctNameAndDesc)
{
    std::vector<std::string> names;
    for (std::size_t i = 0; i < obs::kNumStallCauses; ++i) {
        const auto cause = static_cast<StallCause>(i);
        const std::string name = obs::stallCauseName(cause);
        EXPECT_NE(name, "<bad-cause>");
        EXPECT_NE(std::string(obs::stallCauseDesc(cause)), "<bad-cause>");
        for (const auto &prev : names)
            EXPECT_NE(name, prev);
        names.push_back(name);
    }
}

// ---------------------------------------------------------------- //
// Conservation on real runs                                        //
// ---------------------------------------------------------------- //

TEST(Conservation, AllFivePaperScenarios)
{
    const auto scenarios = harness::runScenarios();
    ASSERT_EQ(scenarios.size(), 5u);
    for (const auto &s : scenarios) {
        SCOPED_TRACE("scenario " + std::to_string(s.number));
        EXPECT_EQ(s.stack.slots, 8u);
        EXPECT_EQ(s.stack.cycles, s.totalCycles);
        EXPECT_TRUE(s.stack.conserved());
        // Two retired instructions occupy exactly two Base slots plus
        // whatever head-executing cycles also land in Base.
        EXPECT_GE(s.stack.at(StallCause::Base), 2u);
        // A two-instruction trace drains the pipeline at the end.
        EXPECT_GT(s.stack.at(StallCause::Drain), 0u);
    }
}

TEST(Conservation, BenchmarkSimulation)
{
    const auto program =
        workloads::makeCompress(workloads::WorkloadParams{0.05});
    compiler::CompileOptions copt;
    copt.scheduler = compiler::SchedulerKind::Local;
    copt.numClusters = 2;
    const auto out = compiler::compile(program, copt);
    const auto stats = runner::simulate(
        out.binary, out.hardwareMap(2),
        core::ProcessorConfig::dualCluster8(), 42, 10'000);
    ASSERT_EQ(stats.status, runner::JobStatus::Ok);
    obs::CycleStack cs;
    cs.slotCycles = stats.stackSlotCycles;
    cs.slots = stats.stackSlots;
    cs.cycles = stats.cycles;
    EXPECT_EQ(cs.slots, 8u);
    EXPECT_TRUE(cs.conserved());
    // Every retired instruction is one Base slot-cycle.
    EXPECT_GE(cs.at(StallCause::Base), stats.retired);
}

TEST(Conservation, CampaignJobCarriesTheStack)
{
    runner::JobSpec spec;
    spec.benchmark = "compress";
    spec.scale = 0.05;
    spec.maxInsts = 10'000;
    const auto result = runner::runJob(spec);
    ASSERT_EQ(result.status, runner::JobStatus::Ok) << result.error;
    EXPECT_EQ(result.stackSlots, 8u);
    std::uint64_t total = 0;
    for (auto v : result.stackSlotCycles)
        total += v;
    EXPECT_EQ(total, std::uint64_t{result.stackSlots} * result.cycles);
}

// ---------------------------------------------------------------- //
// PeriodicSampler                                                  //
// ---------------------------------------------------------------- //

/** Synthetic one-cluster observation after `cycle` completed cycles. */
obs::CycleObs
syntheticObs(Cycle cycle)
{
    obs::CycleObs o;
    o.cycle = cycle;
    o.retired = 2 * cycle;  // steady 2 IPC
    o.dispatched = 3 * cycle;
    o.icacheAccesses = cycle;
    o.icacheMisses = cycle / 10;
    o.dcacheAccesses = 2 * cycle;
    o.dcacheMisses = cycle / 5;
    o.robOcc = 4;
    o.robCap = 32;
    obs::ClusterObs cl;
    cl.queueOcc = 3;
    cl.queueCap = 16;
    cl.otbInUse = 1;
    cl.otbCap = 15;
    cl.rtbInUse = 2;
    cl.rtbCap = 15;
    o.clusters.push_back(cl);
    return o;
}

TEST(PeriodicSampler, RowsPartitionTheRunWithoutLoss)
{
    obs::PeriodicSampler sampler(10);
    const Cycle total = 25;
    for (Cycle c = 1; c <= total; ++c)
        sampler.tick(syntheticObs(c));
    sampler.finish();

    const auto &rows = sampler.rows();
    ASSERT_EQ(rows.size(), 3u);  // 10 + 10 + trailing 5

    // Intervals tile the run: [0,10], [10,20], [20,25].
    EXPECT_EQ(rows[0].cycleBegin, 0u);
    EXPECT_EQ(rows[0].cycleEnd, 10u);
    EXPECT_EQ(rows[1].cycleBegin, 10u);
    EXPECT_EQ(rows[1].cycleEnd, 20u);
    EXPECT_EQ(rows[2].cycleBegin, 20u);
    EXPECT_EQ(rows[2].cycleEnd, 25u);

    // No retired instruction is lost or double-counted across rows.
    std::uint64_t retired = 0;
    for (const auto &row : rows)
        retired += row.retired;
    EXPECT_EQ(retired, 2 * total);
    EXPECT_DOUBLE_EQ(rows[0].ipc, 2.0);
    EXPECT_DOUBLE_EQ(rows[2].ipc, 2.0);

    // Constant occupancies come back exactly.
    ASSERT_EQ(rows[0].clusters.size(), 1u);
    EXPECT_DOUBLE_EQ(rows[0].clusters[0].queueMean, 3.0);
    EXPECT_EQ(rows[0].clusters[0].queueP50, 3u);
    EXPECT_EQ(rows[0].clusters[0].queueP99, 3u);
    EXPECT_DOUBLE_EQ(rows[0].clusters[0].otbMean, 1.0);
    EXPECT_DOUBLE_EQ(rows[0].clusters[0].rtbMean, 2.0);
    EXPECT_DOUBLE_EQ(rows[0].robMean, 4.0);
}

TEST(PeriodicSampler, SerializationsAreWellFormed)
{
    obs::PeriodicSampler sampler(4);
    for (Cycle c = 1; c <= 9; ++c)
        sampler.tick(syntheticObs(c));
    sampler.finish();
    ASSERT_EQ(sampler.rows().size(), 3u);

    std::ostringstream jsonl;
    sampler.writeJsonl(jsonl);
    const std::string lines = jsonl.str();
    std::string error;
    EXPECT_TRUE(obs::isValidJsonLines(lines, &error)) << error;
    EXPECT_EQ(std::count(lines.begin(), lines.end(), '\n'), 3);

    std::ostringstream csv;
    sampler.writeCsv(csv);
    // Header + one line per row, all with the same field count.
    std::istringstream in(csv.str());
    std::string line;
    std::vector<std::size_t> fieldCounts;
    while (std::getline(in, line))
        fieldCounts.push_back(
            1 + std::count(line.begin(), line.end(), ','));
    ASSERT_EQ(fieldCounts.size(), 4u);
    for (std::size_t i = 1; i < fieldCounts.size(); ++i)
        EXPECT_EQ(fieldCounts[i], fieldCounts[0]);
}

TEST(PeriodicSampler, EmptyRunProducesNoRows)
{
    obs::PeriodicSampler sampler(100);
    sampler.finish();
    EXPECT_TRUE(sampler.rows().empty());
    std::ostringstream jsonl;
    sampler.writeJsonl(jsonl);
    EXPECT_TRUE(jsonl.str().empty());
}

// ---------------------------------------------------------------- //
// Perfetto export                                                  //
// ---------------------------------------------------------------- //

/** Per-(pid,tid) timestamps must never go backwards (golden check). */
void
expectMonotonicTracks(const std::vector<obs::PerfettoExporter::Event> &evs)
{
    std::map<std::pair<unsigned, unsigned>, Cycle> lastTs;
    for (const auto &ev : evs) {
        if (ev.ph == 'M')
            continue;
        const auto key = std::make_pair(ev.pid, ev.tid);
        const auto it = lastTs.find(key);
        if (it != lastTs.end()) {
            EXPECT_GE(ev.ts, it->second)
                << "track pid=" << ev.pid << " tid=" << ev.tid;
        }
        lastTs[key] = ev.ts;
    }
}

TEST(Perfetto, RealRunExportsValidMonotonicTrace)
{
    // A dual-distributed producer/consumer pair plus independent work,
    // run on the real processor with recorder and per-cycle counters —
    // the same path `mcasim --trace-out` drives.
    using isa::intReg;
    using isa::Op;
    std::vector<exec::DynInst> insts;
    for (unsigned i = 0; i < 4; ++i) {
        exec::DynInst p;
        p.mi = isa::makeRRR(Op::Mull, intReg(2), intReg(4), intReg(4));
        insts.push_back(p);
        exec::DynInst a;
        a.mi = isa::makeRRR(Op::Add, intReg(3), intReg(2), intReg(5));
        insts.push_back(a);
    }
    exec::VectorTrace trace(exec::VectorTrace::normalize(insts));
    StatGroup stats("perfetto_test");
    core::Processor cpu(core::ProcessorConfig::dualCluster8(), trace,
                        stats);
    core::TimelineRecorder recorder;
    cpu.attachTimeline(&recorder);

    obs::PerfettoExporter exporter;
    obs::CycleObs snap;
    while (cpu.step()) {
        cpu.observe(snap);
        exporter.addCounters(snap);
    }
    exporter.addTimeline(recorder, 2);

    std::ostringstream os;
    exporter.write(os);
    std::string error;
    EXPECT_TRUE(obs::isValidJson(os.str(), &error)) << error;
    EXPECT_NE(os.str().find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(os.str().find("process_name"), std::string::npos);

    const auto events = exporter.sortedEvents();
    expectMonotonicTracks(events);
    unsigned slices = 0, counters = 0, metas = 0;
    for (const auto &ev : events) {
        slices += ev.ph == 'X';
        counters += ev.ph == 'C';
        metas += ev.ph == 'M';
    }
    // One process_name per cluster plus the memory-system track.
    EXPECT_EQ(metas, 3u);
    EXPECT_GT(slices, 0u);
    EXPECT_GT(counters, 0u);
}

TEST(Perfetto, OverlappingSlicesGetDistinctLanes)
{
    core::TimelineRecorder rec;
    using core::TimelineEvent;
    // seq 0 spans cycles [1,5], seq 1 spans [2,6] in the same cluster:
    // greedy packing must put them on different lanes.
    rec.record(1, 0, 0, TimelineEvent::Dispatched);
    rec.record(5, 0, 0, TimelineEvent::Retired);
    rec.record(2, 1, 0, TimelineEvent::Dispatched);
    rec.record(6, 1, 0, TimelineEvent::Retired);
    // seq 2 spans [7,8]: lane 1 is free again by then.
    rec.record(7, 2, 0, TimelineEvent::Dispatched);
    rec.record(8, 2, 0, TimelineEvent::Retired);

    obs::PerfettoExporter exporter;
    exporter.addTimeline(rec, 1);
    std::map<InstSeq, unsigned> laneOf;
    for (const auto &ev : exporter.sortedEvents())
        if (ev.ph == 'X') {
            ASSERT_EQ(ev.pid, 0u);
            laneOf[ev.ts == 1 ? 0 : ev.ts == 2 ? 1 : 2] = ev.tid;
        }
    ASSERT_EQ(laneOf.size(), 3u);
    EXPECT_NE(laneOf[0], laneOf[1]);
    EXPECT_EQ(laneOf[2], laneOf[0]);  // reuses the freed first lane
    expectMonotonicTracks(exporter.sortedEvents());
}

TEST(Perfetto, EmptyExportIsStillValidJson)
{
    obs::PerfettoExporter exporter;
    std::ostringstream os;
    exporter.write(os);
    std::string error;
    EXPECT_TRUE(obs::isValidJson(os.str(), &error)) << error;
}

// ---------------------------------------------------------------- //
// JSON validator                                                   //
// ---------------------------------------------------------------- //

TEST(JsonValidator, AcceptsWellFormedDocuments)
{
    const char *good[] = {
        "{}",
        "[]",
        "null",
        "true",
        "-12.5e-3",
        "\"a \\\"quoted\\\" string with \\u00e9 and \\n\"",
        "{\"a\":[1,2,{\"b\":null}],\"c\":false}",
        "  [ 1 , 2 ]  ",
    };
    for (const char *text : good) {
        std::string error;
        EXPECT_TRUE(obs::isValidJson(text, &error))
            << text << ": " << error;
    }
}

TEST(JsonValidator, RejectsMalformedDocuments)
{
    const char *bad[] = {
        "",
        "{",
        "{\"a\":}",
        "[1,2,]",
        "nul",
        "01",
        "\"unterminated",
        "\"bad \\q escape\"",
        "{} {}",       // two top-level values
        "{\"a\":1,}",  // trailing comma
    };
    for (const char *text : bad) {
        std::string error;
        EXPECT_FALSE(obs::isValidJson(text, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(JsonValidator, JsonLinesChecksEveryLine)
{
    EXPECT_TRUE(obs::isValidJsonLines("{\"a\":1}\n{\"b\":2}\n"));
    EXPECT_TRUE(obs::isValidJsonLines(""));      // vacuously valid
    EXPECT_TRUE(obs::isValidJsonLines("\n\n"));  // blank lines skipped
    std::string error;
    EXPECT_FALSE(obs::isValidJsonLines("{\"a\":1}\n{oops}\n", &error));
    EXPECT_NE(error.find("line 2"), std::string::npos) << error;
}

} // namespace
