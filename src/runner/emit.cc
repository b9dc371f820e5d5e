#include "runner/emit.hh"

#include <cstdio>

#include "support/json.hh"

namespace mca::runner
{

namespace
{

std::string
csvEscape(const std::string &s)
{
    if (s.find_first_of(",\"\n") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

} // namespace

void
emitJsonLine(std::ostream &os, const JobResult &r)
{
    os << "{"
       << "\"hash\":\"" << r.spec.contentHash() << "\""
       << ",\"benchmark\":\"" << jsonEscape(r.spec.benchmark) << "\""
       << ",\"machine\":\"" << jsonEscape(r.spec.machine) << "\""
       << ",\"scheduler\":\"" << jsonEscape(r.spec.scheduler) << "\""
       << ",\"threshold\":" << r.spec.threshold
       << ",\"unroll\":" << r.spec.unroll
       << ",\"predictor\":\"" << jsonEscape(r.spec.predictor) << "\""
       << ",\"scale\":" << jsonDouble(r.spec.scale)
       << ",\"trace_seed\":" << r.spec.traceSeed
       << ",\"profile_seed\":" << r.spec.profileSeed
       << ",\"max_insts\":" << r.spec.maxInsts
       << ",\"max_cycles\":" << r.spec.maxCycles
       << ",\"l2_kb\":" << r.spec.l2Kb
       << ",\"l2_lat\":" << r.spec.l2Lat
       << ",\"mem_lat\":" << r.spec.memLat
       << ",\"fill_ports\":" << r.spec.fillPorts
       << ",\"sample_period\":" << r.spec.samplePeriod
       << ",\"sample_detail\":" << r.spec.sampleDetail
       << ",\"sample_warmup\":" << r.spec.sampleWarmup
       << ",\"status\":\"" << jobStatusName(r.status) << "\""
       << ",\"error\":\"" << jsonEscape(r.error) << "\""
       << ",\"cycles\":" << r.cycles
       << ",\"retired\":" << r.retired
       << ",\"ipc\":" << jsonDouble(r.ipc)
       << ",\"dist_single\":" << r.distSingle
       << ",\"dist_dual\":" << r.distDual
       << ",\"operand_forwards\":" << r.operandForwards
       << ",\"result_forwards\":" << r.resultForwards
       << ",\"replays\":" << r.replays
       << ",\"issue_disorder\":" << r.issueDisorder
       << ",\"bpred_accuracy\":" << jsonDouble(r.bpredAccuracy)
       << ",\"dcache_miss_rate\":" << jsonDouble(r.dcacheMissRate)
       << ",\"icache_miss_rate\":" << jsonDouble(r.icacheMissRate)
       << ",\"l2_miss_rate\":" << jsonDouble(r.l2MissRate)
       << ",\"spill_loads\":" << r.spillLoads
       << ",\"spill_stores\":" << r.spillStores
       << ",\"other_cluster_spills\":" << r.otherClusterSpills
       << ",\"partition_cut\":" << r.partitionCut
       << ",\"partition_balance\":" << jsonDouble(r.partitionBalance)
       << ",\"stack_slots\":" << r.stackSlots;
    for (std::size_t i = 0; i < obs::kNumStallCauses; ++i)
        os << ",\"stack_"
           << obs::stallCauseName(static_cast<obs::StallCause>(i))
           << "\":" << r.stackSlotCycles[i];
    os << ",\"sampled\":" << (r.sampled ? "true" : "false")
       << ",\"sampled_intervals\":" << r.sampledIntervals
       << ",\"cpi_ci95\":" << jsonDouble(r.cpiCi95)
       << ",\"wall_ms\":" << jsonDouble(r.wallMs)
       << ",\"from_cache\":" << (r.fromCache ? "true" : "false")
       << "}";
}

void
emitJsonLines(std::ostream &os, const std::vector<JobResult> &results)
{
    for (const auto &result : results) {
        emitJsonLine(os, result);
        os << "\n";
    }
}

void
emitCsvHeader(std::ostream &os)
{
    os << "hash,benchmark,machine,scheduler,threshold,unroll,predictor,"
          "scale,trace_seed,profile_seed,max_insts,max_cycles,l2_kb,"
          "l2_lat,mem_lat,fill_ports,status,error,cycles,retired,ipc,"
          "dist_single,dist_dual,operand_forwards,result_forwards,"
          "replays,issue_disorder,bpred_accuracy,dcache_miss_rate,"
          "icache_miss_rate,l2_miss_rate,spill_loads,spill_stores,"
          "other_cluster_spills,partition_cut,partition_balance,"
          "stack_slots";
    for (std::size_t i = 0; i < obs::kNumStallCauses; ++i)
        os << ",stack_"
           << obs::stallCauseName(static_cast<obs::StallCause>(i));
    os << ",wall_ms,from_cache\n";
}

void
emitCsvRow(std::ostream &os, const JobResult &r)
{
    os << r.spec.contentHash() << ',' << csvEscape(r.spec.benchmark) << ','
       << csvEscape(r.spec.machine) << ',' << csvEscape(r.spec.scheduler)
       << ',' << r.spec.threshold << ',' << r.spec.unroll << ','
       << csvEscape(r.spec.predictor) << ',' << jsonDouble(r.spec.scale)
       << ',' << r.spec.traceSeed << ',' << r.spec.profileSeed << ','
       << r.spec.maxInsts << ',' << r.spec.maxCycles << ','
       << r.spec.l2Kb << ',' << r.spec.l2Lat << ',' << r.spec.memLat
       << ',' << r.spec.fillPorts << ','
       << jobStatusName(r.status) << ',' << csvEscape(r.error) << ','
       << r.cycles << ',' << r.retired << ',' << jsonDouble(r.ipc) << ','
       << r.distSingle << ',' << r.distDual << ',' << r.operandForwards
       << ',' << r.resultForwards << ',' << r.replays << ','
       << r.issueDisorder << ',' << jsonDouble(r.bpredAccuracy) << ','
       << jsonDouble(r.dcacheMissRate) << ','
       << jsonDouble(r.icacheMissRate) << ','
       << jsonDouble(r.l2MissRate) << ',' << r.spillLoads << ','
       << r.spillStores << ',' << r.otherClusterSpills << ','
       << r.partitionCut << ',' << jsonDouble(r.partitionBalance) << ','
       << r.stackSlots;
    for (std::size_t i = 0; i < obs::kNumStallCauses; ++i)
        os << ',' << r.stackSlotCycles[i];
    os << ',' << jsonDouble(r.wallMs) << ','
       << (r.fromCache ? "true" : "false") << '\n';
}

void
emitCsv(std::ostream &os, const std::vector<JobResult> &results)
{
    emitCsvHeader(os);
    for (const auto &result : results)
        emitCsvRow(os, result);
}

void
emitSummary(std::ostream &os, const CampaignSummary &summary)
{
    char wall[32];
    if (summary.wallMs >= 1000.0)
        std::snprintf(wall, sizeof wall, "%.2f s", summary.wallMs / 1000.0);
    else
        std::snprintf(wall, sizeof wall, "%.1f ms", summary.wallMs);
    os << summary.total << " jobs: " << summary.ok << " ok, "
       << summary.timedOut << " timeout, " << summary.failed
       << " failed (" << summary.fromCache << " from cache) in " << wall;
    if (summary.compiles > 0)
        os << " | compiles: " << summary.compiles << " ("
           << summary.compileHits << " shared)";
    if (summary.jobs > 0) {
        os << " | jobs: " << summary.jobs;
        if (summary.criticalPathMs > 0.0) {
            char cp[32];
            std::snprintf(cp, sizeof cp, "%.1f", summary.criticalPathMs);
            os << ", critical path " << cp << " ms, peak queue "
               << summary.maxQueueDepth;
        }
    }
    os << "\n";
}

ProgressPrinter::ProgressPrinter(std::ostream &os, bool enabled)
    : os_(os), enabled_(enabled)
{
}

void
ProgressPrinter::operator()(std::size_t finished, std::size_t total,
                            const JobResult &result)
{
    if (!enabled_)
        return;
    switch (result.status) {
    case JobStatus::Ok: ++tally_.ok; break;
    case JobStatus::TimedOut: ++tally_.timedOut; break;
    case JobStatus::Failed: ++tally_.failed; break;
    }
    if (result.fromCache)
        ++tally_.fromCache;
    os_ << "\r[" << finished << "/" << total << "] ok=" << tally_.ok
        << " timeout=" << tally_.timedOut << " failed=" << tally_.failed
        << " cache=" << tally_.fromCache << "  " << result.spec.benchmark
        << "/" << result.spec.machine << "/" << result.spec.scheduler
        << "            " << std::flush;
    dirty_ = true;
}

void
ProgressPrinter::finish()
{
    if (dirty_) {
        os_ << "\n";
        dirty_ = false;
    }
}

} // namespace mca::runner
