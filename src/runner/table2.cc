#include "runner/table2.hh"

#include "support/panic.hh"
#include "workloads/workloads.hh"

namespace mca::runner
{

std::vector<JobSpec>
table2Jobs(const harness::ExperimentOptions &options)
{
    const std::string single = options.eightWay ? "single8" : "single4";
    const std::string dual = options.eightWay ? "dual8" : "dual4";

    std::vector<JobSpec> jobs;
    jobs.reserve(3 * workloads::allBenchmarks().size());
    for (const auto &bench : workloads::allBenchmarks()) {
        JobSpec base;
        base.benchmark = bench.name;
        base.scale = options.workload.scale;
        base.threshold = options.imbalanceThreshold;
        base.traceSeed = options.traceSeed;
        // Table 2 seeds the profiling run with the trace seed.
        base.profileSeed = options.traceSeed;
        base.maxInsts = options.maxInsts;

        JobSpec singleNative = base;
        singleNative.machine = single;
        singleNative.scheduler = "native";
        jobs.push_back(singleNative);

        JobSpec dualNative = base;
        dualNative.machine = dual;
        dualNative.scheduler = "native";
        jobs.push_back(dualNative);

        JobSpec dualLocal = base;
        dualLocal.machine = dual;
        dualLocal.scheduler = "local";
        jobs.push_back(dualLocal);
    }
    return jobs;
}

std::vector<harness::Table2Row>
assembleTable2Rows(const std::vector<JobResult> &jobs)
{
    MCA_ASSERT(jobs.size() % 3 == 0,
               "table-2 job list must hold three jobs per benchmark");
    std::vector<harness::Table2Row> rows;
    rows.reserve(jobs.size() / 3);
    for (std::size_t i = 0; i + 2 < jobs.size(); i += 3) {
        harness::Table2Row row;
        row.single = jobs[i];
        row.dualNone = jobs[i + 1];
        row.dualLocal = jobs[i + 2];
        row.benchmark = row.single.spec.benchmark;
        row.spillLoadsLocal = row.dualLocal.spillLoads;
        row.spillStoresLocal = row.dualLocal.spillStores;
        row.otherClusterSpills = row.dualLocal.otherClusterSpills;

        auto pct = [&](const JobResult &dual) {
            if (row.single.cycles == 0)
                return 0.0;
            return 100.0 -
                   100.0 * (static_cast<double>(dual.cycles) /
                            static_cast<double>(row.single.cycles));
        };
        row.pctNone = pct(row.dualNone);
        row.pctLocal = pct(row.dualLocal);
        rows.push_back(std::move(row));
    }
    return rows;
}

Table2CampaignResult
runTable2Campaign(const harness::ExperimentOptions &options,
                  const CampaignOptions &campaign)
{
    Table2CampaignResult out;
    const auto jobs = table2Jobs(options);
    out.jobs = runCampaign(jobs, campaign, &out.summary);
    out.rows = assembleTable2Rows(out.jobs);
    return out;
}

} // namespace mca::runner
