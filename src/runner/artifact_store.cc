#include "runner/artifact_store.hh"

#include <filesystem>
#include <fstream>
#include <thread>

#include "prof/prof.hh"
#include "support/json.hh"
#include "support/panic.hh"

namespace mca::runner
{

namespace
{

// v6: unified artifact-store layout — a `type` line names the payload
// kind so every artifact class shares one addressing scheme. v5 and
// older entries (the pre-ArtifactStore result cache) fail the version
// check and read as cold; a rerun overwrites them in place.
constexpr int kFormatVersion = 6;

} // namespace

ArtifactStore::ArtifactStore(std::string dir) : dir_(std::move(dir)) {}

std::string
ArtifactStore::resultPath(const JobSpec &spec) const
{
    return dir_ + "/" + spec.contentHash() + ".result";
}

std::optional<JobResult>
ArtifactStore::loadResult(const JobSpec &spec) const
{
    if (!persistent())
        return std::nullopt;
    std::ifstream in(resultPath(spec));
    if (!in)
        return std::nullopt;

    std::map<std::string, std::string> fields;
    std::string line;
    while (std::getline(in, line)) {
        const auto tab = line.find('\t');
        if (tab == std::string::npos)
            continue;
        fields[line.substr(0, tab)] = line.substr(tab + 1);
    }

    // Reject stale formats, foreign payload types, and (theoretical)
    // hash collisions: the artifact must carry the exact canonical key
    // of the requesting spec.
    if (fields["version"] != std::to_string(kFormatVersion) ||
        fields["type"] != "result" ||
        fields["key"] != spec.canonicalKey())
        return std::nullopt;

    try {
        JobResult out;
        out.spec = spec;
        const std::string &status = fields.at("status");
        if (status == "ok")
            out.status = JobStatus::Ok;
        else if (status == "timeout")
            out.status = JobStatus::TimedOut;
        else
            return std::nullopt;
        out.error = fields["error"];
        out.cycles = std::stoull(fields.at("cycles"));
        out.retired = std::stoull(fields.at("retired"));
        out.ipc = std::stod(fields.at("ipc"));
        out.distSingle = std::stoull(fields.at("distSingle"));
        out.distDual = std::stoull(fields.at("distDual"));
        out.operandForwards = std::stoull(fields.at("operandForwards"));
        out.resultForwards = std::stoull(fields.at("resultForwards"));
        out.replays = std::stoull(fields.at("replays"));
        out.issueDisorder = std::stoull(fields.at("issueDisorder"));
        out.bpredAccuracy = std::stod(fields.at("bpredAccuracy"));
        out.dcacheMissRate = std::stod(fields.at("dcacheMissRate"));
        out.icacheMissRate = std::stod(fields.at("icacheMissRate"));
        out.l2MissRate = std::stod(fields.at("l2MissRate"));
        out.spillLoads = std::stoull(fields.at("spillLoads"));
        out.spillStores = std::stoull(fields.at("spillStores"));
        out.otherClusterSpills = std::stoull(fields.at("otherClusterSpills"));
        out.partitionCut = std::stoull(fields.at("partitionCut"));
        out.partitionBalance = std::stod(fields.at("partitionBalance"));
        out.stackSlots =
            static_cast<unsigned>(std::stoul(fields.at("stackSlots")));
        for (std::size_t i = 0; i < obs::kNumStallCauses; ++i)
            out.stackSlotCycles[i] = std::stoull(fields.at(
                std::string("stack_") +
                obs::stallCauseName(static_cast<obs::StallCause>(i))));
        out.sampled = fields.at("sampled") == "1";
        out.sampledIntervals = std::stoull(fields.at("sampledIntervals"));
        out.cpiCi95 = std::stod(fields.at("cpiCi95"));
        out.wallMs = std::stod(fields.at("wallMs"));
        out.fromCache = true;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            ++stats_.resultHits;
        }
        return out;
    } catch (const std::exception &) {
        return std::nullopt; // malformed artifact == miss; rerun overwrites
    }
}

void
ArtifactStore::storeResult(const JobResult &result) const
{
    if (!persistent() || result.status == JobStatus::Failed)
        return;

    std::error_code ec;
    std::filesystem::create_directories(dir_, ec);
    if (ec) {
        MCA_WARN("artifact store: cannot create '", dir_, "': ",
                 ec.message());
        return;
    }

    const std::string path = resultPath(result.spec);
    const std::string tmp =
        path + ".tmp." +
        std::to_string(
            std::hash<std::thread::id>{}(std::this_thread::get_id()));
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out) {
            MCA_WARN("artifact store: cannot write '", tmp, "'");
            return;
        }
        out << "version\t" << kFormatVersion << "\n"
            << "type\tresult\n"
            << "key\t" << result.spec.canonicalKey() << "\n"
            << "status\t" << jobStatusName(result.status) << "\n"
            << "error\t" << result.error << "\n"
            << "cycles\t" << result.cycles << "\n"
            << "retired\t" << result.retired << "\n"
            << "ipc\t" << canonicalDouble(result.ipc) << "\n"
            << "distSingle\t" << result.distSingle << "\n"
            << "distDual\t" << result.distDual << "\n"
            << "operandForwards\t" << result.operandForwards << "\n"
            << "resultForwards\t" << result.resultForwards << "\n"
            << "replays\t" << result.replays << "\n"
            << "issueDisorder\t" << result.issueDisorder << "\n"
            << "bpredAccuracy\t" << canonicalDouble(result.bpredAccuracy)
            << "\n"
            << "dcacheMissRate\t" << canonicalDouble(result.dcacheMissRate)
            << "\n"
            << "icacheMissRate\t" << canonicalDouble(result.icacheMissRate)
            << "\n"
            << "l2MissRate\t" << canonicalDouble(result.l2MissRate) << "\n"
            << "spillLoads\t" << result.spillLoads << "\n"
            << "spillStores\t" << result.spillStores << "\n"
            << "otherClusterSpills\t" << result.otherClusterSpills << "\n"
            << "partitionCut\t" << result.partitionCut << "\n"
            << "partitionBalance\t" << canonicalDouble(result.partitionBalance)
            << "\n"
            << "stackSlots\t" << result.stackSlots << "\n";
        for (std::size_t i = 0; i < obs::kNumStallCauses; ++i)
            out << "stack_"
                << obs::stallCauseName(static_cast<obs::StallCause>(i))
                << "\t" << result.stackSlotCycles[i] << "\n";
        out << "sampled\t" << (result.sampled ? 1 : 0) << "\n"
            << "sampledIntervals\t" << result.sampledIntervals << "\n"
            << "cpiCi95\t" << canonicalDouble(result.cpiCi95) << "\n"
            << "wallMs\t" << canonicalDouble(result.wallMs) << "\n";
    }
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        MCA_WARN("artifact store: cannot rename '", tmp, "': ",
                 ec.message());
        std::filesystem::remove(tmp, ec);
    }
}

ArtifactStore::Compiled
ArtifactStore::getOrCompile(const std::string &key, const Builder &build,
                            bool *hit)
{
    std::promise<Compiled> promise;
    std::shared_future<Compiled> future;
    bool building = false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        ++stats_.compileLookups;
        auto it = compiled_.find(key);
        if (it == compiled_.end()) {
            building = true;
            ++stats_.compiles;
            future = promise.get_future().share();
            compiled_.emplace(key, future);
        } else {
            ++stats_.compileHits;
            future = it->second;
        }
    }
    if (hit)
        *hit = !building;
    if (!building) {
        // Counted as a host-profile region so campaign profiles show
        // how often jobs adopt someone else's compile. Under the
        // task-graph campaign the future is already ready (the compile
        // node preceded us), so this never blocks a worker.
        PROF_SCOPE("runner.artifacts.compile_hit");
        return future.get();
    }
    try {
        promise.set_value(
            std::make_shared<const compiler::CompileOutput>(build()));
    } catch (...) {
        promise.set_exception(std::current_exception());
    }
    return future.get();
}

ArtifactStore::Stats
ArtifactStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::string
ArtifactStore::compileKeyFor(const JobSpec &spec,
                             const compiler::CompileOptions &options)
{
    return "benchmark=" + spec.benchmark +
           ";scale=" + canonicalDouble(spec.scale) + ";" +
           options.canonicalKey();
}

} // namespace mca::runner
