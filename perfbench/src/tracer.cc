/**
 * @file
 * In-memory span recorder for the traced run.
 */

#include "bench.hh"

#include <algorithm>
#include <fstream>
#include <stdexcept>

namespace mcabench
{

Tracer::Span::~Span()
{
    if (tracer_ && id_ >= 0)
        tracer_->close(id_);
}

Tracer::Span
Tracer::span(const std::string &layer, const std::string &name)
{
    if (!enabled_)
        return Span(nullptr, -1);
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        {layer, name, nowNs(), 0, open_.empty() ? -1 : open_.back()});
    open_.push_back(id);
    return Span(this, id);
}

void
Tracer::close(int id)
{
    spans_[static_cast<std::size_t>(id)].endNs = nowNs();
    // Spans are scoped, so the one closing is the innermost open one.
    if (!open_.empty() && open_.back() == id)
        open_.pop_back();
}

void
Tracer::addChild(const std::string &layer, const std::string &name,
                 std::uint64_t start_ns, std::uint64_t end_ns)
{
    if (!enabled_)
        return;
    spans_.push_back(
        {layer, name, start_ns, end_ns, open_.empty() ? -1 : open_.back()});
}

std::map<std::string, double>
Tracer::selfMsByLayer(const std::string &root, std::size_t *roots) const
{
    // Children's intervals per parent, to subtract the covered part.
    std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> kids(
        spans_.size());
    std::vector<int> top(spans_.size(), -1);
    std::size_t rootCount = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Record &r = spans_[i];
        if (r.parent >= 0) {
            kids[static_cast<std::size_t>(r.parent)].emplace_back(r.startNs,
                                                                  r.endNs);
            top[i] = top[static_cast<std::size_t>(r.parent)];
        } else {
            top[i] = static_cast<int>(i);
            rootCount += r.name == root;
        }
    }
    if (roots)
        *roots = rootCount;

    std::map<std::string, double> self;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Record &r = spans_[i];
        if (spans_[static_cast<std::size_t>(top[i])].name != root ||
            r.endNs < r.startNs)
            continue;
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::uint64_t covered = 0;
        std::uint64_t curStart = 0, curEnd = 0;
        bool have = false;
        for (const auto &[s0, e0] : iv) {
            const std::uint64_t s = std::max(s0, r.startNs);
            const std::uint64_t e = std::min(e0, r.endNs);
            if (e <= s)
                continue;
            if (!have || s > curEnd) {
                covered += have ? curEnd - curStart : 0;
                curStart = s;
                curEnd = e;
                have = true;
            } else {
                curEnd = std::max(curEnd, e);
            }
        }
        covered += have ? curEnd - curStart : 0;
        self[r.layer] +=
            static_cast<double>(r.endNs - r.startNs - covered) / 1e6;
    }
    return self;
}

void
Tracer::writeJson(const std::string &path) const
{
    std::ofstream os(path, std::ios::trunc);
    if (!os)
        throw std::runtime_error("cannot write span file " + path);
    const std::uint64_t origin = spans_.empty() ? 0 : spans_.front().startNs;
    os << "{\"unit\": \"ns\", \"spans\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Record &r = spans_[i];
        os << "  {\"id\": " << i << ", \"parent\": " << r.parent
           << ", \"layer\": \"" << r.layer << "\", \"name\": \"" << r.name
           << "\", \"start\": " << r.startNs - std::min(origin, r.startNs)
           << ", \"end\": " << r.endNs - std::min(origin, r.endNs) << "}"
           << (i + 1 < spans_.size() ? ",\n" : "\n");
    }
    os << "]}\n";
    if (!os)
        throw std::runtime_error("error writing span file " + path);
}

} // namespace mcabench
