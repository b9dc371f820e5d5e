#include "sample/spec.hh"

#include <sstream>
#include <stdexcept>
#include <vector>

#include "support/flags.hh"

namespace mca::sample
{

namespace
{

std::vector<std::string>
splitList(const std::string &text, char sep)
{
    std::vector<std::string> out;
    std::string cur;
    std::istringstream in(text);
    while (std::getline(in, cur, sep))
        out.push_back(cur);
    return out;
}

} // namespace

SampleSpec
SampleSpec::parse(const std::string &text)
{
    const auto colon = text.find(':');
    const std::string modeName = text.substr(0, colon);

    SampleSpec spec;
    if (modeName == "systematic")
        spec.mode = Mode::Systematic;
    else if (modeName == "periodic")
        spec.mode = Mode::Periodic;
    else
        throw std::runtime_error("sample spec: unknown mode '" + modeName +
                                 "' (expected systematic or periodic)");

    if (colon != std::string::npos && colon + 1 < text.size()) {
        for (const std::string &item :
             splitList(text.substr(colon + 1), ',')) {
            const auto eq = item.find('=');
            if (eq == std::string::npos)
                throw std::runtime_error(
                    "sample spec: expected key=value, got '" + item + "'");
            const std::string key = item.substr(0, eq);
            const std::string value = item.substr(eq + 1);
            const std::string flag = "sample spec: " + key;
            const auto count = [&] {
                return parseUnsignedFlag(value, flag.c_str());
            };
            if (key == "period")
                spec.period = count();
            else if (key == "detail")
                spec.detail = count();
            else if (key == "warmup")
                spec.warmup = count();
            else if (key == "offset")
                spec.offset = count();
            else if (key == "jobs") // a worker count, bounded like --jobs
                spec.jobs = static_cast<unsigned>(
                    parseUnsignedFlag(value, flag.c_str(), kMaxJobs));
            else
                throw std::runtime_error("sample spec: unknown key '" + key +
                                         "'");
        }
    }

    spec.validate();
    return spec;
}

void
SampleSpec::validate() const
{
    if (period == 0)
        throw std::runtime_error("sample spec: period must be >= 1");
    if (detail == 0)
        throw std::runtime_error("sample spec: detail must be >= 1");
    // Written so that no sum can wrap: warmup + detail <= period.
    if (warmup > period || detail > period - warmup)
        throw std::runtime_error(
            "sample spec: warmup+detail (" + std::to_string(warmup) + "+" +
            std::to_string(detail) + ") exceeds period " +
            std::to_string(period) + " (intervals overlap)");
    if (jobs == 0)
        throw std::runtime_error("sample spec: jobs must be >= 1");
}

std::string
SampleSpec::canonical() const
{
    std::ostringstream out;
    out << (mode == Mode::Systematic ? "systematic" : "periodic")
        << ":period=" << period << ",detail=" << detail
        << ",warmup=" << warmup;
    if (mode == Mode::Periodic)
        out << ",offset=" << offset;
    return out.str();
}

} // namespace mca::sample
