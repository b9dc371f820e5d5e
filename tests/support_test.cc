/**
 * @file
 * Unit tests for the support library: RNG, saturating counters,
 * circular queues, bitsets, statistics and the JSON writers' shared
 * escaping, the table formatter, checked numeric flag parsing and the
 * flag table.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <unistd.h>

#include "obs/json.hh"
#include "obs/perfetto.hh"
#include "prof/prof.hh"
#include "runner/emit.hh"
#include "runner/telemetry.hh"
#include "support/bitset.hh"
#include "support/circular_queue.hh"
#include "support/flags.hh"
#include "support/json.hh"
#include "support/random.hh"
#include "support/sat_counter.hh"
#include "support/stats.hh"
#include "support/table.hh"

namespace
{

using namespace mca;

// --- Rng ---------------------------------------------------------------

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == b.next()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

TEST(Rng, NextBelowStaysInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(rng.nextBelow(17), 17u);
}

TEST(Rng, NextBelowCoversRange)
{
    Rng rng(7);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 500; ++i)
        seen.insert(rng.nextBelow(8));
    EXPECT_EQ(seen.size(), 8u);
}

TEST(Rng, NextRangeInclusiveBounds)
{
    Rng rng(9);
    bool hit_lo = false, hit_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        hit_lo |= (v == -3);
        hit_hi |= (v == 3);
    }
    EXPECT_TRUE(hit_lo);
    EXPECT_TRUE(hit_hi);
}

TEST(Rng, NextDoubleInUnitInterval)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, BernoulliApproximatesProbability)
{
    Rng rng(13);
    int heads = 0;
    for (int i = 0; i < 10000; ++i)
        heads += rng.nextBool(0.3) ? 1 : 0;
    EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(Rng, GeometricRespectsCap)
{
    Rng rng(17);
    for (int i = 0; i < 200; ++i)
        EXPECT_LE(rng.nextGeometric(0.99, 5), 5u);
}

TEST(Rng, ForkDecorrelates)
{
    Rng a(42);
    Rng child = a.fork();
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += (a.next() == child.next()) ? 1 : 0;
    EXPECT_LT(same, 2);
}

// --- SatCounter ---------------------------------------------------------

TEST(SatCounter, SaturatesHigh)
{
    SatCounter c(2, 0);
    for (int i = 0; i < 10; ++i)
        c.increment();
    EXPECT_EQ(c.value(), 3u);
}

TEST(SatCounter, SaturatesLow)
{
    SatCounter c(2, 3);
    for (int i = 0; i < 10; ++i)
        c.decrement();
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, PredictTakenThreshold)
{
    SatCounter c(2, 0);
    EXPECT_FALSE(c.predictTaken()); // 0
    c.increment();
    EXPECT_FALSE(c.predictTaken()); // 1 (weakly not-taken)
    c.increment();
    EXPECT_TRUE(c.predictTaken()); // 2 (weakly taken)
    c.increment();
    EXPECT_TRUE(c.predictTaken()); // 3
}

TEST(SatCounter, TrainMovesTowardOutcome)
{
    SatCounter c(2, 1);
    c.train(true);
    EXPECT_EQ(c.value(), 2u);
    c.train(false);
    c.train(false);
    EXPECT_EQ(c.value(), 0u);
}

TEST(SatCounter, WiderCounters)
{
    SatCounter c(3, 0);
    EXPECT_EQ(c.saturation(), 7u);
    for (int i = 0; i < 4; ++i)
        c.increment();
    EXPECT_TRUE(c.predictTaken());
}

// --- CircularQueue --------------------------------------------------------

TEST(CircularQueue, FifoOrder)
{
    CircularQueue<int> q(4);
    q.pushBack(1);
    q.pushBack(2);
    q.pushBack(3);
    EXPECT_EQ(q.popFront(), 1);
    EXPECT_EQ(q.popFront(), 2);
    EXPECT_EQ(q.popFront(), 3);
    EXPECT_TRUE(q.empty());
}

TEST(CircularQueue, WrapsAround)
{
    CircularQueue<int> q(3);
    for (int round = 0; round < 10; ++round) {
        q.pushBack(round);
        EXPECT_EQ(q.popFront(), round);
    }
}

TEST(CircularQueue, FullAndFreeSlots)
{
    CircularQueue<int> q(2);
    EXPECT_EQ(q.freeSlots(), 2u);
    q.pushBack(1);
    q.pushBack(2);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.freeSlots(), 0u);
}

TEST(CircularQueue, IndexedAccess)
{
    CircularQueue<int> q(4);
    q.pushBack(10);
    q.pushBack(20);
    q.pushBack(30);
    EXPECT_EQ(q.at(0), 10);
    EXPECT_EQ(q.at(2), 30);
    EXPECT_EQ(q.front(), 10);
    EXPECT_EQ(q.back(), 30);
}

TEST(CircularQueue, TruncateDropsNewest)
{
    CircularQueue<int> q(4);
    q.pushBack(1);
    q.pushBack(2);
    q.pushBack(3);
    q.truncate(2);
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.front(), 1);
}

TEST(CircularQueueDeath, PopEmptyPanics)
{
    CircularQueue<int> q(2);
    EXPECT_DEATH(q.popFront(), "pop from empty");
}

TEST(CircularQueueDeath, PushFullPanics)
{
    CircularQueue<int> q(1);
    q.pushBack(1);
    EXPECT_DEATH(q.pushBack(2), "push to full");
}

// --- BitSet ---------------------------------------------------------------

TEST(BitSet, SetTestReset)
{
    BitSet b(130);
    b.set(0);
    b.set(64);
    b.set(129);
    EXPECT_TRUE(b.test(0));
    EXPECT_TRUE(b.test(64));
    EXPECT_TRUE(b.test(129));
    EXPECT_FALSE(b.test(1));
    b.reset(64);
    EXPECT_FALSE(b.test(64));
    EXPECT_EQ(b.count(), 2u);
}

TEST(BitSet, UnionReportsChange)
{
    BitSet a(70), b(70);
    b.set(69);
    EXPECT_TRUE(a.unionWith(b));
    EXPECT_FALSE(a.unionWith(b)); // no further change
    EXPECT_TRUE(a.test(69));
}

TEST(BitSet, Subtract)
{
    BitSet a(10), b(10);
    a.set(1);
    a.set(2);
    b.set(2);
    a.subtract(b);
    EXPECT_TRUE(a.test(1));
    EXPECT_FALSE(a.test(2));
}

TEST(BitSet, ForEachVisitsInOrder)
{
    BitSet b(200);
    b.set(3);
    b.set(64);
    b.set(199);
    std::vector<std::size_t> seen;
    b.forEach([&](std::size_t i) { seen.push_back(i); });
    EXPECT_EQ(seen, (std::vector<std::size_t>{3, 64, 199}));
}

TEST(BitSet, Equality)
{
    BitSet a(50), b(50);
    a.set(7);
    EXPECT_FALSE(a == b);
    b.set(7);
    EXPECT_TRUE(a == b);
}

// --- Stats ------------------------------------------------------------------

TEST(Stats, CountersAccumulate)
{
    StatGroup g("test");
    Counter &c = g.counter("a.b", "desc");
    ++c;
    c += 5;
    EXPECT_EQ(g.counterAt("a.b").value(), 6u);
}

TEST(Stats, CounterIsIdempotentlyCreated)
{
    StatGroup g("test");
    ++g.counter("x");
    ++g.counter("x");
    EXPECT_EQ(g.counterAt("x").value(), 2u);
}

TEST(Stats, FormulaEvaluatesLazily)
{
    StatGroup g("test");
    Counter &c = g.counter("n");
    g.formula("twice", [&] { return 2.0 * c.value(); });
    c += 4;
    EXPECT_DOUBLE_EQ(g.formulaAt("twice"), 8.0);
}

TEST(Stats, DistributionMoments)
{
    StatGroup g("test");
    Distribution &d = g.distribution("lat", 4, 8);
    d.sample(0);
    d.sample(4);
    d.sample(8);
    d.sample(100); // overflow bucket
    EXPECT_EQ(d.samples(), 4u);
    EXPECT_EQ(d.max(), 100u);
    EXPECT_EQ(d.overflow(), 1u);
    EXPECT_DOUBLE_EQ(d.mean(), 28.0);
}

TEST(Stats, ResetAllClears)
{
    StatGroup g("test");
    g.counter("n") += 7;
    g.distribution("d", 1, 4).sample(2);
    g.resetAll();
    EXPECT_EQ(g.counterAt("n").value(), 0u);
}

TEST(StatsDeath, MissingCounterPanics)
{
    StatGroup g("test");
    EXPECT_DEATH(g.counterAt("nope"), "no counter");
}

TEST(Stats, DumpContainsNamesAndValues)
{
    StatGroup g("grp");
    g.counter("alpha", "first") += 3;
    std::ostringstream oss;
    g.dump(oss);
    EXPECT_NE(oss.str().find("alpha"), std::string::npos);
    EXPECT_NE(oss.str().find("3"), std::string::npos);
    EXPECT_NE(oss.str().find("first"), std::string::npos);
}

// --- TextTable ------------------------------------------------------------

TEST(TextTable, FormatsAlignedGrid)
{
    TextTable t;
    t.header({"name", "value"});
    t.row({"x", "1"});
    t.row({"longer", "22"});
    std::ostringstream oss;
    t.print(oss);
    const std::string s = oss.str();
    EXPECT_NE(s.find("| name"), std::string::npos);
    EXPECT_NE(s.find("| longer"), std::string::npos);
}

TEST(TextTable, NumberHelpers)
{
    EXPECT_EQ(TextTable::num(3.14159, 2), "3.14");
    EXPECT_EQ(TextTable::signedPercent(6.0), "+6");
    EXPECT_EQ(TextTable::signedPercent(-14.2), "-14");
    EXPECT_EQ(TextTable::signedPercent(-14.2, 1), "-14.2");
}



TEST(Stats, JsonDumpIsWellFormedFlatObject)
{
    StatGroup g("json");
    g.counter("a.count") += 5;
    g.formula("a.ratio", [] { return 0.5; });
    g.distribution("a.dist", 2, 4).sample(3);
    std::ostringstream oss;
    g.dumpJson(oss);
    const std::string s = oss.str();
    EXPECT_EQ(s.front(), '{');
    EXPECT_EQ(s[s.size() - 2], '}');
    EXPECT_NE(s.find("\"a.count\": 5"), std::string::npos);
    EXPECT_NE(s.find("\"a.ratio\": 0.5"), std::string::npos);
    EXPECT_NE(s.find("\"a.dist.samples\": 1"), std::string::npos);
    EXPECT_NE(s.find("\"a.dist.mean\": 3.0"), std::string::npos);
}

TEST(Stats, JsonDumpRoundTripsShortestDoubles)
{
    // std::to_chars shortest round-trip form must survive verbatim —
    // the classic 0.1 + 0.2 value, not a rounded approximation.
    StatGroup g("json");
    g.formula("sum", [] { return 0.1 + 0.2; });
    std::ostringstream oss;
    g.dumpJson(oss);
    EXPECT_NE(oss.str().find("\"sum\": 0.30000000000000004"),
              std::string::npos);
}

TEST(Stats, JsonDumpEscapesAwkwardNames)
{
    StatGroup g("a \"quoted\" group");
    g.counter("weird\"name\\with\nescapes") += 1;
    g.formula("inf", [] { return 1.0 / 0.0; });
    std::ostringstream oss;
    g.dumpJson(oss);
    const std::string s = oss.str();
    std::string error;
    EXPECT_TRUE(obs::isValidJson(s, &error)) << error << "\n" << s;
    EXPECT_NE(s.find("\\\"quoted\\\""), std::string::npos);
    EXPECT_NE(s.find("weird\\\"name\\\\with\\nescapes"),
              std::string::npos);
    EXPECT_NE(s.find("\"inf\": null"), std::string::npos);

    // Every other JSON writer shares the one escaper: each must emit a
    // valid document holding the same escaped spelling of a name with
    // quotes, a backslash and control characters in it.
    const std::string awkward = "a \"q\" \\ \n\t\r\x01 z";
    const std::string escaped = "a \\\"q\\\" \\\\ \\n\\t\\r\\u0001 z";
    EXPECT_EQ(jsonEscape(awkward), escaped);
    const auto expectEscaped = [&](const std::string &doc,
                                   const char *writer) {
        std::string why;
        EXPECT_TRUE(obs::isValidJson(doc, &why))
            << writer << ": " << why << "\n" << doc;
        EXPECT_NE(doc.find(escaped), std::string::npos)
            << writer << ":\n" << doc;
    };

    StatGroup named(awkward);
    std::ostringstream stats;
    named.dumpJson(stats);
    expectEscaped(stats.str(), "StatGroup::dumpJson");

    runner::JobResult result;
    result.spec.benchmark = awkward;
    result.error = awkward;
    std::ostringstream line;
    runner::emitJsonLine(line, result);
    expectEscaped(line.str(), "runner::emitJsonLine");

    const std::string path = ::testing::TempDir() + "mca_escape_" +
                             std::to_string(::getpid()) + ".jsonl";
    {
        runner::TelemetryWriter telemetry(path);
        telemetry.onResult(1, 1, result);
    }
    std::ifstream in(path);
    std::string record;
    std::getline(in, record);
    std::remove(path.c_str());
    expectEscaped(record, "runner::TelemetryWriter");

    obs::PerfettoExporter exporter;
    exporter.addSlice(awkward, 0, 1, 0, 1);
    std::ostringstream trace;
    exporter.write(trace);
    expectEscaped(trace.str(), "obs::PerfettoExporter");

    prof::Profile profile;
    profile.root.name = "total";
    profile.root.children.push_back({});
    profile.root.children.back().name = awkward;
    std::ostringstream prof;
    profile.dumpJson(prof);
    expectEscaped(prof.str(), "prof::Profile::dumpJson");
}

// --- Distribution percentile / variance --------------------------------

TEST(Stats, DistributionEmptyHasZeroMoments)
{
    StatGroup g("test");
    Distribution &d = g.distribution("lat", 4, 8);
    EXPECT_EQ(d.samples(), 0u);
    EXPECT_DOUBLE_EQ(d.variance(), 0.0);
    EXPECT_EQ(d.percentile(0.0), 0u);
    EXPECT_EQ(d.percentile(0.5), 0u);
    EXPECT_EQ(d.percentile(1.0), 0u);
}

TEST(Stats, DistributionSingleSampleReportsItEverywhere)
{
    StatGroup g("test");
    Distribution &d = g.distribution("lat", 4, 8);
    d.sample(13);
    EXPECT_DOUBLE_EQ(d.variance(), 0.0);
    EXPECT_EQ(d.percentile(0.0), 13u);
    EXPECT_EQ(d.percentile(0.5), 13u);
    EXPECT_EQ(d.percentile(0.99), 13u);
    EXPECT_EQ(d.percentile(1.0), 13u);
}

TEST(Stats, DistributionVarianceMatchesClosedForm)
{
    StatGroup g("test");
    Distribution &d = g.distribution("lat", 1, 16);
    for (std::uint64_t v : {2u, 4u, 4u, 4u, 5u, 5u, 7u, 9u})
        d.sample(v);
    // Textbook population set: mean 5, variance 4.
    EXPECT_DOUBLE_EQ(d.mean(), 5.0);
    EXPECT_DOUBLE_EQ(d.variance(), 4.0);
}

TEST(Stats, DistributionPercentileWalksBucketEdges)
{
    StatGroup g("test");
    // Buckets [0,1] [2,3] [4,5] [6,7]; inclusive upper edges 1,3,5,7.
    Distribution &d = g.distribution("lat", 2, 4);
    for (std::uint64_t v = 0; v < 8; ++v)
        d.sample(v); // two samples per bucket
    EXPECT_EQ(d.percentile(0.25), 1u);
    EXPECT_EQ(d.percentile(0.50), 3u);
    EXPECT_EQ(d.percentile(0.75), 5u);
    EXPECT_EQ(d.percentile(1.00), 7u); // the observed max
}

TEST(Stats, DistributionPercentileOverflowBucketReportsMax)
{
    StatGroup g("test");
    Distribution &d = g.distribution("lat", 1, 4);
    d.sample(1);
    d.sample(500); // overflow
    d.sample(900); // overflow, new max
    EXPECT_EQ(d.overflow(), 2u);
    EXPECT_EQ(d.percentile(0.99), 900u);
    EXPECT_EQ(d.percentile(1.0), 900u);
    EXPECT_EQ(d.percentile(0.1), 1u);
}

// --- numeric flags ----------------------------------------------------

TEST(Flags, UnsignedTakesTheWholeString)
{
    EXPECT_EQ(parseUnsignedFlag("0", "--n"), 0u);
    EXPECT_EQ(parseUnsignedFlag("300000", "--n"), 300'000u);
    EXPECT_EQ(parseUnsignedFlag("18446744073709551615", "--n"),
              18446744073709551615ull);
    EXPECT_EQ(parseUnsignedFlag("4096", "--n", 4096), 4096u);
    for (const char *bad : {"", "1e6", "12x", " 1", "+1", "-1", "0x10",
                            "18446744073709551616"})
        EXPECT_THROW(parseUnsignedFlag(bad, "--n"), std::runtime_error)
            << "'" << bad << "'";
    EXPECT_THROW(parseUnsignedFlag("4097", "--n", 4096),
                 std::runtime_error);
}

TEST(Flags, DoubleTakesTheWholeString)
{
    EXPECT_DOUBLE_EQ(parseDoubleFlag("0.2", "--x"), 0.2);
    EXPECT_DOUBLE_EQ(parseDoubleFlag("1e-1", "--x"), 0.1);
    for (const char *bad : {"", "0.5x", "nan", "inf", "1e999", "x"})
        EXPECT_THROW(parseDoubleFlag(bad, "--x"), std::runtime_error)
            << "'" << bad << "'";
}

TEST(Flags, ErrorNamesTheFlagAndValue)
{
    try {
        parseUnsignedFlag("1e6", "--max-insts");
        FAIL() << "1e6 accepted";
    } catch (const std::runtime_error &e) {
        EXPECT_EQ(std::string(e.what()),
                  "--max-insts: expected an unsigned integer, got '1e6'");
    }
}

TEST(Flags, JobsIsAWorkerCountOrAuto)
{
    EXPECT_EQ(parseJobsFlag("1", "--jobs"), 1u);
    EXPECT_EQ(parseJobsFlag("4096", "--jobs"), 4096u);
    EXPECT_GE(parseJobsFlag("auto", "--jobs"), 1u);
    // 2^32 + 1 must not narrow to one worker.
    for (const char *bad : {"0", "4097", "4294967297", "", "-1", "2x"})
        EXPECT_THROW(parseJobsFlag(bad, "--jobs"), std::runtime_error)
            << "'" << bad << "'";
}

// --- FlagTable ---------------------------------------------------------

/** Parse @p args (without the program name) through @p table. */
void
parseArgs(FlagTable &table, std::vector<std::string> args)
{
    args.insert(args.begin(), "tool");
    std::vector<char *> argv;
    for (auto &arg : args)
        argv.push_back(arg.data());
    table.parse(static_cast<int>(argv.size()), argv.data());
}

TEST(FlagTable, WritesEachTypedDestination)
{
    bool sw = false;
    std::string text, pick = "a";
    double x = 0.0;
    unsigned u = 0;
    std::uint64_t big = 0, atLeastOne = 1;
    std::optional<unsigned> maybe;
    std::vector<unsigned> us;
    std::vector<std::string> picks;
    std::string seen;
    FlagTable t("tool");
    t.flag("--sw", "a switch", sw);
    t.flag("--text", "S", "a string", text);
    t.flag("--x", "X", "a double", x);
    t.flag("--u", "N", "an unsigned", u);
    t.flag("--big", "N", "a u64", big);
    t.flag("--min1", "N", "a u64 >= 1", atLeastOne, 1);
    t.flag("--maybe", "N", "an optional", maybe);
    t.list("--us", "LIST", "unsigneds", us);
    t.choice("--pick", "K", "[a]", pick, {"a", "b"});
    t.list("--picks", "LIST", "choices", picks, {"a", "b"});
    t.add("--act", "V", "an action", [&](const std::string &v) { seen = v; });
    parseArgs(t, {"--sw", "--text", "hi", "--x", "0.5", "--u", "7", "--big",
                  "18446744073709551615", "--min1", "3", "--maybe", "9",
                  "--us", "1,,2", "--pick", "b", "--picks", "b,a", "--act",
                  "v"});
    EXPECT_TRUE(sw);
    EXPECT_EQ(text, "hi");
    EXPECT_DOUBLE_EQ(x, 0.5);
    EXPECT_EQ(u, 7u);
    EXPECT_EQ(big, 18446744073709551615ull);
    EXPECT_EQ(atLeastOne, 3u);
    EXPECT_EQ(maybe, 9u);
    EXPECT_EQ(us, (std::vector<unsigned>{1, 2}));
    EXPECT_EQ(pick, "b");
    EXPECT_EQ(picks, (std::vector<std::string>{"b", "a"}));
    EXPECT_EQ(seen, "v");
    EXPECT_TRUE(t.given("--pick"));
    EXPECT_FALSE(t.given("--help"));
}

TEST(FlagTable, RejectsWithAMessageNamingTheFlag)
{
    unsigned u = 0;
    std::uint64_t atLeastOne = 1;
    std::string pick;
    FlagTable t("tool");
    t.flag("--u", "N", "an unsigned", u);
    t.flag("--min1", "N", "a u64 >= 1", atLeastOne, 1);
    t.choice("--pick", "K", "", pick, {"a", "b"});
    const auto message = [&](std::vector<std::string> args) {
        try {
            parseArgs(t, std::move(args));
        } catch (const std::runtime_error &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    EXPECT_EQ(message({"--u", "4294967296"}),
              "--u: expected an unsigned integer <= 4294967295, "
              "got '4294967296'");
    EXPECT_EQ(message({"--min1", "0"}),
              "--min1: expected an integer >= 1, got '0'");
    EXPECT_EQ(message({"--pick", "c"}),
              "--pick: unknown value 'c' (valid: a, b)");
    EXPECT_EQ(message({"--u"}), "missing value for --u");
    EXPECT_EQ(message({"--nope"}), "unknown argument: --nope (see --help)");
}

TEST(FlagTable, HelpListsEveryFlagWithItsChoices)
{
    unsigned jobs = 4;
    std::string pick;
    FlagTable t("tool — a test");
    t.section("group:");
    t.choice("--pick", "KIND", "[a]", pick, {"a", "b"});
    t.jobs(jobs);
    std::ostringstream os;
    t.printHelp(os);
    const std::string help = os.str();
    EXPECT_EQ(help.rfind("tool — a test\n", 0), 0u) << help;
    EXPECT_NE(help.find("  -h, --help           print this help"),
              std::string::npos)
        << help;
    EXPECT_NE(help.find("\ngroup:\n  --pick KIND          a|b [a]\n"),
              std::string::npos)
        << help;
    EXPECT_NE(help.find("  -j, --jobs N|auto"), std::string::npos) << help;
    std::istringstream lines(help);
    for (std::string line; std::getline(lines, line);)
        EXPECT_LE(line.size(), 80u) << line;
}

} // namespace
