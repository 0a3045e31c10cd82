// Self-tests of the benchmark's own logic: percentiles and their
// sample-count rule, span self time, the metric-name grammar, the
// outside-in residual check, and byte-identical request streams.

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "../harness.hpp"
#include "../streams.hpp"
#include "../workloads.hpp"

using namespace perfbench;

TEST(Percentile, NearestRankPicksTheCeilingRank)
{
    std::vector<double> v;
    for (int i = 1; i <= 100; ++i)
        v.push_back(i);
    EXPECT_EQ(nearestRank(v, 0.5), 50.0);
    EXPECT_EQ(nearestRank(v, 0.99), 99.0);
    EXPECT_EQ(nearestRank(v, 1.0), 100.0);
    EXPECT_EQ(nearestRank(v, 0.001), 1.0);
    EXPECT_EQ(nearestRank({7.0}, 0.99), 7.0);
    EXPECT_EQ(nearestRank({}, 0.5), 0.0);
    // 1000 samples: rank 990 exactly, despite 0.99 * 1000 rounding.
    std::vector<double> w;
    for (int i = 1; i <= 1000; ++i)
        w.push_back(i);
    EXPECT_EQ(nearestRank(w, 0.99), 990.0);
}

TEST(Percentile, SampleCountRuleNeedsTenBeyond)
{
    EXPECT_FALSE(percentileSupported(999, 0.99));
    EXPECT_TRUE(percentileSupported(1000, 0.99));
    EXPECT_FALSE(percentileSupported(19, 0.5));
    EXPECT_TRUE(percentileSupported(20, 0.5));
    EXPECT_FALSE(percentileSupported(0, 0.5));
    const LatencySummary s = summarize(std::vector<double>(1500, 2.0));
    EXPECT_EQ(s.count, 1500u);
    EXPECT_TRUE(s.p99Supported);
    EXPECT_FALSE(summarize({1.0, 2.0, 3.0}).p99Supported);
    EXPECT_TRUE(summarize(std::vector<double>(100, 2.0)).p90Supported);
    EXPECT_FALSE(summarize(std::vector<double>(99, 2.0)).p90Supported);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfChildren)
{
    // Parent [0, 10]; children [1, 4] and [3, 6] overlap (union 1..6),
    // [8, 12] sticks out of the parent (only 8..10 counts).
    std::vector<Span> spans = {
        {"parent", 0.0, 10.0, -1, 1},
        {"a", 1.0, 4.0, 0, 1},
        {"b", 3.0, 6.0, 0, 1},
        {"c", 8.0, 12.0, 0, 1},
        {"grandchild", 1.5, 2.0, 1, 1},
    };
    const std::vector<double> self = selfTimes(spans);
    EXPECT_DOUBLE_EQ(self[0], 10.0 - 5.0 - 2.0);
    EXPECT_DOUBLE_EQ(self[1], 3.0 - 0.5);
    EXPECT_DOUBLE_EQ(self[2], 3.0);
    EXPECT_DOUBLE_EQ(self[3], 4.0);
    EXPECT_DOUBLE_EQ(self[4], 0.5);
    const auto byName = selfTimeByName(spans);
    EXPECT_DOUBLE_EQ(byName.at("parent").first, 3.0);
    EXPECT_EQ(byName.at("a").second, 1u);
}

TEST(Spans, NestedChildFullyCoveringParentLeavesNoSelfTime)
{
    std::vector<Span> spans = {{"p", 0.0, 1.0, -1, 0},
                               {"c", -1.0, 2.0, 0, 0}};
    EXPECT_DOUBLE_EQ(selfTimes(spans)[0], 0.0);
}

TEST(Spans, TracerLinksParentsAndRecordsNothingWhenDisabled)
{
    Tracer on(true);
    {
        ScopedSpan root(on, "root", -1, 7);
        ScopedSpan child(on, "child", root.id(), 7);
    }
    const std::vector<Span> spans = on.spans();
    ASSERT_EQ(spans.size(), 2u);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[1].request, 7u);
    EXPECT_LE(spans[0].start, spans[1].start);
    EXPECT_GE(spans[0].end, spans[1].end);

    Tracer off(false);
    {
        ScopedSpan s(off, "x");
        EXPECT_EQ(s.id(), -1);
    }
    EXPECT_TRUE(off.spans().empty());
}

TEST(Metrics, NameGrammar)
{
    EXPECT_TRUE(validMetricName("latency_p99_ms"));
    EXPECT_TRUE(validMetricName("fleet.utilization_pct.core0"));
    EXPECT_TRUE(validMetricName("a-b.c_d9"));
    EXPECT_FALSE(validMetricName(""));
    EXPECT_FALSE(validMetricName(".leading_dot"));
    EXPECT_FALSE(validMetricName("_leading"));
    EXPECT_FALSE(validMetricName("has space"));
    EXPECT_FALSE(validMetricName("brace{x}"));
    EXPECT_FALSE(validMetricName(std::string(65, 'a')));
    MetricSet m;
    EXPECT_THROW(m.set("bad name", 1.0, "ms"), std::invalid_argument);
    EXPECT_THROW(m.set("nan", std::nan(""), "ms"), std::invalid_argument);
}

TEST(Metrics, EveryCatalogAndEndToEndNameIsValidAndUnique)
{
    std::set<std::string> seen;
    for (const LayerMetric& m : layerCatalog()) {
        EXPECT_TRUE(validMetricName(m.name)) << m.name;
        EXPECT_TRUE(seen.insert(m.name).second) << m.name;
        EXPECT_TRUE(std::string(m.better) == "higher" ||
                    std::string(m.better) == "lower");
    }
    EXPECT_LE(layerCatalog().size(), 128u);
    const auto& names = endToEndNames();
    EXPECT_EQ(names.front(), "setup_s");
    for (const std::string& n : names) {
        EXPECT_TRUE(validMetricName(n)) << n;
        EXPECT_TRUE(seen.count("telemetry.trace_overhead_pct." + n)) << n;
    }
}

TEST(Metrics, ResultLineHasExactlyTheFourKeysAndFullDigits)
{
    MetricSet m;
    m.set("setup_s", 0.123456789012345, "s");
    const std::string line = resultLine(true, 10, 1, m);
    EXPECT_EQ(line,
              "{\"correct\": true, \"attempted\": 10, \"failed\": 1, "
              "\"metrics\": {\"setup_s\": {\"value\": "
              "0.123456789012345, \"unit\": \"s\"}}}");
}

TEST(Check, ResidualsOfAnExactSolutionPassAndOfAPerturbedOneFail)
{
    // min 1/2 x'x - x1 - x2  s.t.  x1 + x2 <= 1: x = (1/2, 1/2), y = 1/2.
    rsqp::TripletList p(2, 2), a(1, 2);
    p.add(0, 0, 1.0);
    p.add(1, 1, 1.0);
    a.add(0, 0, 1.0);
    a.add(0, 1, 1.0);
    rsqp::QpProblem qp;
    qp.pUpper = rsqp::CscMatrix::fromTriplets(p).upperTriangular();
    qp.a = rsqp::CscMatrix::fromTriplets(a);
    qp.q = {-1.0, -1.0};
    qp.l = {-rsqp::kInf};
    qp.u = {1.0};
    rsqp::OsqpSettings s;
    const Verdict good = judge(qp, Expect::Solved, rsqp::SolveStatus::Solved,
                               {0.5, 0.5}, {0.5}, s);
    EXPECT_TRUE(good.good);
    EXPECT_FALSE(good.wrong);
    const Verdict off = judge(qp, Expect::Solved, rsqp::SolveStatus::Solved,
                              {0.9, 0.9}, {0.5}, s);
    EXPECT_FALSE(off.good);
    EXPECT_TRUE(off.wrong);
    // A non-answer fails the operation without being a wrong answer.
    const Verdict capped = judge(qp, Expect::Solved,
                                 rsqp::SolveStatus::MaxIterReached,
                                 {0.5, 0.5}, {0.5}, s);
    EXPECT_FALSE(capped.good);
    EXPECT_FALSE(capped.wrong);
    // Claiming infeasibility of a feasible problem is wrong.
    EXPECT_TRUE(judge(qp, Expect::Solved,
                      rsqp::SolveStatus::PrimalInfeasible, {}, {}, s)
                    .wrong);
    EXPECT_TRUE(judge(qp, Expect::PrimalInfeasible,
                      rsqp::SolveStatus::PrimalInfeasible, {}, {}, s)
                    .good);
}

namespace
{

std::string
mixedStreamBytes(std::uint64_t seed)
{
    const MixedPool pool = mixedPool();
    const MixedRates rates;
    std::string bytes;
    for (std::uint64_t segment = 0; segment < 2; ++segment) {
        for (const Arrival& a :
             mixedSchedule(seed, segment, 1.0 + segment, 2.0, pool, rates)) {
            bytes.append(reinterpret_cast<const char*>(&a.due),
                         sizeof(a.due));
            bytes += std::to_string(static_cast<int>(a.cls)) + ":" +
                std::to_string(a.session) + ":" +
                std::to_string(a.structure) + ":" +
                std::to_string(a.variant) + ";";
            bytes += serializeQp(materialize(pool, a, seed));
        }
    }
    return bytes;
}

std::string
mpcStreamBytes(std::uint64_t seed)
{
    std::string bytes;
    for (const MpcClient& c : mpcClients(seed, 3))
        for (std::uint64_t k = 0; k < 50; ++k)
            bytes += serializeQp(mpcStep(c, k));
    return bytes;
}

} // namespace

TEST(Streams, SameSeedGivesByteIdenticalRequestStreams)
{
    EXPECT_EQ(mixedStreamBytes(3), mixedStreamBytes(3));
    EXPECT_NE(mixedStreamBytes(3), mixedStreamBytes(4));
    EXPECT_EQ(mpcStreamBytes(11), mpcStreamBytes(11));
    EXPECT_NE(mpcStreamBytes(11), mpcStreamBytes(12));
    std::string large;
    for (const LargeProblem& p : largeHostProblems())
        large += p.name + serializeQp(p.qp);
    std::string again;
    for (const LargeProblem& p : largeHostProblems())
        again += p.name + serializeQp(p.qp);
    EXPECT_EQ(large, again);
    EXPECT_EQ(largeHostOrder(5, 2, 3), largeHostOrder(5, 2, 3));
}

TEST(Streams, MixedScheduleIsSortedAndCoversEveryClass)
{
    const MixedPool pool = mixedPool();
    const std::vector<Arrival> s =
        mixedSchedule(1, 0, 1.0, 10.0, pool, MixedRates{});
    ASSERT_FALSE(s.empty());
    int classes[3] = {0, 0, 0};
    int infeasible = 0;
    for (std::size_t i = 0; i < s.size(); ++i) {
        if (i > 0) {
            EXPECT_LE(s[i - 1].due, s[i].due);
        }
        EXPECT_GE(s[i].due, 0.0);
        EXPECT_LT(s[i].due, 10.0);
        ++classes[static_cast<int>(s[i].cls)];
        infeasible += s[i].expect == Expect::PrimalInfeasible ? 1 : 0;
    }
    EXPECT_GT(classes[0], 0);
    EXPECT_GT(classes[1], 0);
    EXPECT_GT(classes[2], 0);
    EXPECT_GT(infeasible, 0);
    // Every materialized request passes the library's own validation.
    for (std::size_t i = 0; i < s.size(); i += 17)
        EXPECT_TRUE(rsqp::validateProblem(materialize(pool, s[i], 1)).ok());
}
