/**
 * @file
 * Registry-backed service observability tests. The ServiceMetrics
 * suite runs under TSan in CI: several sessions solve concurrently
 * while the metrics endpoint is scraped, and every scrape must agree
 * with the bespoke ServiceStats accounting.
 */

#include <future>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "rsqp_api.hpp"

namespace rsqp
{
namespace
{

SessionConfig
smallConfig()
{
    SessionConfig config;
    config.custom.c = 16;
    return config;
}

TEST(ServiceMetrics, ScrapeMatchesServiceStats)
{
    SolverService service;
    const SessionId a = service.openSession(smallConfig());
    const SessionId b = service.openSession(smallConfig());

    const QpProblem qp_a = generateProblem(Domain::Control, 25, 3);
    const QpProblem qp_b = generateProblem(Domain::Lasso, 20, 5);

    std::vector<std::future<SessionResult>> futures;
    for (int i = 0; i < 3; ++i)
        futures.push_back(service.submit(a, qp_a));
    for (int i = 0; i < 2; ++i)
        futures.push_back(service.submit(b, qp_b));
    for (std::future<SessionResult>& future : futures)
        EXPECT_EQ(future.get().status, SolveStatus::Solved);

    const ServiceStats stats = service.stats();
    const telemetry::MetricsSnapshot snapshot =
        service.metricsSnapshot();

    EXPECT_EQ(snapshot.counterValue("rsqp_service_submitted_total"),
              static_cast<std::uint64_t>(stats.submitted));
    EXPECT_EQ(snapshot.counterValue("rsqp_service_completed_total"),
              static_cast<std::uint64_t>(stats.completed));
    EXPECT_EQ(snapshot.counterValue("rsqp_service_rejected_total"),
              static_cast<std::uint64_t>(stats.rejected));
    EXPECT_EQ(snapshot.counterValue(
                  "rsqp_service_deadline_expired_total"),
              static_cast<std::uint64_t>(stats.expired));
    ASSERT_NE(snapshot.findGauge("rsqp_service_queue_depth"), nullptr);
    EXPECT_EQ(snapshot.findGauge("rsqp_service_queue_depth")->value,
              static_cast<std::int64_t>(stats.queueDepth));
    EXPECT_EQ(
        snapshot.findGauge("rsqp_service_queue_depth_peak")->value,
        static_cast<std::int64_t>(stats.peakQueueDepth));
    EXPECT_EQ(snapshot.findGauge("rsqp_service_open_sessions")->value,
              static_cast<std::int64_t>(stats.openSessions));
    EXPECT_EQ(snapshot.findGauge("rsqp_service_cache_hits")->value,
              static_cast<std::int64_t>(stats.cache.hits));
    EXPECT_EQ(snapshot.findGauge("rsqp_service_cache_misses")->value,
              static_cast<std::int64_t>(stats.cache.misses));

    // Per-session counters agree with the per-session stats.
    EXPECT_EQ(
        snapshot.counterValue("rsqp_service_session_solves_total"
                              "{session=\"" +
                              std::to_string(a) + "\"}"),
        static_cast<std::uint64_t>(service.sessionStats(a).solves));
    EXPECT_EQ(
        snapshot.counterValue("rsqp_service_session_solves_total"
                              "{session=\"" +
                              std::to_string(b) + "\"}"),
        static_cast<std::uint64_t>(service.sessionStats(b).solves));

    // The execute-time histogram observed every dispatched request
    // (expired ones record their near-zero dispatch too).
    const telemetry::HistogramSample* execute =
        snapshot.findHistogram("rsqp_service_execute_ns");
    ASSERT_NE(execute, nullptr);
    EXPECT_EQ(execute->count,
              static_cast<std::uint64_t>(stats.completed +
                                         stats.expired));
}

TEST(ServiceMetrics, ConcurrentScrapesStayConsistent)
{
    ServiceConfig config;
    config.fleet.slotsPerCore = 2;
    SolverService service(config);
    const SessionId id = service.openSession(smallConfig());
    const QpProblem qp = generateProblem(Domain::Huber, 25, 7);

    // Scrape the endpoint from another thread while solves run: every
    // snapshot must be internally sane (completed <= submitted).
    std::atomic<bool> stop{false};
    std::thread scraper([&] {
        while (!stop.load()) {
            const telemetry::MetricsSnapshot snapshot =
                service.metricsSnapshot();
            const std::uint64_t submitted = snapshot.counterValue(
                "rsqp_service_submitted_total");
            const std::uint64_t completed = snapshot.counterValue(
                "rsqp_service_completed_total");
            EXPECT_LE(completed, submitted);
            EXPECT_FALSE(service.metricsText().empty());
        }
    });

    std::vector<std::future<SessionResult>> futures;
    for (int i = 0; i < 6; ++i)
        futures.push_back(service.submit(id, qp));
    for (std::future<SessionResult>& future : futures)
        (void)future.get();
    stop.store(true);
    scraper.join();

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 6);
    EXPECT_EQ(stats.completed + stats.rejected + stats.expired, 6);
}

TEST(ServiceMetrics, MetricsTextIsPrometheusShaped)
{
    SolverService service;
    const SessionId id = service.openSession(smallConfig());
    const QpProblem qp = generateProblem(Domain::Control, 25, 3);
    EXPECT_EQ(service.solve(id, qp).status, SolveStatus::Solved);

    const std::string text = service.metricsText();
    EXPECT_NE(text.find("# TYPE rsqp_service_submitted_total counter"),
              std::string::npos);
    EXPECT_NE(text.find("rsqp_service_submitted_total 1"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE rsqp_service_queue_depth gauge"),
              std::string::npos);
    EXPECT_NE(
        text.find("# TYPE rsqp_service_session_solves_total counter"),
        std::string::npos);
    EXPECT_NE(text.find("rsqp_service_session_solves_total{session"),
              std::string::npos);
}

TEST(ServiceMetrics, SessionResultCarriesTelemetry)
{
    SolverService service;
    const SessionId id = service.openSession(smallConfig());
    const QpProblem qp = generateProblem(Domain::Control, 25, 3);

    const SessionResult first = service.solve(id, qp);
    ASSERT_EQ(first.status, SolveStatus::Solved);
    EXPECT_GT(first.telemetry.iterations, 0);
    EXPECT_GE(first.telemetry.queueWaitSeconds, 0.0);
    EXPECT_GE(first.telemetry.solveSeconds, 0.0);
    EXPECT_TRUE(first.telemetry.route == SolveRoute::CacheThaw ||
                first.telemetry.route == SolveRoute::FullCustomize);

    // Same session, same structure: the parametric fast path.
    const SessionResult second = service.solve(id, qp);
    ASSERT_EQ(second.status, SolveStatus::Solved);
    EXPECT_EQ(second.telemetry.route, SolveRoute::Parametric);
}

TEST(ServiceMetrics, DumpTraceDrainsSpans)
{
    // Service solves record into the process-wide trace recorder.
    telemetry::TraceRecorder::global().enable();
    SolverService service;
    const SessionId id = service.openSession(smallConfig());
    const QpProblem qp = generateProblem(Domain::Lasso, 20, 5);
    EXPECT_EQ(service.solve(id, qp).status, SolveStatus::Solved);

    const std::string trace =
        telemetry::TraceRecorder::global().drainJson();
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    if (telemetry::kTelemetryCompiled) {
        EXPECT_NE(trace.find("service.run_job"), std::string::npos);
    }
    telemetry::TraceRecorder::global().disable();
}

TEST(ServiceMetrics, SessionSeriesRetiredOnChurn)
{
    // Regression: per-session label series used to accumulate in the
    // registry forever as sessions churned. Closing a session must
    // retire its series, folding the count into the aggregate.
    SolverService service;
    const QpProblem qp = generateProblem(Domain::Control, 25, 3);

    const std::size_t baseline =
        service.metricsSnapshot().counters.size();
    for (int i = 0; i < 8; ++i) {
        const SessionId id = service.openSession(smallConfig());
        EXPECT_EQ(service.solve(id, qp).status, SolveStatus::Solved);
        service.closeSession(id);
    }
    service.waitIdle();

    const telemetry::MetricsSnapshot snapshot =
        service.metricsSnapshot();
    EXPECT_EQ(snapshot.counters.size(), baseline);
    for (const telemetry::CounterSample& sample : snapshot.counters)
        EXPECT_EQ(sample.name.find("{session="), std::string::npos)
            << sample.name;
    EXPECT_EQ(snapshot.counterValue(
                  "rsqp_service_session_solves_retired_total"),
              8u);

    // An open session's series is live until it closes.
    const SessionId live = service.openSession(smallConfig());
    EXPECT_EQ(service.solve(live, qp).status, SolveStatus::Solved);
    EXPECT_EQ(service.metricsSnapshot().counters.size(), baseline + 1);
}

TEST(ServiceMetrics, SessionSeriesRetiredWhenCloseRacesRunningJob)
{
    // closeSession while the job is in flight defers the erase to the
    // worker; the series must still be retired on that path.
    SolverService service;
    const QpProblem qp = generateProblem(Domain::Control, 30, 7);
    const std::size_t baseline =
        service.metricsSnapshot().counters.size();

    const SessionId id = service.openSession(smallConfig());
    std::future<SessionResult> future = service.submit(id, qp);
    service.closeSession(id);  // may race the running solve
    future.get();
    service.waitIdle();

    const telemetry::MetricsSnapshot snapshot =
        service.metricsSnapshot();
    EXPECT_EQ(snapshot.counters.size(), baseline);
    EXPECT_EQ(service.stats().openSessions, 0u);
}

} // namespace
} // namespace rsqp
