/**
 * @file
 * Fault-domain tests. The Failover suite pins the mechanics: a killed
 * or hung core loses its stream back to the placement scheduler, the
 * re-run is bitwise identical to an undisturbed solve, stall-watchdog
 * charges count against deadline budgets, the deterministic re-spill
 * keeps a structure's failover traffic on one survivor, and overflow
 * rejections carry a retry-after hint. The FleetChaos suite drives
 * whole seeded chaos schedules through a multi-core service —
 * exactly-once accounting, quarantine/readmission over the virtual
 * clock, run-to-run determinism, and cache-partition invalidation —
 * and runs under TSan in CI.
 */

#include <future>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "problems/suite.hpp"
#include "service/service.hpp"

namespace rsqp
{
namespace
{

SessionConfig
deviceConfig()
{
    SessionConfig config;
    config.custom.c = 16;
    return config;
}

QpProblem
withScaledCost(const QpProblem& qp, Real factor)
{
    QpProblem out = qp;
    for (Real& v : out.q)
        v *= factor;
    return out;
}

ServiceConfig
chaosConfig(unsigned cores, std::vector<FleetFaultEvent> schedule)
{
    ServiceConfig config;
    config.maxQueueDepth = 1024;
    config.fleet.coreCount = cores;
    // Virtual device times per job are tiny; shrink the backoff
    // ladder to match so readmission happens within a test workload.
    config.fleet.faultDomain.backoffBaseSeconds = 1e-9;
    if (!schedule.empty())
        config.fleet.faultInjector =
            std::make_shared<FleetFaultInjector>(std::move(schedule));
    return config;
}

/** Solve `workload` sequentially (deterministic job-start order),
 *  one fresh session per problem. */
std::vector<SessionResult>
solveAll(SolverService& service, const std::vector<QpProblem>& workload)
{
    std::vector<SessionResult> results;
    for (const QpProblem& qp : workload) {
        const SessionId id = service.openSession(deviceConfig());
        results.push_back(service.solve(id, qp));
    }
    service.waitIdle();
    return results;
}

TEST(Failover, KilledCoreJobIsRerunBitwiseIdentical)
{
    const QpProblem qp = generateProblem(Domain::Control, 30, 3);

    SolverService undisturbed(chaosConfig(4, {}));
    const SessionResult clean =
        undisturbed.solve(undisturbed.openSession(deviceConfig()), qp);
    ASSERT_EQ(clean.status, SolveStatus::Solved);

    // Kill whichever core the very first job lands on, as it starts;
    // every probe fails, so the core stays fenced for the whole test.
    FleetFaultEvent kill;
    kill.kind = FleetFaultKind::KillCore;
    kill.atFleetJob = 0;
    kill.failProbes = 100;
    SolverService service(chaosConfig(4, {kill}));
    const SessionResult result =
        service.solve(service.openSession(deviceConfig()), qp);

    EXPECT_EQ(result.status, SolveStatus::Solved);
    EXPECT_EQ(result.failovers, 1);
    EXPECT_EQ(result.x, clean.x);
    EXPECT_EQ(result.y, clean.y);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.failovers, 1);
    EXPECT_EQ(stats.quarantines, 1);
    const FleetStats fleet = service.fleetStats();
    Count quarantined = 0;
    for (const CoreStats& core : fleet.cores)
        if (core.health == CoreHealth::Quarantined)
            ++quarantined;
    EXPECT_EQ(quarantined, 1);
    EXPECT_EQ(fleet.partitionInvalidations, 1);
}

TEST(Failover, HangChargesTheStallWatchdog)
{
    FleetFaultEvent hang;
    hang.kind = FleetFaultKind::HangCore;
    hang.atFleetJob = 0;
    ServiceConfig config = chaosConfig(4, {hang});
    config.fleet.faultDomain.stallWatchdogSeconds = 0.25;
    SolverService service(config);

    const QpProblem qp = generateProblem(Domain::Lasso, 30, 5);
    const SessionResult result =
        service.solve(service.openSession(deviceConfig()), qp);

    EXPECT_EQ(result.status, SolveStatus::Solved);
    EXPECT_EQ(result.failovers, 1);
    // The stream sat on the hung core until the watchdog fired: the
    // charge shows up as queue wait and on the virtual clock.
    EXPECT_GE(result.telemetry.queueWaitSeconds, 0.25);
    EXPECT_GE(service.fleetStats().virtualSeconds, 0.25);
}

TEST(Failover, StallChargeExpiresATightDeadline)
{
    FleetFaultEvent hang;
    hang.kind = FleetFaultKind::HangCore;
    hang.atFleetJob = 0;
    ServiceConfig config = chaosConfig(4, {hang});
    config.fleet.faultDomain.stallWatchdogSeconds = 30.0;
    SolverService service(config);

    // Budget far below the stall charge: after the failover the job
    // must expire instead of running with a blown deadline.
    const QpProblem qp = generateProblem(Domain::Huber, 30, 7);
    SubmitOptions tight;
    tight.deadlineSeconds = 5.0;
    const SessionResult result = service.solve(
        service.openSession(deviceConfig()), qp, tight);

    EXPECT_EQ(result.status, SolveStatus::TimeLimitReached);
    EXPECT_EQ(service.stats().expired, 1);
    EXPECT_EQ(service.stats().completed, 0);
}

TEST(Failover, RespillIsDeterministicAndAvoidsFencedCore)
{
    const StructureFingerprint fp =
        fingerprintStructure(generateProblem(Domain::Portfolio, 30, 2));
    const std::size_t preferred =
        PlacementScheduler::preferredCore(fp, 4);

    std::vector<CoreLoad> loads(4);
    loads[preferred].available = false;
    std::vector<std::size_t> survivors;
    for (std::size_t core = 0; core < loads.size(); ++core)
        if (core != preferred)
            survivors.push_back(core);

    PlacementScheduler first(4, 4);
    PlacementScheduler second(4, 4);
    const std::size_t respill = first.place(fp, loads);
    EXPECT_NE(respill, preferred);
    EXPECT_EQ(respill, second.place(fp, loads));
    EXPECT_EQ(respill,
              PlacementScheduler::preferredAmong(fp, survivors));
}

TEST(Failover, OverflowRejectionCarriesRetryAfter)
{
    ServiceConfig config;
    config.maxQueueDepth = 1;
    config.fleet.coreCount = 1;
    SolverService service(config);
    const SessionId id = service.openSession(deviceConfig());
    const QpProblem qp = generateProblem(Domain::Svm, 30, 9);

    // Same session: the head job runs, one waits, and with the queue
    // bound at 1 the burst must overflow at least once (submission is
    // far faster than a solve; a solve cannot outrun the loop).
    std::vector<std::future<SessionResult>> futures;
    for (int i = 0; i < 12; ++i)
        futures.push_back(service.submit(
            id, withScaledCost(qp, 1.0 + 0.1 * double(i))));

    Count rejections = 0;
    for (auto& future : futures) {
        const SessionResult result = future.get();
        if (result.status == SolveStatus::Rejected) {
            ++rejections;
            // Every overflow rejection carries a back-off hint, at
            // least the configured floor.
            EXPECT_GE(result.retryAfterSeconds,
                      config.retryAfterFloorSeconds);
        } else {
            EXPECT_EQ(result.status, SolveStatus::Solved);
            EXPECT_EQ(result.retryAfterSeconds, 0.0);
        }
    }
    EXPECT_GE(rejections, 1);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.retryAfterHints, rejections);
    EXPECT_GT(stats.lastRetryAfterSeconds, 0.0);
}

TEST(FleetChaos, StandardScheduleResolvesEveryJobExactlyOnce)
{
    const auto schedule = FleetFaultInjector::standardSchedule(42, 40);
    auto injector =
        std::make_shared<FleetFaultInjector>(schedule);
    ServiceConfig config = chaosConfig(4, {});
    config.fleet.faultInjector = injector;
    SolverService service(config);

    std::vector<SessionId> ids;
    std::vector<std::future<SessionResult>> futures;
    for (int i = 0; i < 40; ++i) {
        const Domain domain = allDomains()[i % allDomains().size()];
        ids.push_back(service.openSession(deviceConfig()));
        futures.push_back(service.submit(
            ids.back(), generateProblem(domain, 25, 100 + i)));
    }
    Count solved = 0;
    for (auto& future : futures) {
        const SessionResult result = future.get();
        if (result.status == SolveStatus::Solved)
            ++solved;
    }
    service.waitIdle();

    // Exactly-once: every admitted job resolved with a real status,
    // none lost, none double-counted, despite a kill and a hang.
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 40);
    EXPECT_EQ(stats.completed + stats.rejected + stats.expired +
                  stats.shutdownDrained,
              40u);
    EXPECT_EQ(stats.rejected, 0);
    EXPECT_EQ(stats.expired, 0);
    EXPECT_EQ(solved, 40);
    EXPECT_EQ(injector->killsDelivered(), 1);
    EXPECT_EQ(injector->hangsDelivered(), 1);
    EXPECT_EQ(stats.quarantines, 2);
    EXPECT_GE(stats.failovers, 2);

    Count coreJobs = 0;
    for (const CoreStats& core : service.fleetStats().cores)
        coreJobs += core.jobs;
    EXPECT_EQ(coreJobs, 40);
}

TEST(FleetChaos, QuarantinedCoresAreReadmittedAfterBackoff)
{
    const auto schedule = FleetFaultInjector::standardSchedule(7, 24);
    ServiceConfig config = chaosConfig(4, schedule);
    SolverService service(config);

    // Sequential traffic keeps pumping the virtual clock past each
    // probe deadline; the kill event's first probe fails (failProbes
    // = 1), exercising the backoff ladder.
    std::vector<QpProblem> workload;
    for (int i = 0; i < 48; ++i)
        workload.push_back(generateProblem(
            allDomains()[i % allDomains().size()], 25, 200 + i));
    for (const SessionResult& result : solveAll(service, workload))
        EXPECT_EQ(result.status, SolveStatus::Solved);

    const FleetStats fleet = service.fleetStats();
    EXPECT_EQ(fleet.quarantines, 2);
    EXPECT_EQ(fleet.readmissions, 2);
    // Two readmissions, one of them after a failed probe.
    EXPECT_GE(fleet.probes, 3);
    for (const CoreStats& core : fleet.cores)
        EXPECT_NE(core.health, CoreHealth::Quarantined);
}

TEST(FleetChaos, ChaosRunIsDeterministic)
{
    std::vector<QpProblem> workload;
    for (int i = 0; i < 24; ++i)
        workload.push_back(generateProblem(
            allDomains()[i % allDomains().size()], 25, 300 + i));

    auto run = [&] {
        SolverService service(chaosConfig(
            4, FleetFaultInjector::standardSchedule(11, 24)));
        return solveAll(service, workload);
    };
    const std::vector<SessionResult> first = run();
    const std::vector<SessionResult> second = run();
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].status, second[i].status);
        EXPECT_EQ(first[i].iterations, second[i].iterations);
        EXPECT_EQ(first[i].failovers, second[i].failovers);
        EXPECT_EQ(first[i].x, second[i].x);
        EXPECT_EQ(first[i].y, second[i].y);
    }
}

TEST(FleetChaos, FailedOverSolvesMatchTheFaultFreeRun)
{
    std::vector<QpProblem> workload;
    for (int i = 0; i < 24; ++i)
        workload.push_back(generateProblem(
            allDomains()[i % allDomains().size()], 25, 400 + i));

    SolverService clean(chaosConfig(4, {}));
    const std::vector<SessionResult> baseline =
        solveAll(clean, workload);

    SolverService chaotic(chaosConfig(
        4, FleetFaultInjector::standardSchedule(3, 24)));
    const std::vector<SessionResult> disturbed =
        solveAll(chaotic, workload);

    // The chaos run must have actually failed something over, and
    // every solution — failed-over or not — must match the fault-free
    // run bit for bit.
    EXPECT_GE(chaotic.stats().failovers, 1);
    ASSERT_EQ(baseline.size(), disturbed.size());
    for (std::size_t i = 0; i < baseline.size(); ++i) {
        EXPECT_EQ(disturbed[i].status, SolveStatus::Solved);
        EXPECT_EQ(disturbed[i].iterations, baseline[i].iterations);
        EXPECT_EQ(disturbed[i].x, baseline[i].x);
        EXPECT_EQ(disturbed[i].y, baseline[i].y);
    }
}

TEST(FleetChaos, QuarantineInvalidatesThePartitionAndRewarmsRespill)
{
    const QpProblem qp = generateProblem(Domain::Eqqp, 25, 19);
    const StructureFingerprint fp = fingerprintStructure(qp);
    const std::size_t home = PlacementScheduler::preferredCore(fp, 4);

    // Kill the structure's home core as it starts its second job:
    // the first solve warms the partition, the second fails over.
    FleetFaultEvent kill;
    kill.kind = FleetFaultKind::KillCore;
    kill.core = home;
    kill.atCoreJob = 1;
    kill.failProbes = 100; // the home core never comes back
    SolverService service(chaosConfig(4, {kill}));

    const SessionId first = service.openSession(deviceConfig());
    ASSERT_EQ(service.solve(first, qp).status, SolveStatus::Solved);

    const SessionId second = service.openSession(deviceConfig());
    const SessionResult failedOver =
        service.solve(second, withScaledCost(qp, 2.0));
    EXPECT_EQ(failedOver.status, SolveStatus::Solved);
    EXPECT_EQ(failedOver.failovers, 1);
    // The artifact died with the partition: this run re-customizes.
    EXPECT_FALSE(failedOver.cacheHit);

    std::vector<std::size_t> survivors;
    for (std::size_t core = 0; core < 4; ++core)
        if (core != home)
            survivors.push_back(core);
    const std::size_t respill =
        PlacementScheduler::preferredAmong(fp, survivors);

    // Same structure again: it must land on the deterministic
    // re-spill core and find the re-warmed artifact hot there.
    const SessionId third = service.openSession(deviceConfig());
    const SessionResult rewarmed =
        service.solve(third, withScaledCost(qp, 3.0));
    EXPECT_EQ(rewarmed.status, SolveStatus::Solved);
    EXPECT_TRUE(rewarmed.cacheHit);

    const FleetStats fleet = service.fleetStats();
    EXPECT_EQ(fleet.partitionInvalidations, 1);
    EXPECT_EQ(fleet.cores[home].cache.size, 0);
    EXPECT_EQ(fleet.cores[respill].cache.hits, 1);
}

} // namespace
} // namespace rsqp
