/**
 * @file
 * SolverSession tests: the three request paths (parametric reuse,
 * cache-hit rebuild, cold rebuild), warm-start carry-over, counter
 * bookkeeping, and the acceptance property that a cache-hit solve is
 * bitwise identical to a cold-cache solve.
 */

#include <memory>

#include <gtest/gtest.h>

#include "problems/suite.hpp"
#include "service/session.hpp"

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

/** Same structure, different q. */
QpProblem
withScaledCost(const QpProblem& qp, Real factor)
{
    QpProblem out = qp;
    for (Real& v : out.q)
        v *= factor;
    return out;
}

TEST(SolverSession, FirstSolveIsColdMiss)
{
    auto cache = std::make_shared<CustomizationCache>(8);
    SolverSession session(deviceConfig(), cache);
    const QpProblem qp = generateProblem(Domain::Control, 25, 3);

    const SessionResult result = session.solve(qp);
    ASSERT_EQ(result.status, SolveStatus::Solved);
    EXPECT_FALSE(result.parametricReuse);
    EXPECT_FALSE(result.cacheHit);
    EXPECT_FALSE(result.warmStarted);
    EXPECT_GT(result.deviceSeconds, 0.0);

    const SessionStats& stats = session.stats();
    EXPECT_EQ(stats.solves, 1);
    EXPECT_EQ(stats.rebuilds, 1);
    EXPECT_EQ(stats.cacheMisses, 1);
    EXPECT_EQ(stats.cacheHits, 0);
    EXPECT_EQ(cache->stats().size, 1u);
}

TEST(SolverSession, RepeatStructureTakesParametricPath)
{
    auto cache = std::make_shared<CustomizationCache>(8);
    SolverSession session(deviceConfig(), cache);
    const QpProblem qp = generateProblem(Domain::Lasso, 30, 5);

    const SessionResult first = session.solve(qp);
    ASSERT_EQ(first.status, SolveStatus::Solved);
    const SessionResult second =
        session.solve(withScaledCost(qp, 0.5));
    ASSERT_EQ(second.status, SolveStatus::Solved);

    EXPECT_TRUE(second.parametricReuse);
    EXPECT_TRUE(second.warmStarted);
    const SessionStats& stats = session.stats();
    EXPECT_EQ(stats.solves, 2);
    EXPECT_EQ(stats.rebuilds, 1);
    EXPECT_EQ(stats.parametricSolves, 1);
    EXPECT_EQ(stats.warmStarts, 1);
    // The parametric path performs zero customization work: the cache
    // saw exactly one lookup (the cold miss).
    EXPECT_EQ(cache->stats().hits + cache->stats().misses, 1);
}

TEST(SolverSession, CacheHitSolveIsBitwiseEqualToColdSolve)
{
    // The acceptance property: session B has never seen the structure
    // (no warm state, fresh solver) but finds session A's artifact in
    // the shared cache. Its solve must perform zero customization work
    // and reproduce a cold-cache solve of the same problem bitwise.
    auto cache = std::make_shared<CustomizationCache>(8);
    const QpProblem qp = generateProblem(Domain::Portfolio, 30, 7);
    const QpProblem probe = withScaledCost(qp, 1.7);
    const SessionConfig config = deviceConfig();

    SolverSession sessionA(config, cache);
    ASSERT_EQ(sessionA.solve(qp).status, SolveStatus::Solved);
    ASSERT_EQ(cache->stats().size, 1u);

    SolverSession sessionB(config, cache);
    const SessionResult viaCache = sessionB.solve(probe);
    ASSERT_EQ(viaCache.status, SolveStatus::Solved);
    EXPECT_TRUE(viaCache.cacheHit);
    EXPECT_FALSE(viaCache.warmStarted);
    EXPECT_EQ(sessionB.stats().cacheHits, 1);
    EXPECT_EQ(sessionB.stats().cacheMisses, 0);

    RsqpSolver cold(probe, config.osqp, config.custom);
    ASSERT_FALSE(cold.customizationReused());
    const RsqpResult reference = cold.solve();
    ASSERT_EQ(reference.status, viaCache.status);
    EXPECT_EQ(reference.x, viaCache.x);
    EXPECT_EQ(reference.y, viaCache.y);
    EXPECT_EQ(reference.z, viaCache.z);
    EXPECT_EQ(reference.iterations, viaCache.iterations);
}

TEST(SolverSession, StructureChangeRebuildsAndDropsWarmState)
{
    auto cache = std::make_shared<CustomizationCache>(8);
    SolverSession session(deviceConfig(), cache);

    const QpProblem small = generateProblem(Domain::Huber, 20, 2);
    const QpProblem large = generateProblem(Domain::Huber, 35, 2);
    ASSERT_EQ(session.solve(small).status, SolveStatus::Solved);
    const SessionResult second = session.solve(large);
    ASSERT_EQ(second.status, SolveStatus::Solved);

    EXPECT_FALSE(second.parametricReuse);
    // Different shape: the previous solution must not be applied.
    EXPECT_FALSE(second.warmStarted);
    EXPECT_EQ(session.stats().rebuilds, 2);

    // Coming back to the first structure is a cache hit, and the warm
    // state from the large problem is rejected by shape.
    const SessionResult third = session.solve(small);
    ASSERT_EQ(third.status, SolveStatus::Solved);
    EXPECT_TRUE(third.cacheHit);
    EXPECT_FALSE(third.warmStarted);
}

TEST(SolverSession, WithoutCacheEverySolveWorks)
{
    SolverSession session(deviceConfig(), nullptr);
    const QpProblem qp = generateProblem(Domain::Svm, 20, 11);
    ASSERT_EQ(session.solve(qp).status, SolveStatus::Solved);
    const SessionResult second = session.solve(withScaledCost(qp, 2.0));
    ASSERT_EQ(second.status, SolveStatus::Solved);
    EXPECT_TRUE(second.parametricReuse);
    EXPECT_EQ(session.stats().cacheHits, 0);
    EXPECT_EQ(session.stats().cacheMisses, 0);
}

TEST(SolverSession, InvalidProblemLeavesSessionStateUntouched)
{
    auto cache = std::make_shared<CustomizationCache>(8);
    SolverSession session(deviceConfig(), cache);
    const QpProblem qp = generateProblem(Domain::Control, 25, 13);
    ASSERT_EQ(session.solve(qp).status, SolveStatus::Solved);

    QpProblem broken = qp;
    broken.l[0] = 1.0;
    broken.u[0] = -1.0;  // l > u
    const SessionResult bad = session.solve(broken);
    EXPECT_EQ(bad.status, SolveStatus::InvalidProblem);
    EXPECT_TRUE(
        bad.validation.has(ValidationCode::InfeasibleBounds));
    EXPECT_EQ(session.stats().invalidRequests, 1);

    // The live solver survived: the next good request still takes the
    // parametric fast path with warm start.
    const SessionResult good = session.solve(withScaledCost(qp, 0.9));
    ASSERT_EQ(good.status, SolveStatus::Solved);
    EXPECT_TRUE(good.parametricReuse);
    EXPECT_TRUE(good.warmStarted);
}

TEST(SolverSession, DeviceInvalidSettingsReturnEngineReport)
{
    // A client's bad settings reach the device engine: the session must
    // answer with a typed InvalidProblem and the engine's diagnostics,
    // on the first (rebuild) and the next (parametric) request alike.
    const QpProblem qp = generateProblem(Domain::Control, 4, 1);
    SessionConfig zero_interval = deviceConfig();
    zero_interval.osqp.checkInterval = 0;
    SessionConfig wide_alpha = deviceConfig();
    wide_alpha.osqp.alpha = 2.5;
    for (const SessionConfig& config : {zero_interval, wide_alpha}) {
        SolverSession session(config);
        const SessionResult first = session.solve(qp);
        EXPECT_EQ(first.status, SolveStatus::InvalidProblem);
        EXPECT_TRUE(
            first.validation.has(ValidationCode::InvalidSetting));
        const SessionResult second = session.solve(withScaledCost(qp, 0.9));
        EXPECT_TRUE(second.parametricReuse);
        EXPECT_EQ(second.status, SolveStatus::InvalidProblem);
        EXPECT_TRUE(
            second.validation.has(ValidationCode::InvalidSetting));
    }
}

TEST(SolverSession, HostEngineSolvesAndProfilesHotPath)
{
    SessionConfig config;
    config.engine = SessionEngine::Host;
    config.osqp.backend = KktBackend::IndirectPcg;
    SolverSession session(config, nullptr);
    const QpProblem qp = generateProblem(Domain::Lasso, 30, 17);

    const SessionResult result = session.solve(qp);
    ASSERT_EQ(result.status, SolveStatus::Solved);
    EXPECT_GT(result.hotPath.totalCalls(), 0u);

    const SessionResult repeat = session.solve(withScaledCost(qp, 2.0));
    ASSERT_EQ(repeat.status, SolveStatus::Solved);
    EXPECT_TRUE(repeat.parametricReuse);
    EXPECT_TRUE(repeat.warmStarted);
}

TEST(SolverSession, ResetForgetsStructureAndWarmState)
{
    auto cache = std::make_shared<CustomizationCache>(8);
    SolverSession session(deviceConfig(), cache);
    const QpProblem qp = generateProblem(Domain::Eqqp, 20, 19);
    ASSERT_EQ(session.solve(qp).status, SolveStatus::Solved);

    session.reset();
    const SessionResult after = session.solve(qp);
    ASSERT_EQ(after.status, SolveStatus::Solved);
    EXPECT_FALSE(after.parametricReuse);
    EXPECT_FALSE(after.warmStarted);
    EXPECT_TRUE(after.cacheHit);  // the shared cache survives reset
}

} // namespace
} // namespace rsqp
