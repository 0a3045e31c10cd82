/**
 * @file
 * Fault-tolerance layer tests: divergence watchdog verdicts, iterate
 * checkpointing, recovery bookkeeping, wall-clock time limits,
 * PCG→LDL fallback under injected soft errors, and the end-to-end
 * guarantee that a solve under fault injection always terminates with
 * a typed status and finite iterates.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>

#include "common/fault_injection.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/recovery.hpp"
#include "osqp/residuals.hpp"
#include "osqp/solver.hpp"
#include "problems/suite.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

constexpr Real kNan = std::numeric_limits<Real>::quiet_NaN();

// --- DivergenceWatchdog ---------------------------------------------

TEST(DivergenceWatchdog, ImprovingResidualsAreOk)
{
    DivergenceWatchdog watchdog(FaultToleranceSettings{});
    Real res = 1.0;
    for (int i = 0; i < 50; ++i) {
        EXPECT_EQ(watchdog.observe(res, res),
                  DivergenceWatchdog::Verdict::Ok);
        res *= 0.5;
    }
    EXPECT_LT(watchdog.bestScore(), 1e-10);
}

TEST(DivergenceWatchdog, BlowupIsDiverged)
{
    FaultToleranceSettings settings;
    settings.divergenceFactor = 1e6;
    DivergenceWatchdog watchdog(settings);
    ASSERT_EQ(watchdog.observe(1.0, 1.0),
              DivergenceWatchdog::Verdict::Ok);
    EXPECT_EQ(watchdog.observe(1e9, 1e9),
              DivergenceWatchdog::Verdict::Diverged);
}

TEST(DivergenceWatchdog, NonFiniteIsDiverged)
{
    DivergenceWatchdog watchdog(FaultToleranceSettings{});
    ASSERT_EQ(watchdog.observe(1.0, 1.0),
              DivergenceWatchdog::Verdict::Ok);
    EXPECT_EQ(watchdog.observe(kNan, 0.5),
              DivergenceWatchdog::Verdict::Diverged);
    EXPECT_EQ(
        watchdog.observe(std::numeric_limits<Real>::infinity(), 0.5),
        DivergenceWatchdog::Verdict::Diverged);
}

TEST(DivergenceWatchdog, StallAfterConfiguredChecks)
{
    FaultToleranceSettings settings;
    settings.stallChecks = 5;
    DivergenceWatchdog watchdog(settings);
    ASSERT_EQ(watchdog.observe(1.0, 1.0),
              DivergenceWatchdog::Verdict::Ok);
    // Flat residuals: no improvement, no blowup.
    DivergenceWatchdog::Verdict verdict =
        DivergenceWatchdog::Verdict::Ok;
    int checks = 0;
    while (verdict == DivergenceWatchdog::Verdict::Ok && checks < 50) {
        verdict = watchdog.observe(1.0, 1.0);
        ++checks;
    }
    EXPECT_EQ(verdict, DivergenceWatchdog::Verdict::Stalled);
    EXPECT_LE(checks, settings.stallChecks + 1);
    // After a stall the counter restarts; the next flat check is Ok.
    EXPECT_EQ(watchdog.observe(1.0, 1.0),
              DivergenceWatchdog::Verdict::Ok);
}

TEST(DivergenceWatchdog, ZeroStallChecksDisablesStallDetection)
{
    FaultToleranceSettings settings;
    settings.stallChecks = 0;
    DivergenceWatchdog watchdog(settings);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(watchdog.observe(1.0, 1.0),
                  DivergenceWatchdog::Verdict::Ok);
}

TEST(DivergenceWatchdog, ResetForgetsHistory)
{
    DivergenceWatchdog watchdog(FaultToleranceSettings{});
    ASSERT_EQ(watchdog.observe(1e-8, 1e-8),
              DivergenceWatchdog::Verdict::Ok);
    watchdog.reset();
    // 1.0 would be a catastrophic blowup vs. best 1e-8 without reset
    // (factor 1e8 > divergenceFactor 1e6).
    EXPECT_EQ(watchdog.observe(1.0, 1.0),
              DivergenceWatchdog::Verdict::Ok);
}

// --- IterateCheckpoint ----------------------------------------------

TEST(IterateCheckpoint, CaptureAndRestore)
{
    IterateCheckpoint checkpoint;
    EXPECT_FALSE(checkpoint.valid());

    const Vector x0 = {1.0, 2.0}, y0 = {3.0}, z0 = {4.0};
    checkpoint.capture(x0, y0, z0, 42);
    EXPECT_TRUE(checkpoint.valid());
    EXPECT_EQ(checkpoint.iteration(), 42);

    Vector x = {kNan, kNan}, y = {kNan}, z = {kNan};
    checkpoint.restore(x, y, z);
    EXPECT_EQ(x, x0);
    EXPECT_EQ(y, y0);
    EXPECT_EQ(z, z0);
}

// --- RecoveryReport -------------------------------------------------

TEST(RecoveryReport, RecordsEventsInOrder)
{
    RecoveryReport report;
    EXPECT_TRUE(report.empty());
    report.record(RecoveryAction::PcgDirectFallback, 10, "breakdown");
    report.record(RecoveryAction::CheckpointRestore, 20);
    ASSERT_EQ(report.events.size(), 2u);
    EXPECT_EQ(report.events[0].action,
              RecoveryAction::PcgDirectFallback);
    EXPECT_EQ(report.events[0].iteration, 10);
    EXPECT_EQ(report.events[1].iteration, 20);
    EXPECT_FALSE(report.empty());
}

// --- Wall-clock time limit ------------------------------------------

TEST(TimeLimit, ExpiresWithTypedStatusAndFiniteIterates)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 60, 5);
    OsqpSettings settings;
    settings.timeLimit = 1e-9;  // expires at the first iteration check
    settings.maxIter = 200000;
    const OsqpResult result = OsqpSolver(qp, settings).solve();
    EXPECT_EQ(result.info.status, SolveStatus::TimeLimitReached);
    EXPECT_FALSE(hasNonFinite(result.x));
    EXPECT_FALSE(hasNonFinite(result.y));
    EXPECT_FALSE(hasNonFinite(result.z));
}

TEST(TimeLimit, EarlyExitReportsResidualsOfReturnedPoint)
{
    // A solve that stops before its first check must report the
    // residuals of the point it returns, not the previous solve's.
    const QpProblem qp = generateProblem(Domain::Lasso, 40, 1);
    const OsqpSettings settings;
    OsqpSolver solver(qp, settings);
    ASSERT_EQ(solver.solve().info.status, SolveStatus::Solved);

    QpProblem shifted = qp;
    for (Real& v : shifted.q)
        v *= 3.0;
    solver.updateLinearCost(shifted.q);
    solver.setTimeLimit(1e-12);
    const OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::TimeLimitReached);
    EXPECT_EQ(result.info.iterations, 0);
    const ResidualInfo returned =
        computeResiduals(shifted, result.x, result.y, result.z,
                         settings.epsAbs, settings.epsRel);
    EXPECT_DOUBLE_EQ(result.info.primRes, returned.primRes);
    EXPECT_DOUBLE_EQ(result.info.dualRes, returned.dualRes);
}

TEST(TimeLimit, GenerousBudgetDoesNotTrigger)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 30, 5);
    OsqpSettings settings;
    settings.timeLimit = 3600.0;
    const OsqpResult result = OsqpSolver(qp, settings).solve();
    EXPECT_EQ(result.info.status, SolveStatus::Solved);
}

// --- Fault injection primitives -------------------------------------

/** Bit pattern of a Real (NaN-safe equality for injected words). */
std::uint64_t
bits(Real v)
{
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

TEST(FaultInjector, DeterministicAcrossInstances)
{
    FaultInjectionConfig config;
    config.enabled = true;
    config.seed = 1234;
    config.ratePerWord = 0.05;
    FaultInjector a(config), b(config);
    for (std::uint64_t i = 0; i < 2000; ++i) {
        const Real v = static_cast<Real>(i) * 0.25 + 1.0;
        EXPECT_EQ(bits(a.corruptWord(v, fault_streams::kHbmLoad, i)),
                  bits(b.corruptWord(v, fault_streams::kHbmLoad, i)))
            << i;
    }
    EXPECT_EQ(a.faultsInjected(), b.faultsInjected());
    EXPECT_GT(a.faultsInjected(), 0);
}

TEST(FaultInjector, RateIsApproximatelyHonored)
{
    FaultInjectionConfig config;
    config.enabled = true;
    config.seed = 9;
    config.ratePerWord = 0.01;
    FaultInjector injector(config);
    const std::uint64_t words = 200000;
    for (std::uint64_t i = 0; i < words; ++i)
        injector.corruptWord(1.0, fault_streams::kSpmvValues, i);
    const Real observed = static_cast<Real>(injector.faultsInjected()) /
        static_cast<Real>(words);
    EXPECT_NEAR(observed, config.ratePerWord,
                0.5 * config.ratePerWord);
    EXPECT_EQ(injector.faultsInjected(),
              injector.bitFlipsInjected() + injector.nansInjected());
    EXPECT_GT(injector.nansInjected(), 0);
    EXPECT_GT(injector.bitFlipsInjected(), 0);
}

TEST(FaultInjector, EpochChangesPattern)
{
    FaultInjectionConfig config;
    config.enabled = true;
    config.seed = 7;
    config.ratePerWord = 0.02;
    FaultInjector injector(config);
    std::vector<std::uint64_t> first, second;
    for (std::uint64_t i = 0; i < 5000; ++i)
        first.push_back(bits(
            injector.corruptWord(2.0, fault_streams::kMacOutput, i)));
    injector.advanceEpoch();
    for (std::uint64_t i = 0; i < 5000; ++i)
        second.push_back(bits(
            injector.corruptWord(2.0, fault_streams::kMacOutput, i)));
    EXPECT_NE(first, second);
}

TEST(FaultInjector, DisabledInjectorIsIdentity)
{
    FaultInjector injector(FaultInjectionConfig{});
    EXPECT_FALSE(injector.enabled());
    for (std::uint64_t i = 0; i < 1000; ++i)
        EXPECT_EQ(injector.corruptWord(3.5, fault_streams::kHbmLoad, i),
                  3.5);
    EXPECT_EQ(injector.faultsInjected(), 0);
}

TEST(FaultScope, InstallsAndRestoresThreadLocal)
{
    EXPECT_EQ(activeFaultInjector(), nullptr);
    FaultInjectionConfig config;
    config.enabled = true;
    FaultInjector injector(config);
    {
        FaultScope scope(&injector);
        EXPECT_EQ(activeFaultInjector(), &injector);
        {
            FaultScope inner(nullptr);
            // Null scope is a no-op: the outer injector stays active.
            EXPECT_EQ(activeFaultInjector(), &injector);
        }
        EXPECT_EQ(activeFaultInjector(), &injector);
    }
    EXPECT_EQ(activeFaultInjector(), nullptr);
}

// --- PCG breakdown and LDL fallback under injection -----------------

/**
 * Aggressive NaN injection into the software PCG operator stream: the
 * breakdown screen must catch the poisoned step and the direct LDL'
 * fallback (plus the ADMM watchdog above it) must keep the solve
 * typed and finite.
 */
TEST(PcgFallback, InjectedFaultsAreSurvivedOrTyped)
{
    const QpProblem qp = generateProblem(Domain::Svm, 30, 11);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    settings.faultInjection.enabled = true;
    settings.faultInjection.seed = 21;
    settings.faultInjection.ratePerWord = 2e-4;
    settings.faultInjection.nanFraction = 1.0;

    OsqpSolver solver(qp, settings);
    const OsqpResult result = solver.solve();

    // Typed terminal status, finite iterates — never NaN output.
    EXPECT_NE(result.info.status, SolveStatus::Unsolved);
    EXPECT_FALSE(hasNonFinite(result.x));
    EXPECT_FALSE(hasNonFinite(result.y));
    EXPECT_FALSE(hasNonFinite(result.z));
}

TEST(PcgFallback, RecoveryEventsAreRecordedUnderHeavyInjection)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 40, 3);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    settings.maxIter = 2000;
    settings.faultInjection.enabled = true;
    settings.faultInjection.seed = 4;
    settings.faultInjection.ratePerWord = 5e-3;  // heavy bombardment
    settings.faultInjection.nanFraction = 1.0;

    OsqpSolver solver(qp, settings);
    const OsqpResult result = solver.solve();
    EXPECT_FALSE(hasNonFinite(result.x));
    // At this rate the operator stream is hit with near-certainty, so
    // at least one fallback (or watchdog recovery) must be on record.
    EXPECT_FALSE(result.info.recovery.empty())
        << "no recovery action recorded under 5e-3 NaN injection";
}

TEST(PcgFallback, DisabledFallbackStillTerminatesTyped)
{
    const QpProblem qp = generateProblem(Domain::Svm, 24, 2);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    settings.maxIter = 1000;
    settings.pcg.directFallback = false;
    settings.faultInjection.enabled = true;
    settings.faultInjection.seed = 5;
    settings.faultInjection.ratePerWord = 5e-3;
    settings.faultInjection.nanFraction = 1.0;

    const OsqpResult result = OsqpSolver(qp, settings).solve();
    EXPECT_NE(result.info.status, SolveStatus::Unsolved);
    EXPECT_FALSE(hasNonFinite(result.x));
    EXPECT_FALSE(hasNonFinite(result.y));
}

/** Identical settings + seed must reproduce the identical solve. */
TEST(PcgFallback, InjectionRunsAreDeterministic)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 30, 8);
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    settings.faultInjection.enabled = true;
    settings.faultInjection.seed = 77;
    settings.faultInjection.ratePerWord = 1e-3;

    const OsqpResult a = OsqpSolver(qp, settings).solve();
    const OsqpResult b = OsqpSolver(qp, settings).solve();
    EXPECT_EQ(a.info.status, b.info.status);
    EXPECT_EQ(a.info.iterations, b.info.iterations);
    EXPECT_EQ(a.x, b.x);
    EXPECT_EQ(a.y, b.y);
}

// --- Watchdog disabled keeps legacy behavior ------------------------

TEST(Watchdog, DisabledWatchdogStillSolvesCleanProblems)
{
    const QpProblem qp = generateProblem(Domain::Control, 8, 1);
    OsqpSettings settings;
    settings.faultTolerance.watchdog = false;
    const OsqpResult result = OsqpSolver(qp, settings).solve();
    EXPECT_EQ(result.info.status, SolveStatus::Solved);
    EXPECT_TRUE(result.info.recovery.empty());
}

TEST(Watchdog, CleanSolveRecordsNoRecovery)
{
    const QpProblem qp = generateProblem(Domain::Lasso, 30, 2);
    const OsqpResult result = OsqpSolver(qp, OsqpSettings{}).solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);
    EXPECT_TRUE(result.info.recovery.empty());
    EXPECT_EQ(result.info.recovery.pcgFallbacks, 0);
    EXPECT_EQ(result.info.recovery.checkpointRestores, 0);
}

} // namespace
} // namespace rsqp
