/**
 * @file
 * Backend subsystem tests: cross-backend solution equivalence, ADMM
 * and PDHG determinism across thread counts, the Auto pick's bitwise
 * identity with the engine it selects, PDHG's recovery path under
 * injected faults, settings validation, and per-engine telemetry
 * labels and counters.
 */

#include <gtest/gtest.h>

#include "backends/backend_selector.hpp"
#include "backends/qp_backend.hpp"
#include "common/thread_pool.hpp"
#include "core/rsqp_solver.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/residuals.hpp"
#include "osqp/solver.hpp"
#include "osqp/validate.hpp"
#include "problems/suite.hpp"
#include "telemetry/metrics.hpp"

namespace rsqp
{
namespace
{

OsqpSettings
baseSettings()
{
    OsqpSettings settings;
    settings.maxIter = 20000;
    settings.adaptiveRho = false;
    return settings;
}

OsqpResult
solveWith(const QpProblem& problem, OsqpSettings settings,
          BackendKind kind)
{
    settings.firstOrder.method = kind;
    std::unique_ptr<QpBackend> backend =
        makeBackend(problem, std::move(settings));
    return backend->solve();
}

TEST(Backends, FactoryReturnsRequestedKind)
{
    const QpProblem qp = generateProblem(Domain::Control, 8, 3);
    for (BackendKind kind :
         {BackendKind::Admm, BackendKind::Pdhg, BackendKind::Auto}) {
        OsqpSettings settings = baseSettings();
        settings.firstOrder.method = kind;
        std::unique_ptr<QpBackend> backend =
            makeBackend(qp, std::move(settings));
        ASSERT_NE(backend, nullptr);
        // Auto is resolved at build time to the engine that runs.
        EXPECT_EQ(backend->kind(), kind == BackendKind::Auto
                                       ? chooseBackend(qp)
                                       : kind);
        EXPECT_EQ(backend->numVariables(), qp.numVariables());
        EXPECT_EQ(backend->numConstraints(), qp.numConstraints());
    }
}

TEST(Backends, CrossBackendSolutionEquivalence)
{
    const struct
    {
        Domain domain;
        Index size;
        std::uint64_t seed;
    } cases[] = {
        {Domain::Control, 12, 3},
        {Domain::Portfolio, 80, 9},
        {Domain::Eqqp, 60, 1},
        {Domain::Lasso, 30, 2},
    };
    for (const auto& c : cases) {
        const QpProblem qp =
            generateProblem(c.domain, c.size, c.seed);
        OsqpSettings settings = baseSettings();
        settings.epsAbs = 1e-6;
        settings.epsRel = 1e-6;

        const OsqpResult admm =
            solveWith(qp, settings, BackendKind::Admm);
        const OsqpResult pdhg =
            solveWith(qp, settings, BackendKind::Pdhg);

        ASSERT_EQ(admm.info.status, SolveStatus::Solved)
            << toString(c.domain);
        ASSERT_EQ(pdhg.info.status, SolveStatus::Solved)
            << toString(c.domain);

        const Real scale = 1.0 + std::abs(admm.info.objective);
        EXPECT_LT(
            std::abs(pdhg.info.objective - admm.info.objective) /
                scale,
            1e-3)
            << toString(c.domain);
    }
}

TEST(Backends, AdmmDeterministicAcrossThreadCounts)
{
    // ADMM on the indirect (PCG) KKT path: the ambient pool width must
    // not leak into the solve, so every thread count reproduces the
    // single-thread run bit for bit.
    const QpProblem qp = generateProblem(Domain::Lasso, 40, 17);
    OsqpSettings settings = baseSettings();
    settings.backend = KktBackend::IndirectPcg;

    OsqpResult reference;
    {
        NumThreadsScope scope(1);
        reference = solveWith(qp, settings, BackendKind::Admm);
    }
    ASSERT_EQ(reference.info.status, SolveStatus::Solved);
    ASSERT_GT(reference.info.telemetry.pcgIterationsTotal, 0);

    for (Index threads : {2, 4, 8}) {
        NumThreadsScope scope(threads);
        const OsqpResult run =
            solveWith(qp, settings, BackendKind::Admm);
        ASSERT_EQ(run.info.status, reference.info.status)
            << threads << " threads";
        EXPECT_EQ(run.info.iterations, reference.info.iterations)
            << threads << " threads";
        EXPECT_EQ(run.info.telemetry.pcgIterationsTotal,
                  reference.info.telemetry.pcgIterationsTotal)
            << threads << " threads";
        ASSERT_EQ(run.x, reference.x) << threads << " threads";
        ASSERT_EQ(run.y, reference.y) << threads << " threads";
    }
}

TEST(Backends, PdhgDeterministicAcrossThreadCounts)
{
    const QpProblem qp = generateProblem(Domain::Control, 20, 17);
    OsqpSettings settings = baseSettings();

    OsqpResult reference;
    {
        NumThreadsScope scope(1);
        reference = solveWith(qp, settings, BackendKind::Pdhg);
    }
    ASSERT_EQ(reference.info.status, SolveStatus::Solved);

    for (Index threads : {2, 4, 8}) {
        NumThreadsScope scope(threads);
        const OsqpResult run =
            solveWith(qp, settings, BackendKind::Pdhg);
        ASSERT_EQ(run.info.status, reference.info.status)
            << threads << " threads";
        EXPECT_EQ(run.info.iterations, reference.info.iterations)
            << threads << " threads";
        EXPECT_EQ(run.info.telemetry.restarts,
                  reference.info.telemetry.restarts)
            << threads << " threads";
        ASSERT_EQ(run.x.size(), reference.x.size());
        for (std::size_t i = 0; i < reference.x.size(); ++i)
            ASSERT_EQ(run.x[i], reference.x[i])
                << threads << " threads, x[" << i << "]";
        for (std::size_t i = 0; i < reference.y.size(); ++i)
            ASSERT_EQ(run.y[i], reference.y[i])
                << threads << " threads, y[" << i << "]";
    }
}

TEST(Backends, PdhgAdaptiveRestartDeterminism)
{
    // Adaptive restart to the running average is PDHG's only restart
    // mode; its restart decisions must not depend on the pool size.
    const QpProblem qp = generateProblem(Domain::Svm, 30, 23);
    const OsqpSettings settings = baseSettings();

    OsqpResult first, second;
    {
        NumThreadsScope scope(1);
        first = solveWith(qp, settings, BackendKind::Pdhg);
    }
    {
        NumThreadsScope scope(4);
        second = solveWith(qp, settings, BackendKind::Pdhg);
    }
    ASSERT_EQ(first.info.status, second.info.status);
    EXPECT_EQ(first.info.iterations, second.info.iterations);
    EXPECT_EQ(first.info.telemetry.restarts,
              second.info.telemetry.restarts);
    for (std::size_t i = 0; i < first.x.size(); ++i)
        ASSERT_EQ(first.x[i], second.x[i]);
}

TEST(Backends, AutoMatchesSingleEngineWhenNoSwitchNeeded)
{
    // Auto is the selected engine, bit for bit: lasso keeps ADMM and
    // control at this size routes to PDHG.
    const struct
    {
        Domain domain;
        Index size;
        BackendKind engine;
    } cases[] = {
        {Domain::Lasso, 40, BackendKind::Admm},
        {Domain::Control, 40, BackendKind::Pdhg},
    };
    for (const auto& c : cases) {
        const QpProblem qp = generateProblem(c.domain, c.size, 13);
        ASSERT_EQ(chooseBackend(qp), c.engine) << toString(c.domain);
        const OsqpSettings settings = baseSettings();

        const OsqpResult engine = solveWith(qp, settings, c.engine);
        const OsqpResult auto_run =
            solveWith(qp, settings, BackendKind::Auto);
        ASSERT_EQ(auto_run.info.status, SolveStatus::Solved)
            << toString(c.domain);
        EXPECT_EQ(auto_run.info.status, engine.info.status);
        EXPECT_EQ(auto_run.info.telemetry.backend,
                  backendKindName(c.engine));
        EXPECT_EQ(auto_run.info.iterations, engine.info.iterations)
            << toString(c.domain);
        EXPECT_EQ(auto_run.info.objective, engine.info.objective)
            << toString(c.domain);
        ASSERT_EQ(auto_run.x.size(), engine.x.size());
        for (std::size_t i = 0; i < engine.x.size(); ++i)
            EXPECT_EQ(auto_run.x[i], engine.x[i])
                << toString(c.domain) << " x[" << i << "]";
        ASSERT_EQ(auto_run.y.size(), engine.y.size());
        for (std::size_t i = 0; i < engine.y.size(); ++i)
            EXPECT_EQ(auto_run.y[i], engine.y[i])
                << toString(c.domain) << " y[" << i << "]";
    }
}

TEST(Backends, TelemetryCarriesBackendLabelAndRestarts)
{
    const QpProblem qp = generateProblem(Domain::Control, 12, 7);
    OsqpSettings settings = baseSettings();

    const OsqpResult admm = solveWith(qp, settings, BackendKind::Admm);
    EXPECT_EQ(admm.info.telemetry.backend, "admm");
    EXPECT_EQ(admm.info.telemetry.restarts, 0);

    const OsqpResult pdhg = solveWith(qp, settings, BackendKind::Pdhg);
    EXPECT_EQ(pdhg.info.telemetry.backend, "pdhg");
    EXPECT_GE(pdhg.info.telemetry.restarts, 1);
}

TEST(Backends, MetricsCountPerBackendSolves)
{
    using telemetry::MetricsRegistry;
    const QpProblem qp = generateProblem(Domain::Eqqp, 30, 3);
    OsqpSettings settings = baseSettings();

    const auto solves = [](const char* engine) {
        return MetricsRegistry::global().snapshot().counterValue(
            telemetry::labeledName("rsqp_solves_total", "engine",
                                   engine));
    };

    // A direct OsqpSolver solve and a makeBackend ADMM solve each
    // count once under the same engine.
    std::uint64_t before = solves("admm");
    (void)OsqpSolver(qp, settings).solve();
    EXPECT_EQ(solves("admm"), before + 1);
    before = solves("admm");
    (void)solveWith(qp, settings, BackendKind::Admm);
    EXPECT_EQ(solves("admm"), before + 1);

    before = solves("pdhg");
    (void)solveWith(qp, settings, BackendKind::Pdhg);
    EXPECT_EQ(solves("pdhg"), before + 1);

    OsqpSettings device_settings;
    device_settings.backend = KktBackend::IndirectPcg;
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver device(generateProblem(Domain::Control, 4, 1),
                      device_settings, custom);
    const std::uint64_t admm_before = solves("admm");
    before = solves("device");
    (void)device.solve();
    EXPECT_EQ(solves("device"), before + 1);
    EXPECT_EQ(solves("admm"), admm_before);
}

TEST(Backends, ParametricUpdatesMatchRebuild)
{
    // The update path keeps the setup-time Ruiz scaling while a
    // rebuild rescales from the new data, so the trajectories differ;
    // at a tight tolerance both must land on the same optimum.
    const QpProblem qp = generateProblem(Domain::Portfolio, 50, 19);
    OsqpSettings settings = baseSettings();
    settings.epsAbs = 1e-7;
    settings.epsRel = 1e-7;

    QpProblem shifted = qp;
    for (Real& v : shifted.q)
        v *= 1.25;

    settings.firstOrder.method = BackendKind::Pdhg;
    std::unique_ptr<QpBackend> updated = makeBackend(qp, settings);
    updated->updateLinearCost(shifted.q);
    const OsqpResult via_update = updated->solve();

    std::unique_ptr<QpBackend> fresh = makeBackend(shifted, settings);
    const OsqpResult via_rebuild = fresh->solve();

    ASSERT_EQ(via_update.info.status, SolveStatus::Solved);
    ASSERT_EQ(via_rebuild.info.status, SolveStatus::Solved);
    const Real scale = 1.0 + std::abs(via_rebuild.info.objective);
    EXPECT_LT(std::abs(via_update.info.objective -
                       via_rebuild.info.objective) /
                  scale,
              1e-5);
}

// --- PDHG recovery under injected operator faults ------------------

OsqpResult
injectedPdhgSolve(bool watchdog)
{
    const QpProblem qp = generateProblem(Domain::Eqqp, 30, 3);
    OsqpSettings settings = baseSettings();
    settings.firstOrder.method = BackendKind::Pdhg;
    settings.faultInjection.enabled = true;
    settings.faultInjection.seed = 7;
    settings.faultInjection.ratePerWord = 1e-3;
    settings.faultTolerance.watchdog = watchdog;
    return makeBackend(qp, settings)->solve();
}

TEST(PdhgRecovery, WatchdogRestoresOnceThenFailsTyped)
{
    const OsqpResult result = injectedPdhgSolve(true);
    EXPECT_EQ(result.info.status, SolveStatus::NumericalError);
    EXPECT_EQ(result.info.iterations, 150);
    EXPECT_GT(result.info.telemetry.faultsInjected, 0);
    const RecoveryReport& recovery = result.info.recovery;
    ASSERT_EQ(recovery.events.size(), 2u);
    EXPECT_EQ(recovery.events[0].action,
              RecoveryAction::CheckpointRestore);
    EXPECT_EQ(recovery.events[1].action, RecoveryAction::SigmaBoost);
    EXPECT_EQ(recovery.events[1].detail.rfind("step backoff: tau = ", 0),
              0u);
    EXPECT_EQ(recovery.checkpointRestores, 1);
    EXPECT_EQ(recovery.sigmaBoosts, 1);
    EXPECT_EQ(result.info.telemetry.recoveryEvents, 2);
    EXPECT_FALSE(hasNonFinite(result.x));
    EXPECT_FALSE(hasNonFinite(result.y));
    EXPECT_FALSE(hasNonFinite(result.z));
}

TEST(PdhgRecovery, InjectedRunsAreBitwiseReproducible)
{
    const OsqpResult first = injectedPdhgSolve(true);
    const OsqpResult second = injectedPdhgSolve(true);
    EXPECT_EQ(second.info.status, first.info.status);
    EXPECT_EQ(second.info.iterations, first.info.iterations);
    EXPECT_EQ(second.info.telemetry.faultsInjected,
              first.info.telemetry.faultsInjected);
    ASSERT_EQ(second.info.recovery.events.size(),
              first.info.recovery.events.size());
    for (std::size_t i = 0; i < first.info.recovery.events.size(); ++i) {
        EXPECT_EQ(second.info.recovery.events[i].iteration,
                  first.info.recovery.events[i].iteration);
        EXPECT_EQ(second.info.recovery.events[i].detail,
                  first.info.recovery.events[i].detail);
    }
    EXPECT_EQ(second.x, first.x);
    EXPECT_EQ(second.y, first.y);
}

TEST(PdhgRecovery, WatchdogOffFailsAtFirstPoisonedCheck)
{
    const OsqpResult result = injectedPdhgSolve(false);
    EXPECT_EQ(result.info.status, SolveStatus::NumericalError);
    EXPECT_EQ(result.info.iterations, 25);
    EXPECT_TRUE(result.info.recovery.empty());
    EXPECT_FALSE(hasNonFinite(result.x));
    EXPECT_FALSE(hasNonFinite(result.y));
}

TEST(TimeLimit, PdhgEarlyExitReportsResidualsOfReturnedPoint)
{
    // A solve that stops before its first check must report the
    // residuals of the point it returns, not the previous solve's.
    const QpProblem qp = generateProblem(Domain::Lasso, 40, 1);
    OsqpSettings settings;
    settings.firstOrder.method = BackendKind::Pdhg;
    std::unique_ptr<QpBackend> backend = makeBackend(qp, settings);
    (void)backend->solve();

    QpProblem shifted = qp;
    for (Real& v : shifted.q)
        v *= 3.0;
    backend->updateLinearCost(shifted.q);
    backend->setTimeLimit(1e-12);
    const OsqpResult result = backend->solve();
    ASSERT_EQ(result.info.status, SolveStatus::TimeLimitReached);
    EXPECT_EQ(result.info.iterations, 0);
    const ResidualInfo returned =
        computeResiduals(shifted, result.x, result.y, result.z,
                         settings.epsAbs, settings.epsRel);
    EXPECT_DOUBLE_EQ(result.info.primRes, returned.primRes);
    EXPECT_DOUBLE_EQ(result.info.dualRes, returned.dualRes);
}

TEST(BackendValidation, AdaptiveRhoToleranceMustExceedOne)
{
    OsqpSettings settings;
    settings.adaptiveRhoTolerance = 1.0;
    const ValidationReport report = validateSettings(settings);
    EXPECT_FALSE(report.ok());
    EXPECT_TRUE(report.has(ValidationCode::InvalidSetting));

    settings.adaptiveRhoTolerance = 5.0;
    EXPECT_TRUE(validateSettings(settings).ok());
}

TEST(BackendValidation, InvalidSolverSettingsStayNonThrowing)
{
    const QpProblem qp = generateProblem(Domain::Control, 8, 3);
    OsqpSettings settings = baseSettings();
    settings.adaptiveRhoTolerance = 0.5;

    OsqpSolver solver(qp, settings);
    EXPECT_FALSE(solver.validation().ok());
    const OsqpResult result = solver.solve();
    EXPECT_EQ(result.info.status, SolveStatus::InvalidProblem);
}

} // namespace
} // namespace rsqp
