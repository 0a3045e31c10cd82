/**
 * @file
 * End-to-end RsqpSolver tests: solution quality, customization
 * speedup in cycles (the Fig. 10 effect), parametric reuse and warm
 * starting on the generated architecture.
 */

#include <gtest/gtest.h>

#include "core/rsqp_solver.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/solver.hpp"
#include "problems/suite.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

OsqpSettings
settingsFor()
{
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    return settings;
}

TEST(RsqpSolver, SolvesAndReportsMetadata)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 50, 21);
    CustomizeSettings custom;
    custom.c = 32;
    RsqpSolver solver(qp, settingsFor(), custom);
    const RsqpResult result = solver.solve();
    ASSERT_EQ(result.status, SolveStatus::Solved);
    EXPECT_GT(result.iterations, 0);
    EXPECT_GT(result.machineStats.totalCycles, 0);
    EXPECT_GT(result.fmaxMhz, 50.0);
    EXPECT_GT(result.deviceSeconds, 0.0);
    EXPECT_GT(result.eta, 0.0);
    EXPECT_LE(result.eta, 1.0);
    EXPECT_NE(result.archName.find("32{"), std::string::npos);
}

TEST(RsqpSolver, SolutionIsKktOptimal)
{
    const QpProblem qp = generateProblem(Domain::Svm, 25, 23);
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver solver(qp, settingsFor(), custom);
    const RsqpResult result = solver.solve();
    ASSERT_EQ(result.status, SolveStatus::Solved);

    // Unscaled residuals must satisfy the default tolerances.
    Vector ax;
    qp.a.spmv(result.x, ax);
    EXPECT_LT(normInfDiff(ax, result.z), 1e-2);
    Vector px;
    qp.pUpper.spmvSymUpper(result.x, px);
    Vector aty;
    qp.a.spmvTranspose(result.y, aty);
    Real dual = 0.0;
    for (std::size_t j = 0; j < px.size(); ++j)
        dual = std::max(dual,
                        std::abs(px[j] + qp.q[j] + aty[j]));
    EXPECT_LT(dual, 1e-2);
}

TEST(RsqpSolver, CustomizationSpeedsUpCycles)
{
    // The Fig. 10 effect on one problem: same solve, fewer cycles.
    const QpProblem qp = generateProblem(Domain::Lasso, 40, 25);
    const OsqpSettings settings = settingsFor();

    CustomizeSettings base_settings;
    base_settings.c = 64;
    base_settings.customizeStructures = false;
    base_settings.compressCvb = false;
    RsqpSolver baseline(qp, settings, base_settings);
    const RsqpResult rb = baseline.solve();

    CustomizeSettings custom_settings;
    custom_settings.c = 64;
    RsqpSolver customized(qp, settings, custom_settings);
    const RsqpResult rc = customized.solve();

    ASSERT_EQ(rb.status, SolveStatus::Solved);
    ASSERT_EQ(rc.status, SolveStatus::Solved);
    EXPECT_GT(rc.eta, rb.eta);
    // Customized architecture takes measurably fewer cycles.
    EXPECT_LT(static_cast<Real>(rc.machineStats.totalCycles),
              0.9 * static_cast<Real>(rb.machineStats.totalCycles));
}

TEST(RsqpSolver, ParametricCostUpdateReusesArchitecture)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 40, 27);
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver solver(qp, settingsFor(), custom);
    const RsqpResult first = solver.solve();
    ASSERT_EQ(first.status, SolveStatus::Solved);

    Vector q2 = qp.q;
    for (Real& v : q2)
        v *= 0.8;
    solver.updateLinearCost(q2);
    solver.warmStart(first.x, first.y);
    const RsqpResult second = solver.solve();
    ASSERT_EQ(second.status, SolveStatus::Solved);

    // Reference solution for the updated problem.
    QpProblem qp2 = qp;
    qp2.q = q2;
    OsqpSolver reference(qp2, settingsFor());
    const OsqpResult ref = reference.solve();
    EXPECT_NEAR(second.objective, ref.info.objective,
                1e-2 * (1.0 + std::abs(ref.info.objective)));
    // Warm start converges in fewer iterations than cold start.
    EXPECT_LE(second.iterations, first.iterations);
}

TEST(RsqpSolver, BoundsUpdateMatchesReference)
{
    const QpProblem qp = generateProblem(Domain::Svm, 15, 29);
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver solver(qp, settingsFor(), custom);
    solver.solve();

    Vector l2 = qp.l;
    Vector u2 = qp.u;
    for (std::size_t i = 0; i < l2.size(); ++i)
        if (u2[i] < kInf)
            u2[i] += 0.5;
    solver.updateBounds(l2, u2);
    const RsqpResult updated = solver.solve();
    ASSERT_EQ(updated.status, SolveStatus::Solved);

    QpProblem qp2 = qp;
    qp2.l = l2;
    qp2.u = u2;
    OsqpSolver reference(qp2, settingsFor());
    const OsqpResult ref = reference.solve();
    EXPECT_NEAR(updated.objective, ref.info.objective,
                1e-2 * (1.0 + std::abs(ref.info.objective)));
}

TEST(RsqpSolver, WiderDatapathFewerCycles)
{
    const QpProblem qp = generateProblem(Domain::Huber, 30, 31);
    const OsqpSettings settings = settingsFor();
    Count cycles_16 = 0, cycles_64 = 0;
    {
        CustomizeSettings custom;
        custom.c = 16;
        RsqpSolver solver(qp, settings, custom);
        cycles_16 = solver.solve().machineStats.totalCycles;
    }
    {
        CustomizeSettings custom;
        custom.c = 64;
        RsqpSolver solver(qp, settings, custom);
        cycles_64 = solver.solve().machineStats.totalCycles;
    }
    EXPECT_LT(cycles_64, cycles_16);
}


TEST(RsqpSolver, Fp32DatapathSolvesAtDefaultTolerance)
{
    // The physical MAC trees compute in FP32; with the default 1e-3
    // tolerances (and a PCG floor above single-precision noise) the
    // accelerator still converges and agrees with FP64 to ~1e-3.
    const QpProblem qp = generateProblem(Domain::Portfolio, 40, 33);
    OsqpSettings settings = settingsFor();
    settings.pcg.epsRel = 1e-6;

    CustomizeSettings cfg64;
    cfg64.c = 32;
    RsqpSolver fp64(qp, settings, cfg64);
    const RsqpResult r64 = fp64.solve();

    CustomizeSettings cfg32;
    cfg32.c = 32;
    cfg32.fp32Datapath = true;
    RsqpSolver fp32(qp, settings, cfg32);
    const RsqpResult r32 = fp32.solve();

    ASSERT_EQ(r64.status, SolveStatus::Solved);
    ASSERT_EQ(r32.status, SolveStatus::Solved);
    EXPECT_NEAR(r32.objective, r64.objective,
                1e-2 * (1.0 + std::abs(r64.objective)));
    EXPECT_LT(test::maxAbsDiff(r32.x, r64.x), 1e-2);
}

// --- Soft-error fault injection into the simulated accelerator ------

CustomizeSettings
injectionCustom(std::uint64_t seed, Real rate)
{
    CustomizeSettings custom;
    custom.c = 16;
    custom.faultInjection.enabled = true;
    custom.faultInjection.seed = seed;
    custom.faultInjection.ratePerWord = rate;
    return custom;
}

/**
 * The headline fault-tolerance guarantee: with soft errors injected
 * into the HBM streams and MAC outputs at 1e-4 per word (at least one
 * flip per 10k words), every solve must terminate with a typed status
 * and finite iterates — Solved results must additionally pass host-
 * side residual re-verification (done inside RsqpSolver::solve).
 */
TEST(RsqpSolverFaults, InjectedRunsTerminateTypedAndFinite)
{
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        const QpProblem qp = generateProblem(
            Domain::Portfolio, 40, 100 + static_cast<Index>(seed));
        RsqpSolver solver(qp, settingsFor(),
                          injectionCustom(seed, 1e-4));
        const RsqpResult result = solver.solve();
        EXPECT_NE(result.status, SolveStatus::Unsolved) << seed;
        EXPECT_FALSE(hasNonFinite(result.x)) << seed;
        EXPECT_FALSE(hasNonFinite(result.y)) << seed;
        EXPECT_FALSE(hasNonFinite(result.z)) << seed;
        EXPECT_GT(result.faultsInjected, 0) << seed;
    }
}

TEST(RsqpSolverFaults, InjectionIsDeterministic)
{
    // Two same-seed runs through the retry path must agree bitwise.
    const QpProblem qp = generateProblem(Domain::Portfolio, 20, 55);
    auto run = [&]() {
        RsqpSolver solver(qp, settingsFor(), injectionCustom(11, 5e-4));
        return solver.solve();
    };
    const RsqpResult first = run();
    const RsqpResult second = run();
    EXPECT_GT(first.faultsInjected, 0);
    EXPECT_EQ(first.recovery.faultRetries, 1);
    EXPECT_EQ(second.status, first.status);
    EXPECT_EQ(second.iterations, first.iterations);
    EXPECT_EQ(second.faultsInjected, first.faultsInjected);
    ASSERT_EQ(second.recovery.events.size(), first.recovery.events.size());
    for (std::size_t i = 0; i < first.recovery.events.size(); ++i) {
        EXPECT_EQ(second.recovery.events[i].action,
                  first.recovery.events[i].action);
        EXPECT_EQ(second.recovery.events[i].iteration,
                  first.recovery.events[i].iteration);
    }
    ASSERT_EQ(second.x, first.x);
    ASSERT_EQ(second.y, first.y);
}

TEST(RsqpSolverFaults, RepeatedSolvesReportTheirOwnFaults)
{
    // The injector outlives each solve; a solve must report only the
    // faults delivered during it, so the per-solve counts add up to
    // the injector's running total.
    const QpProblem qp = generateProblem(Domain::Portfolio, 20, 55);
    RsqpSolver solver(qp, settingsFor(), injectionCustom(3, 2e-5));
    Count sum = 0;
    for (int solve = 0; solve < 3; ++solve) {
        const RsqpResult result = solver.solve();
        EXPECT_GT(result.faultsInjected, 0) << "solve " << solve;
        EXPECT_EQ(result.telemetry.faultsInjected, result.faultsInjected)
            << "solve " << solve;
        sum += result.faultsInjected;
    }
    ASSERT_NE(solver.machine().faultInjector(), nullptr);
    EXPECT_EQ(sum, solver.machine().faultInjector()->faultsInjected());
}

TEST(RsqpSolver, WarmStartSizeMismatchIsNonFatal)
{
    const QpProblem qp = generateProblem(Domain::Control, 25, 31);
    CustomizeSettings custom;
    custom.c = 16;
    RsqpSolver solver(qp, settingsFor(), custom);

    Vector wrongX(static_cast<std::size_t>(qp.numVariables() + 1), 0.0);
    Vector y(static_cast<std::size_t>(qp.numConstraints()), 0.0);
    EXPECT_FALSE(solver.warmStart(wrongX, y));
    Vector x(static_cast<std::size_t>(qp.numVariables()), 0.0);
    EXPECT_TRUE(solver.warmStart(x, y));

    const RsqpResult result = solver.solve();
    EXPECT_EQ(result.status, SolveStatus::Solved);
}

TEST(RsqpSolver, InvalidSettingsLeaveSolverInert)
{
    // The device validates settings like the host engines: a zero
    // checkInterval must not reach the maxIter alignment (division by
    // zero) and alpha outside (0, 2) must not start a run.
    const QpProblem qp = generateProblem(Domain::Control, 4, 1);
    CustomizeSettings custom;
    custom.c = 16;
    OsqpSettings zero_interval = settingsFor();
    zero_interval.checkInterval = 0;
    OsqpSettings wide_alpha = settingsFor();
    wide_alpha.alpha = 2.5;
    for (const OsqpSettings& settings : {zero_interval, wide_alpha}) {
        RsqpSolver solver(qp, settings, custom);
        EXPECT_TRUE(
            solver.validation().has(ValidationCode::InvalidSetting));
        solver.updateLinearCost(qp.q);  // no-op on an inert solver
        EXPECT_FALSE(solver.warmStart(
            Vector(static_cast<std::size_t>(qp.numVariables()), 0.0),
            Vector(static_cast<std::size_t>(qp.numConstraints()), 0.0)));
        const RsqpResult result = solver.solve();
        EXPECT_EQ(result.status, SolveStatus::InvalidProblem);
        EXPECT_TRUE(result.validation.has(ValidationCode::InvalidSetting));
        EXPECT_EQ(result.iterations, 0);
    }
}

TEST(RsqpSolverFaults, DisabledInjectionMatchesBaselineBitwise)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 35, 61);
    CustomizeSettings plain;
    plain.c = 16;
    RsqpSolver base(qp, settingsFor(), plain);
    const RsqpResult a = base.solve();

    CustomizeSettings off;
    off.c = 16;
    off.faultInjection.enabled = false;
    off.faultInjection.seed = 99;  // ignored while disabled
    RsqpSolver guarded(qp, settingsFor(), off);
    const RsqpResult b = guarded.solve();

    EXPECT_EQ(a.status, b.status);
    EXPECT_EQ(a.iterations, b.iterations);
    EXPECT_EQ(b.faultsInjected, 0);
    ASSERT_EQ(a.x, b.x);
    ASSERT_EQ(a.y, b.y);
}

} // namespace
} // namespace rsqp
