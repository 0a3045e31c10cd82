/**
 * @file
 * Parametric-update tests: updating q, bounds or matrix values reuses
 * the setup (the structure-reuse model that amortizes RSQP's hardware
 * generation) and produces the same solutions as fresh solvers.
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "osqp/solver.hpp"
#include "problems/generators.hpp"
#include "problems/suite.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

OsqpSettings
tightSettings()
{
    OsqpSettings settings;
    settings.epsAbs = 1e-6;
    settings.epsRel = 1e-6;
    return settings;
}

TEST(Parametric, UpdateLinearCostMatchesFreshSolve)
{
    Rng rng(1);
    QpProblem problem = generatePortfolio(30, rng);
    OsqpSolver solver(problem, tightSettings());
    solver.solve();

    Vector q2 = problem.q;
    for (Real& v : q2)
        v *= 0.5;
    solver.updateLinearCost(q2);
    const OsqpResult updated = solver.solve();

    QpProblem fresh_problem = problem;
    fresh_problem.q = q2;
    OsqpSolver fresh(fresh_problem, tightSettings());
    const OsqpResult reference = fresh.solve();

    ASSERT_EQ(updated.info.status, SolveStatus::Solved);
    ASSERT_EQ(reference.info.status, SolveStatus::Solved);
    EXPECT_NEAR(updated.info.objective, reference.info.objective,
                1e-3 * (1.0 + std::abs(reference.info.objective)));
}

TEST(Parametric, UpdateBoundsMatchesFreshSolve)
{
    Rng rng(2);
    QpProblem problem = generateSvm(20, rng);
    OsqpSolver solver(problem, tightSettings());
    solver.solve();

    Vector l2 = problem.l;
    Vector u2 = problem.u;
    for (std::size_t i = 0; i < l2.size(); ++i) {
        if (l2[i] > -kInf)
            l2[i] -= 0.25;
        if (u2[i] < kInf)
            u2[i] += 0.25;
    }
    solver.updateBounds(l2, u2);
    const OsqpResult updated = solver.solve();

    QpProblem fresh_problem = problem;
    fresh_problem.l = l2;
    fresh_problem.u = u2;
    OsqpSolver fresh(fresh_problem, tightSettings());
    const OsqpResult reference = fresh.solve();
    ASSERT_EQ(updated.info.status, SolveStatus::Solved);
    EXPECT_NEAR(updated.info.objective, reference.info.objective,
                1e-3 * (1.0 + std::abs(reference.info.objective)));
}

TEST(Parametric, UpdateBoundsRefreshesRhoClasses)
{
    // A bound update that turns rows into equalities (and one into a
    // loose row) must leave the rho vector a fresh setup would build,
    // as osqp_update_bounds does through update_rho_vec.
    const QpProblem problem = generateProblem(Domain::Svm, 20, 2);
    const OsqpSettings settings;
    OsqpSolver solver(problem, settings);

    // svm rows: the first half are hinge rows a'x + t_i >= 1, the
    // second half t_i >= 0. Pin every third hinge row to equality (t_i
    // keeps it feasible) and free one t_i row.
    Vector l2 = problem.l;
    Vector u2 = problem.u;
    const std::size_t hinge_rows = l2.size() / 2;
    for (std::size_t i = 0; i < hinge_rows; i += 3)
        u2[i] = l2[i];
    l2[hinge_rows + 1] = -kInf;
    u2[hinge_rows + 1] = kInf;
    solver.updateBounds(l2, u2);

    QpProblem moved = problem;
    moved.l = l2;
    moved.u = u2;
    OsqpSolver fresh(moved, settings);
    EXPECT_EQ(solver.rhoVec(), fresh.rhoVec());

    const OsqpResult updated = solver.solve();
    const OsqpResult reference = fresh.solve();
    ASSERT_EQ(updated.info.status, SolveStatus::Solved);
    ASSERT_EQ(reference.info.status, SolveStatus::Solved);
    EXPECT_NEAR(updated.info.objective, reference.info.objective,
                1e-3 * (1.0 + std::abs(reference.info.objective)));
}

TEST(Parametric, UpdateBoundsRejectsCrossedBounds)
{
    Rng rng(3);
    QpProblem problem = generatePortfolio(20, rng);
    OsqpSolver solver(problem, tightSettings());
    Vector l2 = problem.l;
    Vector u2 = problem.u;
    l2[0] = 5.0;
    u2[0] = -5.0;
    EXPECT_THROW(solver.updateBounds(l2, u2), FatalError);
}

TEST(Parametric, UpdateMatrixValuesMatchesFreshSolve)
{
    Rng rng(4);
    QpProblem problem = generateEqqp(24, rng);
    OsqpSolver solver(problem, tightSettings());
    solver.solve();

    // Scale A values (same sparsity).
    std::vector<Real> a_values = problem.a.values();
    for (Real& v : a_values)
        v *= 1.5;
    solver.updateMatrixValues({}, a_values);
    const OsqpResult updated = solver.solve();

    QpProblem fresh_problem = problem;
    fresh_problem.a.values() = a_values;
    OsqpSolver fresh(fresh_problem, tightSettings());
    const OsqpResult reference = fresh.solve();
    ASSERT_EQ(updated.info.status, reference.info.status);
    EXPECT_NEAR(updated.info.objective, reference.info.objective,
                2e-3 * (1.0 + std::abs(reference.info.objective)));
}

TEST(Parametric, SequenceOfCostUpdatesStaysSolved)
{
    // Mini backtest: re-solve the same portfolio structure with a
    // sequence of expected-return vectors, warm starting each time.
    Rng rng(5);
    QpProblem problem = generatePortfolio(40, rng);
    OsqpSolver solver(problem, tightSettings());
    OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);
    Index total_iterations = result.info.iterations;

    for (int step = 0; step < 5; ++step) {
        Vector q = problem.q;
        for (Real& v : q)
            v += rng.normal(0.0, 0.05);
        solver.updateLinearCost(q);
        solver.warmStart(result.x, result.y);
        result = solver.solve();
        ASSERT_EQ(result.info.status, SolveStatus::Solved);
        EXPECT_LE(result.info.iterations, total_iterations + 50);
    }
}


TEST(Parametric, ManualRhoUpdate)
{
    Rng rng(6);
    QpProblem problem = generatePortfolio(25, rng);
    OsqpSettings settings = tightSettings();
    settings.adaptiveRho = false;
    OsqpSolver solver(problem, settings);
    const OsqpResult before = solver.solve();
    ASSERT_EQ(before.info.status, SolveStatus::Solved);
    EXPECT_DOUBLE_EQ(solver.currentRho(), settings.rho);

    solver.updateRho(5.0);
    EXPECT_DOUBLE_EQ(solver.currentRho(), 5.0);
    const OsqpResult after = solver.solve();
    ASSERT_EQ(after.info.status, SolveStatus::Solved);
    // Same optimum from a different rho.
    EXPECT_NEAR(before.info.objective, after.info.objective,
                1e-3 * (1.0 + std::abs(before.info.objective)));
    EXPECT_THROW(solver.updateRho(-1.0), FatalError);
}

} // namespace
} // namespace rsqp
