/**
 * @file
 * Infeasibility-certificate tests: OSQP must detect primal infeasible
 * (contradictory constraints) and dual infeasible (unbounded below)
 * problems instead of iterating forever. Each problem also feeds the
 * free certificate functions every engine calls, with a hand-made ray
 * that must certify and one that must not.
 */

#include <gtest/gtest.h>

#include "linalg/vector_ops.hpp"
#include "osqp/residuals.hpp"
#include "osqp/solver.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

OsqpSettings
settingsFor()
{
    OsqpSettings settings;
    settings.maxIter = 4000;
    return settings;
}

TEST(Infeasibility, PrimalInfeasibleContradiction)
{
    // x0 >= 1 and x0 <= -1 simultaneously.
    QpProblem problem;
    TripletList p_triplets(1, 1);
    p_triplets.add(0, 0, 1.0);
    problem.pUpper = CscMatrix::fromTriplets(p_triplets);
    problem.q = {0.0};
    TripletList a_triplets(2, 1);
    a_triplets.add(0, 0, 1.0);
    a_triplets.add(1, 0, 1.0);
    problem.a = CscMatrix::fromTriplets(a_triplets);
    problem.l = {1.0, -kInf};
    problem.u = {kInf, -1.0};

    OsqpSolver solver(problem, settingsFor());
    const OsqpResult result = solver.solve();
    EXPECT_EQ(result.info.status, SolveStatus::PrimalInfeasible);

    const Real eps = settingsFor().epsPrimInf;
    EXPECT_TRUE(certifiesPrimalInfeasibility(problem, {-1.0, 1.0}, eps));
    EXPECT_FALSE(certifiesPrimalInfeasibility(problem, {1.0, 1.0}, eps));
    // A ray that leans on an infinite bound certifies nothing.
    EXPECT_FALSE(certifiesPrimalInfeasibility(problem, {1.0, -1.0}, eps));
}

TEST(Infeasibility, PrimalInfeasibleEqualitySystem)
{
    // x0 + x1 = 0 and x0 + x1 = 1.
    QpProblem problem;
    TripletList p_triplets(2, 2);
    p_triplets.add(0, 0, 1.0);
    p_triplets.add(1, 1, 1.0);
    problem.pUpper = CscMatrix::fromTriplets(p_triplets);
    problem.q = {0.0, 0.0};
    TripletList a_triplets(2, 2);
    a_triplets.add(0, 0, 1.0);
    a_triplets.add(0, 1, 1.0);
    a_triplets.add(1, 0, 1.0);
    a_triplets.add(1, 1, 1.0);
    problem.a = CscMatrix::fromTriplets(a_triplets);
    problem.l = {0.0, 1.0};
    problem.u = {0.0, 1.0};

    OsqpSolver solver(problem, settingsFor());
    const OsqpResult result = solver.solve();
    EXPECT_EQ(result.info.status, SolveStatus::PrimalInfeasible);

    const Real eps = settingsFor().epsPrimInf;
    EXPECT_TRUE(certifiesPrimalInfeasibility(problem, {1.0, -1.0}, eps));
    EXPECT_FALSE(certifiesPrimalInfeasibility(problem, {-1.0, 1.0}, eps));
}

TEST(Infeasibility, DualInfeasibleUnboundedLinear)
{
    // min -x0 with x0 >= 0 only: unbounded below.
    QpProblem problem;
    problem.pUpper = CscMatrix(1, 1);  // zero quadratic
    problem.q = {-1.0};
    TripletList a_triplets(1, 1);
    a_triplets.add(0, 0, 1.0);
    problem.a = CscMatrix::fromTriplets(a_triplets);
    problem.l = {0.0};
    problem.u = {kInf};

    OsqpSolver solver(problem, settingsFor());
    const OsqpResult result = solver.solve();
    EXPECT_EQ(result.info.status, SolveStatus::DualInfeasible);

    const Real eps = settingsFor().epsDualInf;
    EXPECT_TRUE(certifiesDualInfeasibility(problem, {1.0}, eps));
    EXPECT_FALSE(certifiesDualInfeasibility(problem, {-1.0}, eps));
}

TEST(Infeasibility, DualInfeasibleFreeDirection)
{
    // Quadratic only in x0; x1 unbounded with negative cost.
    QpProblem problem;
    TripletList p_triplets(2, 2);
    p_triplets.add(0, 0, 1.0);
    problem.pUpper = CscMatrix::fromTriplets(p_triplets);
    problem.q = {0.0, -1.0};
    TripletList a_triplets(1, 2);
    a_triplets.add(0, 0, 1.0);  // constraint only on x0
    problem.a = CscMatrix::fromTriplets(a_triplets);
    problem.l = {-1.0};
    problem.u = {1.0};

    OsqpSolver solver(problem, settingsFor());
    const OsqpResult result = solver.solve();
    EXPECT_EQ(result.info.status, SolveStatus::DualInfeasible);

    const Real eps = settingsFor().epsDualInf;
    EXPECT_TRUE(certifiesDualInfeasibility(problem, {0.0, 1.0}, eps));
    // x0 leaves the box and curves the objective: not a ray.
    EXPECT_FALSE(certifiesDualInfeasibility(problem, {1.0, 1.0}, eps));
}

TEST(Infeasibility, FeasibleProblemNotFlagged)
{
    // A perfectly solvable problem must never trip the certificates.
    Rng rng(1);
    QpProblem problem;
    problem.pUpper = test::randomSpdUpper(6, 0.4, rng);
    problem.q = test::randomVector(6, rng);
    TripletList a_triplets(6, 6);
    for (Index i = 0; i < 6; ++i)
        a_triplets.add(i, i, 1.0);
    problem.a = CscMatrix::fromTriplets(a_triplets);
    problem.l = constantVector(6, -10.0);
    problem.u = constantVector(6, 10.0);

    OsqpSolver solver(problem, settingsFor());
    const OsqpResult result = solver.solve();
    EXPECT_EQ(result.info.status, SolveStatus::Solved);

    const Vector ray = constantVector(6, 1.0);
    EXPECT_FALSE(certifiesPrimalInfeasibility(problem, ray,
                                              settingsFor().epsPrimInf));
    EXPECT_FALSE(certifiesDualInfeasibility(problem, ray,
                                            settingsFor().epsDualInf));
}

} // namespace
} // namespace rsqp
