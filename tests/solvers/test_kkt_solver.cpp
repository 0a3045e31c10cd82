/**
 * @file
 * KKT backend tests: the direct LDL' and indirect PCG backends must
 * agree on the ADMM step solution, honor rho updates, and report
 * sensible statistics.
 */

#include <gtest/gtest.h>

#include "linalg/vector_ops.hpp"
#include "solvers/kkt_solver.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

using test::randomSparse;
using test::randomSpdUpper;
using test::randomVector;

struct KktSolverFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        Rng rng(8);
        p = randomSpdUpper(10, 0.3, rng);
        a = randomSparse(6, 10, 0.35, rng);
        rho = constantVector(6, 0.7);
        rhs_x = randomVector(10, rng);
        rhs_z = randomVector(6, rng);
    }

    PcgSettings
    tightPcg() const
    {
        PcgSettings settings;
        settings.epsRel = 1e-12;
        settings.adaptiveTolerance = false;
        return settings;
    }

    CscMatrix p, a;
    Vector rho, rhs_x, rhs_z;
    Real sigma = 1e-6;
};

TEST_F(KktSolverFixture, DirectAndIndirectAgree)
{
    DirectKktSolver direct(p, a, sigma, rho);
    IndirectKktSolver indirect(p, a, sigma, rho, tightPcg());

    Vector xd, zd, xi, zi;
    direct.solve(rhs_x, rhs_z, xd, zd);
    indirect.solve(rhs_x, rhs_z, xi, zi);

    EXPECT_LT(test::maxAbsDiff(xd, xi), 1e-7);
    EXPECT_LT(test::maxAbsDiff(zd, zi), 1e-7);
}

TEST_F(KktSolverFixture, DirectSatisfiesKktEquations)
{
    DirectKktSolver direct(p, a, sigma, rho);
    Vector x, z;
    direct.solve(rhs_x, rhs_z, x, z);

    // (P + sigma I) x + A' nu = rhs_x with nu = rho (A x - z_rhs...):
    // verify via the reduced equation K x = rhs_x + A' diag(rho) rhs_z.
    ReducedKktOperator op(p, a, sigma, rho);
    Vector kx;
    op.apply(x, kx);
    Vector b = rhs_x;
    Vector scaled = rhs_z;
    for (std::size_t i = 0; i < scaled.size(); ++i)
        scaled[i] *= rho[i];
    a.spmvTransposeAccumulate(scaled, b, 1.0);
    EXPECT_LT(test::maxAbsDiff(kx, b), 1e-8);

    // z output must be A x.
    Vector ax;
    a.spmv(x, ax);
    EXPECT_LT(test::maxAbsDiff(z, ax), 1e-8);
}

TEST_F(KktSolverFixture, RhoUpdateChangesSolution)
{
    DirectKktSolver direct(p, a, sigma, rho);
    Vector x1, z1;
    direct.solve(rhs_x, rhs_z, x1, z1);

    direct.updateRho(constantVector(6, 50.0));
    Vector x2, z2;
    const KktSolveStats stats = direct.solve(rhs_x, rhs_z, x2, z2);
    EXPECT_TRUE(stats.refactorized);
    EXPECT_GT(test::maxAbsDiff(x1, x2), 1e-8);

    // Fresh solver with the new rho agrees.
    DirectKktSolver fresh(p, a, sigma, constantVector(6, 50.0));
    Vector x3, z3;
    fresh.solve(rhs_x, rhs_z, x3, z3);
    EXPECT_LT(test::maxAbsDiff(x2, x3), 1e-9);
}

TEST_F(KktSolverFixture, IndirectRhoUpdateMatchesFreshSolver)
{
    IndirectKktSolver indirect(p, a, sigma, rho, tightPcg());
    Vector x1, z1;
    indirect.solve(rhs_x, rhs_z, x1, z1);
    indirect.updateRho(constantVector(6, 9.0));
    Vector x2, z2;
    indirect.solve(rhs_x, rhs_z, x2, z2);

    IndirectKktSolver fresh(p, a, sigma, constantVector(6, 9.0),
                            tightPcg());
    Vector x3, z3;
    fresh.solve(rhs_x, rhs_z, x3, z3);
    EXPECT_LT(test::maxAbsDiff(x2, x3), 1e-7);
}

TEST_F(KktSolverFixture, IndirectReportsPcgIterations)
{
    IndirectKktSolver indirect(p, a, sigma, rho, tightPcg());
    Vector x, z;
    const KktSolveStats stats = indirect.solve(rhs_x, rhs_z, x, z);
    EXPECT_GT(stats.pcgIterations, 0);
    EXPECT_EQ(indirect.totalPcgIterations(), stats.pcgIterations);
    EXPECT_EQ(indirect.lastPcgIterations(), stats.pcgIterations);

    // Warm start: repeating the same solve is much cheaper.
    Vector x2, z2;
    const KktSolveStats stats2 = indirect.solve(rhs_x, rhs_z, x2, z2);
    EXPECT_LE(stats2.pcgIterations, 1);
}

TEST_F(KktSolverFixture, OrderingChoiceDoesNotChangeSolution)
{
    // Reference: the same KKT system factored in its natural order.
    const KktAssembler assembler(p, a, sigma, rho);
    LdlFactorization natural(assembler.kkt());
    ASSERT_TRUE(natural.factor(assembler.kkt()));
    Vector t = rhs_x;
    t.insert(t.end(), rhs_z.begin(), rhs_z.end());
    natural.solve(t);
    const Vector x1(t.begin(), t.begin() + static_cast<long>(p.cols()));

    DirectKktSolver rcm(p, a, sigma, rho);
    Vector x2, z2;
    rcm.solve(rhs_x, rhs_z, x2, z2);
    EXPECT_LT(test::maxAbsDiff(x1, x2), 1e-9);
}

TEST_F(KktSolverFixture, BackendNamesStable)
{
    DirectKktSolver direct(p, a, sigma, rho);
    IndirectKktSolver indirect(p, a, sigma, rho);
    EXPECT_STREQ(direct.name(), "direct-ldl");
    EXPECT_STREQ(indirect.name(), "indirect-pcg");
}

TEST_F(KktSolverFixture, DirectUpdateMatrixValuesMatchesFreshSolver)
{
    DirectKktSolver solver(p, a, sigma, rho);
    Vector x0, z0;
    solver.solve(rhs_x, rhs_z, x0, z0);

    std::vector<Real> p_values = p.values();
    for (Real& v : p_values)
        v *= 2.0;
    std::vector<Real> a_values = a.values();
    for (Real& v : a_values)
        v *= 0.5;
    EXPECT_TRUE(solver.updateMatrixValues(p_values, a_values));
    Vector x1, z1;
    const KktSolveStats stats = solver.solve(rhs_x, rhs_z, x1, z1);
    EXPECT_TRUE(stats.refactorized);

    CscMatrix p2 = p;
    p2.values() = p_values;
    CscMatrix a2 = a;
    a2.values() = a_values;
    DirectKktSolver fresh(p2, a2, sigma, rho);
    Vector x2, z2;
    fresh.solve(rhs_x, rhs_z, x2, z2);
    EXPECT_LT(test::maxAbsDiff(x1, x2), 1e-9);
    EXPECT_LT(test::maxAbsDiff(z1, z2), 1e-9);
    EXPECT_GT(test::maxAbsDiff(x0, x1), 1e-9);  // values really changed
}

TEST_F(KktSolverFixture, IndirectUpdateMatrixValuesMatchesFreshSolver)
{
    // The indirect backend reads P/A through pointers: the caller
    // rewrites those matrices in place, then updateMatrixValues
    // re-reads them through the construction-time slot maps.
    CscMatrix p2 = p;
    CscMatrix a2 = a;
    IndirectKktSolver solver(p2, a2, sigma, rho, tightPcg());
    Vector x0, z0;
    solver.solve(rhs_x, rhs_z, x0, z0);

    for (Real& v : p2.values())
        v *= 2.0;
    for (Real& v : a2.values())
        v *= 0.5;
    EXPECT_TRUE(solver.updateMatrixValues(p2.values(), a2.values()));
    Vector x1, z1;
    solver.solve(rhs_x, rhs_z, x1, z1);

    IndirectKktSolver fresh(p2, a2, sigma, rho, tightPcg());
    Vector x2, z2;
    fresh.solve(rhs_x, rhs_z, x2, z2);
    EXPECT_LT(test::maxAbsDiff(x1, x2), 1e-7);
    EXPECT_LT(test::maxAbsDiff(z1, z2), 1e-7);
}

TEST_F(KktSolverFixture, IndirectReportsHotPathProfile)
{
    IndirectKktSolver indirect(p, a, sigma, rho, tightPcg());
    ASSERT_NE(indirect.hotPathProfiler(), nullptr);
    Vector x, z;
    const KktSolveStats stats = indirect.solve(rhs_x, rhs_z, x, z);
    // Every phase family runs at least once per solve: the three SpMV
    // passes per operator apply, the fused updates and preconditioner
    // applies in the CG loop, and the p'Kp reduction.
    EXPECT_GT(stats.hotPath[ProfilePhase::SpmvP].calls, 0u);
    EXPECT_GT(stats.hotPath[ProfilePhase::SpmvA].calls, 0u);
    EXPECT_GT(stats.hotPath[ProfilePhase::SpmvAt].calls, 0u);
    EXPECT_GT(stats.hotPath[ProfilePhase::FusedVectorOps].calls, 0u);
    EXPECT_GT(stats.hotPath[ProfilePhase::Precond].calls, 0u);
    EXPECT_GT(stats.hotPath[ProfilePhase::Reduction].calls, 0u);

    // Counters accumulate across solves and reset on demand.
    Vector x2, z2;
    const KktSolveStats stats2 = indirect.solve(rhs_x, rhs_z, x2, z2);
    EXPECT_GE(stats2.hotPath.totalCalls(), stats.hotPath.totalCalls());
    indirect.resetHotPathProfile();
    EXPECT_EQ(indirect.hotPathProfiler()->snapshot().totalCalls(), 0u);
}

TEST_F(KktSolverFixture, BaseClassDeclinesMatrixValueUpdates)
{
    // A backend that does not override updateMatrixValues reports
    // false so the caller knows to rebuild it.
    class MinimalSolver : public KktSolver
    {
      public:
        KktSolveStats
        solve(const Vector&, const Vector&, Vector&, Vector&) override
        {
            return {};
        }
        void updateRho(const Vector&) override {}
        const char* name() const override { return "minimal"; }
    };
    MinimalSolver minimal;
    EXPECT_FALSE(minimal.updateMatrixValues({}, {}));
}

} // namespace
} // namespace rsqp
