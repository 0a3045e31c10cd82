/**
 * @file
 * Solution-polishing tests: the polished point must satisfy the KKT
 * conditions to near machine precision when the active set is guessed
 * correctly, never be adopted when it would hurt, and report its
 * active-set bookkeeping.
 */

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "osqp/polish.hpp"
#include "osqp/residuals.hpp"
#include "osqp/solver.hpp"
#include "problems/generators.hpp"
#include "problems/suite.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

OsqpSettings
polishSettings()
{
    OsqpSettings settings;
    settings.polish = true;
    return settings;
}

TEST(Polish, DrivesResidualsToMachinePrecision)
{
    Rng rng(1);
    const QpProblem qp = generatePortfolio(40, rng);
    OsqpSolver solver(qp, polishSettings());
    const OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);
    ASSERT_TRUE(result.polish.attempted);
    if (result.polish.adopted) {
        EXPECT_LT(result.info.primRes, 1e-8);
        EXPECT_LT(result.info.dualRes, 1e-7);
    }
    // Either way the final residuals are no worse than unpolished.
    EXPECT_LE(result.info.primRes,
              result.polish.primResBefore + 1e-15);
}

TEST(Polish, ImprovesBoxQpExactly)
{
    // min (1/2)||x||^2 - 10 x0, 0 <= x <= 2: solution (2, 0, 0),
    // active set = {u_0, l_1, l_2}; polish solves it exactly.
    QpProblem qp;
    TripletList p_triplets(3, 3);
    for (Index i = 0; i < 3; ++i)
        p_triplets.add(i, i, 1.0);
    qp.pUpper = CscMatrix::fromTriplets(p_triplets);
    qp.q = {-10.0, 1.0, 0.0};
    TripletList a_triplets(3, 3);
    for (Index i = 0; i < 3; ++i)
        a_triplets.add(i, i, 1.0);
    qp.a = CscMatrix::fromTriplets(a_triplets);
    qp.l = {0.0, 0.0, 0.0};
    qp.u = {2.0, 2.0, 2.0};

    OsqpSolver solver(qp, polishSettings());
    const OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);
    ASSERT_TRUE(result.polish.adopted);
    EXPECT_NEAR(result.x[0], 2.0, 1e-9);
    EXPECT_NEAR(result.x[1], 0.0, 1e-9);
    EXPECT_GE(result.polish.activeUpper, 1);
    EXPECT_GE(result.polish.activeLower, 1);
    // Exact dual at the bound: y_0 = 10 - 2 = 8.
    EXPECT_NEAR(result.y[0], 8.0, 1e-8);
}

TEST(Polish, ReportConsistent)
{
    Rng rng(2);
    const QpProblem qp = generateSvm(20, rng);
    OsqpSolver solver(qp, polishSettings());
    const OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);
    const PolishReport& report = result.polish;
    ASSERT_TRUE(report.attempted);
    EXPECT_GE(report.primResBefore, 0.0);
    if (report.adopted) {
        EXPECT_LE(report.primResAfter, report.primResBefore);
        EXPECT_LE(report.dualResAfter, report.dualResBefore);
    }
}

TEST(Polish, OffByDefault)
{
    Rng rng(3);
    const QpProblem qp = generatePortfolio(30, rng);
    OsqpSettings settings;  // polish defaults to false
    OsqpSolver solver(qp, settings);
    const OsqpResult result = solver.solve();
    EXPECT_FALSE(result.polish.attempted);
}

TEST(Polish, StandaloneApiOnSolvedResult)
{
    Rng rng(4);
    const QpProblem qp = generateLasso(15, rng);
    OsqpSettings settings;
    OsqpSolver solver(qp, settings);
    OsqpResult result = solver.solve();
    ASSERT_EQ(result.info.status, SolveStatus::Solved);

    const ResidualInfo before = computeResiduals(
        qp, result.x, result.y, result.z, settings.epsAbs,
        settings.epsRel);
    const PolishReport report =
        polishSolution(qp, settings, result);
    EXPECT_TRUE(report.attempted);
    if (report.adopted) {
        const ResidualInfo after = computeResiduals(
            qp, result.x, result.y, result.z, settings.epsAbs,
            settings.epsRel);
        EXPECT_LE(after.primRes, before.primRes + 1e-15);
        EXPECT_LE(after.dualRes, before.dualRes + 1e-15);
    }
}

/** Polishing across domains never degrades the solution. */
class PolishSweep : public ::testing::TestWithParam<Domain>
{};

TEST_P(PolishSweep, NeverDegrades)
{
    const Domain domain = GetParam();
    const Index size = domain == Domain::Control ? 6 : 25;
    const QpProblem qp = generateProblem(domain, size, 17);
    OsqpSolver plain(qp, OsqpSettings{});
    OsqpSolver polished(qp, polishSettings());
    const OsqpResult r_plain = plain.solve();
    const OsqpResult r_polished = polished.solve();
    ASSERT_EQ(r_plain.info.status, SolveStatus::Solved);
    ASSERT_EQ(r_polished.info.status, SolveStatus::Solved);
    EXPECT_LE(r_polished.info.primRes, r_plain.info.primRes + 1e-12)
        << toString(domain);
    EXPECT_LE(r_polished.info.dualRes, r_plain.info.dualRes + 1e-12)
        << toString(domain);

    // Residuals alone can be fooled by a point that solves a wrongly
    // guessed active set exactly: the result must also be feasible to
    // the solve's primal tolerance, and an adopted polish must be
    // optimal against a tight solve (a rejected one hands back the
    // unpolished point, which is only eps-accurate).
    const OsqpSettings defaults;
    const ResidualInfo tol =
        computeResiduals(qp, r_polished.x, r_polished.y, r_polished.z,
                         defaults.epsAbs, defaults.epsRel);
    Vector ax;
    qp.a.spmv(r_polished.x, ax);
    for (std::size_t i = 0; i < ax.size(); ++i) {
        EXPECT_GE(ax[i], qp.l[i] - tol.epsPrim)
            << toString(domain) << " row " << i;
        EXPECT_LE(ax[i], qp.u[i] + tol.epsPrim)
            << toString(domain) << " row " << i;
    }

    OsqpSettings tight;
    tight.epsAbs = 1e-7;
    tight.epsRel = 1e-7;
    OsqpSolver reference(qp, tight);
    const OsqpResult r_ref = reference.solve();
    ASSERT_EQ(r_ref.info.status, SolveStatus::Solved) << toString(domain);
    if (r_polished.polish.adopted) {
        EXPECT_LE(
            std::abs(r_polished.info.objective - r_ref.info.objective),
            1e-3 * std::max(Real(1.0), std::abs(r_ref.info.objective)))
            << toString(domain) << ": polished "
            << r_polished.info.objective << " vs reference "
            << r_ref.info.objective;
    } else {
        EXPECT_EQ(r_polished.info.objective, r_plain.info.objective)
            << toString(domain);
    }
}

INSTANTIATE_TEST_SUITE_P(AllDomains, PolishSweep,
                         ::testing::Values(Domain::Control, Domain::Lasso,
                                           Domain::Huber,
                                           Domain::Portfolio, Domain::Svm,
                                           Domain::Eqqp));

} // namespace
} // namespace rsqp
