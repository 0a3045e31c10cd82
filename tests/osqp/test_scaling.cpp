/**
 * @file
 * Ruiz equilibration tests: scaling invariants, norm equalization and
 * solution recovery through the scaling maps, plus the ScaledQp owner
 * (parametric setters, scale/unscale maps, constraint classes).
 */

#include <gtest/gtest.h>

#include "linalg/vector_ops.hpp"
#include "osqp/scaling.hpp"
#include "problems/generators.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

QpProblem
sampleProblem()
{
    Rng rng(4);
    return generateLasso(20, rng);
}

TEST(Scaling, IdentityWhenDisabled)
{
    QpProblem problem = sampleProblem();
    const QpProblem before = problem;
    const Scaling scaling = ruizEquilibrate(problem, 0);
    EXPECT_TRUE(problem.pUpper == before.pUpper);
    EXPECT_TRUE(problem.a == before.a);
    for (Real d : scaling.d)
        EXPECT_DOUBLE_EQ(d, 1.0);
    EXPECT_DOUBLE_EQ(scaling.c, 1.0);
}

TEST(Scaling, ScaledMatricesMatchExplicitFormula)
{
    QpProblem problem = sampleProblem();
    const QpProblem before = problem;
    const Scaling scaling = ruizEquilibrate(problem, 10);

    // Pb = c D P D.
    const CscMatrix expected_p =
        before.pUpper.scaled(scaling.d, scaling.d);
    for (std::size_t i = 0; i < problem.pUpper.values().size(); ++i)
        EXPECT_NEAR(problem.pUpper.values()[i],
                    scaling.c * expected_p.values()[i], 1e-12);
    // Ab = E A D.
    const CscMatrix expected_a = before.a.scaled(scaling.e, scaling.d);
    for (std::size_t i = 0; i < problem.a.values().size(); ++i)
        EXPECT_NEAR(problem.a.values()[i], expected_a.values()[i],
                    1e-12);
    // qb = c D q.
    for (std::size_t j = 0; j < problem.q.size(); ++j)
        EXPECT_NEAR(problem.q[j],
                    scaling.c * scaling.d[j] * before.q[j], 1e-12);
}

TEST(Scaling, BoundsScaledAndInfinitiesPreserved)
{
    QpProblem problem = sampleProblem();
    const QpProblem before = problem;
    const Scaling scaling = ruizEquilibrate(problem, 10);
    for (std::size_t i = 0; i < problem.l.size(); ++i) {
        if (before.l[i] <= -kInf)
            EXPECT_LE(problem.l[i], -kInf);
        else
            EXPECT_NEAR(problem.l[i], scaling.e[i] * before.l[i], 1e-10);
        if (before.u[i] >= kInf)
            EXPECT_GE(problem.u[i], kInf);
        else
            EXPECT_NEAR(problem.u[i], scaling.e[i] * before.u[i], 1e-10);
    }
}

TEST(Scaling, EqualizesKktColumnNorms)
{
    QpProblem problem = sampleProblem();
    const Vector before_norms = problem.pUpper.symUpperColumnInfNorms();
    Real before_spread = 0.0;
    {
        const Vector a_cols = problem.a.columnInfNorms();
        Real lo = 1e30, hi = 0.0;
        for (std::size_t j = 0; j < before_norms.size(); ++j) {
            const Real norm = std::max(before_norms[j], a_cols[j]);
            if (norm > 0.0) {
                lo = std::min(lo, norm);
                hi = std::max(hi, norm);
            }
        }
        before_spread = hi / lo;
    }

    ruizEquilibrate(problem, 10);

    const Vector after_p = problem.pUpper.symUpperColumnInfNorms();
    const Vector after_a = problem.a.columnInfNorms();
    Real lo = 1e30, hi = 0.0;
    for (std::size_t j = 0; j < after_p.size(); ++j) {
        const Real norm = std::max(after_p[j], after_a[j]);
        if (norm > 0.0) {
            lo = std::min(lo, norm);
            hi = std::max(hi, norm);
        }
    }
    const Real after_spread = hi / lo;
    EXPECT_LT(after_spread, before_spread + 1e-9);
    EXPECT_LT(after_spread, 10.0);  // well equilibrated
}

TEST(Scaling, InverseVectorsConsistent)
{
    QpProblem problem = sampleProblem();
    const Scaling scaling = ruizEquilibrate(problem, 10);
    for (std::size_t j = 0; j < scaling.d.size(); ++j)
        EXPECT_NEAR(scaling.d[j] * scaling.dInv[j], 1.0, 1e-14);
    for (std::size_t i = 0; i < scaling.e.size(); ++i)
        EXPECT_NEAR(scaling.e[i] * scaling.eInv[i], 1.0, 1e-14);
    EXPECT_NEAR(scaling.c * scaling.cInv, 1.0, 1e-14);
}

TEST(Scaling, FactorsWithinClampRange)
{
    QpProblem problem = sampleProblem();
    const Scaling scaling = ruizEquilibrate(problem, 10);
    for (Real d : scaling.d) {
        EXPECT_GT(d, 0.0);
        EXPECT_LT(d, 1e12);
    }
    for (Real e : scaling.e) {
        EXPECT_GT(e, 0.0);
        EXPECT_LT(e, 1e12);
    }
    EXPECT_GT(scaling.c, 0.0);
}

TEST(ScaledQp, SettersMatchScalingFormulaBitwise)
{
    const QpProblem problem = sampleProblem();
    ScaledQp qp(problem, OsqpSettings{});
    ASSERT_TRUE(qp.ok());
    const Scaling& sc = qp.scaling();

    Vector q2 = problem.q;
    Vector l2 = problem.l;
    Vector u2 = problem.u;
    std::vector<Real> p2 = problem.pUpper.values();
    std::vector<Real> a2 = problem.a.values();
    for (Real& v : q2)
        v = 0.5 * v - 1.0;
    for (std::size_t i = 0; i < l2.size(); ++i) {
        if (l2[i] > -kInf)
            l2[i] -= 0.25;
        if (u2[i] < kInf)
            u2[i] += 0.25;
    }
    for (Real& v : p2)
        v *= 1.5;
    for (Real& v : a2)
        v *= -0.75;
    qp.setLinearCost(q2);
    qp.setBounds(l2, u2);
    EXPECT_TRUE(qp.setMatrixValues(p2, a2));
    EXPECT_FALSE(qp.setMatrixValues({}, {}));

    const QpProblem& scaled = qp.scaled();
    for (std::size_t j = 0; j < q2.size(); ++j)
        EXPECT_EQ(scaled.q[j], sc.c * sc.d[j] * q2[j]);
    for (std::size_t i = 0; i < l2.size(); ++i) {
        EXPECT_EQ(scaled.l[i], l2[i] <= -kInf ? l2[i] : sc.e[i] * l2[i]);
        EXPECT_EQ(scaled.u[i], u2[i] >= kInf ? u2[i] : sc.e[i] * u2[i]);
    }
    const auto& pc = scaled.pUpper.colPtr();
    const auto& pr = scaled.pUpper.rowIdx();
    for (Index c = 0; c < scaled.pUpper.cols(); ++c)
        for (Index k = pc[c]; k < pc[c + 1]; ++k)
            EXPECT_EQ(scaled.pUpper.values()[k],
                      sc.c * sc.d[pr[k]] * sc.d[c] * p2[k]);
    const auto& ac = scaled.a.colPtr();
    const auto& ar = scaled.a.rowIdx();
    for (Index c = 0; c < scaled.a.cols(); ++c)
        for (Index k = ac[c]; k < ac[c + 1]; ++k)
            EXPECT_EQ(scaled.a.values()[k], sc.e[ar[k]] * sc.d[c] * a2[k]);
    EXPECT_EQ(qp.original().q, q2);
    EXPECT_EQ(qp.original().l, l2);
    EXPECT_EQ(qp.original().a.values(), a2);
}

TEST(ScaledQp, ScaleUnscaleRoundTrips)
{
    const QpProblem problem = sampleProblem();
    const ScaledQp qp(problem, OsqpSettings{});
    ASSERT_TRUE(qp.ok());
    Rng rng(9);
    const Vector x = test::randomVector(problem.numVariables(), rng);
    const Vector y = test::randomVector(problem.numConstraints(), rng);

    Vector xs, ys, x_back, y_back;
    ASSERT_TRUE(qp.scaleWarmStart(x, y, xs, ys));
    qp.unscaleX(xs, x_back);
    qp.unscaleY(ys, y_back);
    for (std::size_t j = 0; j < x.size(); ++j)
        EXPECT_NEAR(x_back[j], x[j], 1e-14 * (1.0 + std::abs(x[j])));
    for (std::size_t i = 0; i < y.size(); ++i)
        EXPECT_NEAR(y_back[i], y[i], 1e-14 * (1.0 + std::abs(y[i])));

    // z = A x survives the trip: E^{-1} (E A D) (D^{-1} x) = A x.
    Vector zs, z_back, z;
    qp.scaled().a.spmv(xs, zs);
    qp.unscaleZ(zs, z_back);
    problem.a.spmv(x, z);
    for (std::size_t i = 0; i < z.size(); ++i)
        EXPECT_NEAR(z_back[i], z[i], 1e-12 * (1.0 + std::abs(z[i])));

    // Deltas unscale like the iterates they difference.
    const Vector zeros_x(x.size(), 0.0);
    const Vector zeros_y(y.size(), 0.0);
    Vector dx, dy;
    qp.unscaleDeltaX(xs, zeros_x, dx);
    qp.unscaleDeltaY(ys, zeros_y, dy);
    EXPECT_EQ(dx, x_back);
    EXPECT_EQ(dy, y_back);

    // A wrongly sized guess is refused and leaves the outputs alone.
    Vector untouched = xs;
    EXPECT_FALSE(qp.scaleWarmStart(Vector(x.size() + 1, 0.0), y,
                                   untouched, ys));
    EXPECT_EQ(untouched, xs);
}

TEST(ScaledQp, SetBoundsReportsClassChanges)
{
    EXPECT_EQ(constraintClass(-kInf, kInf), ConstraintClass::Loose);
    EXPECT_EQ(constraintClass(2.0, 2.0), ConstraintClass::Equality);
    EXPECT_EQ(constraintClass(-kInf, 1.0), ConstraintClass::Inequality);

    const QpProblem problem = sampleProblem();
    ScaledQp qp(problem, OsqpSettings{});
    ASSERT_TRUE(qp.ok());
    const Index m = problem.numConstraints();
    Index row = -1;  // first inequality row with a finite lower bound
    for (Index i = 0; i < m && row < 0; ++i)
        if (constraintClass(problem.l[i], problem.u[i]) ==
                ConstraintClass::Inequality &&
            problem.l[i] > -kInf)
            row = i;
    ASSERT_GE(row, 0);
    const auto r = static_cast<std::size_t>(row);

    EXPECT_FALSE(qp.setBounds(problem.l, problem.u));
    Vector l2 = problem.l;
    Vector u2 = problem.u;
    l2[r] -= 1.0;  // wider, still an inequality
    EXPECT_FALSE(qp.setBounds(l2, u2));
    u2[r] = l2[r];  // inequality -> equality
    EXPECT_TRUE(qp.setBounds(l2, u2));
    EXPECT_FALSE(qp.setBounds(l2, u2));
    l2[r] = -kInf;
    u2[r] = kInf;  // equality -> loose
    EXPECT_TRUE(qp.setBounds(l2, u2));
    EXPECT_TRUE(qp.setBounds(problem.l, problem.u));  // loose -> back
}

TEST(ScaledQp, FailedValidationSkipsScaling)
{
    OsqpSettings settings;
    settings.alpha = 2.5;
    const ScaledQp bad_settings(sampleProblem(), settings);
    EXPECT_TRUE(bad_settings.validation().has(ValidationCode::InvalidSetting));
    EXPECT_EQ(bad_settings.scaled().numVariables(), 0);

    QpProblem crossed = sampleProblem();
    crossed.l[0] = 1.0;
    crossed.u[0] = -1.0;
    const ScaledQp bad_problem(crossed, OsqpSettings{});
    EXPECT_TRUE(
        bad_problem.validation().has(ValidationCode::InfeasibleBounds));
    EXPECT_EQ(bad_problem.original().l[0], 1.0);
}

} // namespace
} // namespace rsqp
