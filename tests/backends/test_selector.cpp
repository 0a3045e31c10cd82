/**
 * @file
 * BackendSelector tests: feature extraction on hand-built problems,
 * the policy branches against the fitted thresholds, and the Auto
 * factory's routing on real suite instances.
 */

#include <gtest/gtest.h>

#include "backends/backend_selector.hpp"
#include "backends/qp_backend.hpp"
#include "problems/suite.hpp"

namespace rsqp
{
namespace
{

/** min x0^2 + x1^2 with a configurable constraint mix. */
QpProblem
tinyProblem(Index equalities, Index inequalities, Index loose)
{
    QpProblem qp;
    const Index n = 2;
    const Index m = equalities + inequalities + loose;

    TripletList p_triplets(n, n);
    p_triplets.add(0, 0, 2.0);
    p_triplets.add(1, 1, 2.0);
    qp.pUpper = CscMatrix::fromTriplets(p_triplets);
    qp.q.assign(static_cast<std::size_t>(n), 0.0);

    TripletList a_triplets(m, n);
    for (Index i = 0; i < m; ++i) {
        a_triplets.add(i, 0, 1.0);
        a_triplets.add(i, 1, 1.0);
    }
    qp.a = CscMatrix::fromTriplets(a_triplets);
    for (Index i = 0; i < m; ++i) {
        if (i < equalities) {
            qp.l.push_back(1.0);
            qp.u.push_back(1.0);
        } else if (i < equalities + inequalities) {
            qp.l.push_back(0.0);
            qp.u.push_back(10.0);
        } else {
            qp.l.push_back(-kInf);
            qp.u.push_back(kInf);
        }
    }
    return qp;
}

TEST(Selector, FeatureExtraction)
{
    const QpProblem qp = tinyProblem(2, 1, 1);
    const BackendFeatures f = computeBackendFeatures(qp);
    EXPECT_EQ(f.n, 2);
    EXPECT_EQ(f.m, 4);
    EXPECT_EQ(f.nnz, qp.totalNnz());
    EXPECT_TRUE(f.hasHessian);
    EXPECT_DOUBLE_EQ(f.equalityFraction, 0.5);
    EXPECT_DOUBLE_EQ(f.looseFraction, 0.25);
    EXPECT_DOUBLE_EQ(f.boxFraction, 0.0);
    EXPECT_DOUBLE_EQ(f.tallRatio, 2.0);
}

TEST(Selector, FeatureExtractionHandlesEmptyConstraints)
{
    QpProblem qp = tinyProblem(1, 0, 0);
    qp.a = CscMatrix(0, 2);
    qp.l.clear();
    qp.u.clear();
    const BackendFeatures f = computeBackendFeatures(qp);
    EXPECT_EQ(f.m, 0);
    EXPECT_DOUBLE_EQ(f.equalityFraction, 0.0);
    EXPECT_DOUBLE_EQ(f.tallRatio, 0.0);
}

TEST(Selector, SmallProblemsAlwaysAdmm)
{
    BackendFeatures f;
    // A feature vector that would otherwise route to PDHG, below the
    // n + m = 400 small-problem threshold.
    f.n = 100;
    f.m = 200;
    f.tallRatio = 2.0;
    f.equalityFraction = 0.4;
    EXPECT_EQ(chooseBackend(f), BackendKind::Admm);

    // Same shape scaled past the threshold flips the choice.
    f.n = 1000;
    f.m = 2000;
    EXPECT_EQ(chooseBackend(f), BackendKind::Pdhg);
}

TEST(Selector, EqualityDominatedStaysAdmm)
{
    BackendFeatures f;
    f.n = 1000;
    f.m = 2000;
    f.tallRatio = 2.0;
    f.equalityFraction = 0.6;  // the equality-dominated threshold
    EXPECT_EQ(chooseBackend(f), BackendKind::Admm);
}

TEST(Selector, TallMixedGoesPdhgAllInequalityStaysAdmm)
{
    BackendFeatures f;
    f.n = 1000;
    f.m = 2000;
    f.tallRatio = 2.0;

    // Mixed equality/inequality rows: PDHG territory.
    f.equalityFraction = 0.4;
    EXPECT_EQ(chooseBackend(f), BackendKind::Pdhg);

    // All-inequality tall (svm shape): one rho fits every row.
    f.equalityFraction = 0.0;
    EXPECT_EQ(chooseBackend(f), BackendKind::Admm);

    // Square problems stay ADMM regardless of mix.
    f.tallRatio = 1.0;
    f.equalityFraction = 0.4;
    EXPECT_EQ(chooseBackend(f), BackendKind::Admm);
}

TEST(Selector, PureFunctionSameChoiceOnRepeat)
{
    const QpProblem qp = generateProblem(Domain::Control, 30, 5);
    const BackendKind first = chooseBackend(qp);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(chooseBackend(qp), first);
}

TEST(Selector, DriverRoutesSuiteDomains)
{
    // The fitted policy on real generators: control (tall, mixed
    // constraint set) routes to PDHG at scale; svm (tall,
    // all-inequality) and eqqp (equality-dominated) keep ADMM.
    const struct
    {
        Domain domain;
        Index size;
        BackendKind expect;
    } cases[] = {
        {Domain::Control, 40, BackendKind::Pdhg},
        {Domain::Svm, 60, BackendKind::Admm},
        {Domain::Eqqp, 120, BackendKind::Admm},
        {Domain::Control, 4, BackendKind::Admm},  // small
    };
    for (const auto& c : cases) {
        const QpProblem qp = generateProblem(c.domain, c.size, 1);
        OsqpSettings settings;
        settings.firstOrder.method = BackendKind::Auto;
        EXPECT_EQ(makeBackend(qp, std::move(settings))->kind(), c.expect)
            << toString(c.domain) << " size " << c.size;
    }
}

} // namespace
} // namespace rsqp
