/**
 * @file
 * KKT assembly tests: structure of the assembled matrix, in-place rho
 * and matrix-value updates, and the matrix-free reduced operator
 * against explicit computation.
 */

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "linalg/kkt.hpp"
#include "linalg/vector_ops.hpp"
#include "problems/suite.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

using test::randomSparse;
using test::randomSpdUpper;
using test::randomVector;

struct KktFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        Rng rng(5);
        p = randomSpdUpper(6, 0.4, rng);
        a = randomSparse(4, 6, 0.4, rng);
        rho = {0.5, 1.0, 2.0, 4.0};
        sigma = 1e-6;
    }

    CscMatrix p, a;
    Vector rho;
    Real sigma = 0.0;
};

TEST_F(KktFixture, AssembledMatrixHasExpectedBlocks)
{
    KktAssembler assembler(p, a, sigma, rho);
    const CscMatrix& kkt = assembler.kkt();
    EXPECT_EQ(kkt.rows(), 10);
    EXPECT_EQ(kkt.cols(), 10);
    EXPECT_TRUE(kkt.isValid());

    // (1,1) block: P + sigma I.
    for (Index i = 0; i < 6; ++i)
        for (Index j = i; j < 6; ++j) {
            const Real expected =
                p.coeff(i, j) + (i == j ? sigma : 0.0);
            EXPECT_NEAR(kkt.coeff(i, j), expected, 1e-15);
        }
    // (1,2) block: A' (stored as rows 0..5 of columns 6..9).
    for (Index i = 0; i < 4; ++i)
        for (Index j = 0; j < 6; ++j)
            EXPECT_DOUBLE_EQ(kkt.coeff(j, 6 + i), a.coeff(i, j));
    // (2,2) block: -1/rho diagonal.
    for (Index i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(kkt.coeff(6 + i, 6 + i),
                         -1.0 / rho[static_cast<std::size_t>(i)]);
}

TEST_F(KktFixture, UpdateRhoRewritesOnlyDiagonal)
{
    KktAssembler assembler(p, a, sigma, rho);
    Vector rho2 = {1.0, 1.0, 1.0, 1.0};
    assembler.updateRho(rho2);
    const CscMatrix& kkt = assembler.kkt();
    for (Index i = 0; i < 4; ++i)
        EXPECT_DOUBLE_EQ(kkt.coeff(6 + i, 6 + i), -1.0);
    // P block untouched.
    EXPECT_NEAR(kkt.coeff(0, 0), p.coeff(0, 0) + sigma, 1e-15);
}

TEST_F(KktFixture, UpdateMatricesRewritesValues)
{
    KktAssembler assembler(p, a, sigma, rho);
    std::vector<Real> p_values = p.values();
    for (Real& v : p_values)
        v *= 3.0;
    std::vector<Real> a_values = a.values();
    for (Real& v : a_values)
        v *= -2.0;
    assembler.updateMatrices(p_values, a_values);
    const CscMatrix& kkt = assembler.kkt();
    for (Index i = 0; i < 6; ++i)
        for (Index j = i; j < 6; ++j)
            EXPECT_NEAR(kkt.coeff(i, j),
                        3.0 * p.coeff(i, j) + (i == j ? sigma : 0.0),
                        1e-12);
    for (Index i = 0; i < 4; ++i)
        for (Index j = 0; j < 6; ++j)
            EXPECT_NEAR(kkt.coeff(j, 6 + i), -2.0 * a.coeff(i, j), 1e-12);
}

TEST(KktAssembler, MissingPDiagonalStillGetsSigma)
{
    // P with an empty column (variable without quadratic cost).
    TripletList p_triplets(3, 3);
    p_triplets.add(0, 0, 2.0);
    // column 1 empty; column 2 off-diagonal only.
    p_triplets.add(0, 2, 1.0);
    const CscMatrix p = CscMatrix::fromTriplets(p_triplets);
    Rng rng(3);
    const CscMatrix a = test::randomSparse(2, 3, 0.8, rng);
    KktAssembler assembler(p, a, 0.5, {1.0, 1.0});
    EXPECT_DOUBLE_EQ(assembler.kkt().coeff(1, 1), 0.5);
    EXPECT_DOUBLE_EQ(assembler.kkt().coeff(2, 2), 0.5);
    EXPECT_DOUBLE_EQ(assembler.kkt().coeff(0, 0), 2.5);
}

TEST_F(KktFixture, ReducedOperatorMatchesExplicit)
{
    ReducedKktOperator op(p, a, sigma, rho);
    Rng rng(11);
    const Vector x = randomVector(6, rng);
    Vector y;
    op.apply(x, y);

    // Explicit: P x + sigma x + A' diag(rho) A x.
    Vector px;
    p.spmvSymUpper(x, px);
    Vector ax;
    a.spmv(x, ax);
    for (std::size_t i = 0; i < ax.size(); ++i)
        ax[i] *= rho[i];
    Vector aty;
    a.spmvTranspose(ax, aty);
    for (Index j = 0; j < 6; ++j) {
        const auto s = static_cast<std::size_t>(j);
        EXPECT_NEAR(y[s], px[s] + sigma * x[s] + aty[s], 1e-12);
    }
}

TEST_F(KktFixture, ReducedOperatorDiagonal)
{
    ReducedKktOperator op(p, a, sigma, rho);
    const Vector diag = op.diagonal();
    // Compare against applying K to unit vectors.
    for (Index j = 0; j < 6; ++j) {
        Vector e(6, 0.0);
        e[static_cast<std::size_t>(j)] = 1.0;
        Vector ke;
        op.apply(e, ke);
        EXPECT_NEAR(diag[static_cast<std::size_t>(j)],
                    ke[static_cast<std::size_t>(j)], 1e-12);
    }
}

TEST_F(KktFixture, ReducedOperatorSetRho)
{
    ReducedKktOperator op(p, a, sigma, rho);
    Vector rho2 = {2.0, 2.0, 2.0, 2.0};
    op.setRho(rho2);
    ReducedKktOperator fresh(p, a, sigma, rho2);
    Rng rng(13);
    const Vector x = randomVector(6, rng);
    Vector y1, y2;
    op.apply(x, y1);
    fresh.apply(x, y2);
    test::expectVectorsNear(y1, y2, 1e-13, "setRho");
}

/**
 * The retired column-scatter application of K, kept as the numerical
 * reference for the CSR row-gather path: spmvSymUpper for P, CSC spmv
 * + rho scale for the A pass, spmvTransposeAccumulate for A'. Rows
 * with fewer than 8 non-zeros still match it bit for bit (the striped
 * kernel's tail is the retired serial loop); longer rows reduce in
 * the canonical 8-lane striped order and agree to rounding only —
 * the bitwise contract is cross-ISA instead (see
 * tests/linalg/test_simd_kernels.cpp).
 */
Vector
applyReferenceCsc(const CscMatrix& p, const CscMatrix& a, Real sigma,
                  const Vector& rho, const Vector& x)
{
    Vector y;
    p.spmvSymUpper(x, y);
    axpy(sigma, x, y);
    Vector ax;
    a.spmv(x, ax);
    for (std::size_t i = 0; i < ax.size(); ++i)
        ax[i] *= rho[i];
    a.spmvTransposeAccumulate(ax, y, 1.0);
    return y;
}

TEST_F(KktFixture, CsrApplyMatchesRetiredCscPathExactly)
{
    ReducedKktOperator op(p, a, sigma, rho);
    Rng rng(23);
    for (int trial = 0; trial < 20; ++trial) {
        const Vector x = randomVector(6, rng);
        Vector y;
        op.apply(x, y);
        // Exact equality, not an epsilon: the CSR mirrors replay the
        // retired summation order term for term.
        EXPECT_EQ(y, applyReferenceCsc(p, a, sigma, rho, x))
            << "trial " << trial;
    }
}

TEST(ReducedKktOperator, CsrApplyMatchesCscOnRandomShapes)
{
    Rng rng(29);
    for (int trial = 0; trial < 12; ++trial) {
        const Index n = 1 + rng.uniformIndex(40);
        const Index m = rng.uniformIndex(30);
        const CscMatrix p = randomSpdUpper(n, 0.35, rng);
        const CscMatrix a = randomSparse(m, n, 0.3, rng);
        Vector rho(static_cast<std::size_t>(m));
        for (Real& v : rho)
            v = 0.1 + std::abs(rng.normal());
        const Real sigma = 1e-6;

        ReducedKktOperator op(p, a, sigma, rho);
        const Vector x = randomVector(n, rng);
        Vector y;
        op.apply(x, y);
        const Vector y_ref = applyReferenceCsc(p, a, sigma, rho, x);
        // Rows can exceed 8 nnz here, so the striped reduction order
        // differs from the serial reference: rounding-level tolerance.
        test::expectVectorsNear(y, y_ref, 1e-12, "random shapes");
    }
}

TEST(ReducedKktOperator, CsrApplyMatchesCscOnSuiteProblems)
{
    // One problem per domain: realistic sparsity structure, agreeing
    // with the retired CSC path to rounding (long rows reduce in the
    // striped kernel order).
    for (Domain domain : allDomains()) {
        const QpProblem qp = generateProblem(domain, 120, 77);
        const Index n = qp.numVariables();
        const Index m = qp.numConstraints();
        Vector rho(static_cast<std::size_t>(m), 0.25);
        const Real sigma = 1e-6;

        ReducedKktOperator op(qp.pUpper, qp.a, sigma, rho);
        Rng rng(31);
        const Vector x = randomVector(n, rng);
        Vector y;
        op.apply(x, y);
        const Vector y_ref =
            applyReferenceCsc(qp.pUpper, qp.a, sigma, rho, x);
        test::expectVectorsNear(y, y_ref, 1e-12, toString(domain));
    }
}

TEST(ReducedKktOperator, ApplyBitwiseIdenticalAcrossThreadCounts)
{
    // Big enough (n above kParallelThreshold) that a pool-backed apply
    // would fan out; the serial row-gather must ignore the ambient
    // thread count.
    const QpProblem qp = generateProblem(Domain::Lasso, 5000, 78);
    Vector rho(static_cast<std::size_t>(qp.numConstraints()), 0.4);
    ReducedKktOperator op(qp.pUpper, qp.a, 1e-6, rho);
    Rng rng(37);
    const Vector x = randomVector(qp.numVariables(), rng);

    Vector y_ref;
    {
        NumThreadsScope scope(1);
        op.apply(x, y_ref);
    }
    for (Index threads : {2, 4, 8}) {
        NumThreadsScope scope(threads);
        Vector y;
        op.apply(x, y);
        ASSERT_EQ(y, y_ref) << "threads " << threads;
    }
}

TEST_F(KktFixture, ApplyAMatchesCscSpmv)
{
    ReducedKktOperator op(p, a, sigma, rho);
    Rng rng(41);
    const Vector x = randomVector(6, rng);
    Vector z, z_ref;
    op.applyA(x, z);
    a.spmv(x, z_ref);
    EXPECT_EQ(z, z_ref);
}

TEST_F(KktFixture, AccumulateAtRhoMatchesComposedReference)
{
    ReducedKktOperator op(p, a, sigma, rho);
    Rng rng(43);
    const Vector w = randomVector(4, rng);
    Vector y = randomVector(6, rng);
    Vector y_ref = y;

    op.accumulateAtRho(w, y);
    Vector scaled = w;
    for (std::size_t i = 0; i < scaled.size(); ++i)
        scaled[i] *= rho[i];
    a.spmvTransposeAccumulate(scaled, y_ref, 1.0);
    EXPECT_EQ(y, y_ref);
}

TEST_F(KktFixture, RefreshValuesTracksRewrittenMatrices)
{
    // The operator shares P/A storage with the caller; rewriting the
    // values in place and calling refreshValues must be equivalent to
    // constructing a fresh operator on the new values.
    CscMatrix p2 = p;
    CscMatrix a2 = a;
    ReducedKktOperator op(p2, a2, sigma, rho);

    for (Real& v : p2.values())
        v *= 1.5;
    for (Real& v : a2.values())
        v *= -0.5;
    op.refreshValues();

    ReducedKktOperator fresh(p2, a2, sigma, rho);
    Rng rng(47);
    const Vector x = randomVector(6, rng);
    Vector y, y_fresh;
    op.apply(x, y);
    fresh.apply(x, y_fresh);
    EXPECT_EQ(y, y_fresh);
    EXPECT_EQ(op.diagonal(), fresh.diagonal());
}

TEST(ReducedKktOperator, SetRhoMatchesFreshDiagonalExactly)
{
    // setRho refreshes the cached diagonal from the rho-independent
    // parts in O(nnz(A)); the result must equal a fresh construction.
    Rng rng(53);
    const CscMatrix p = randomSpdUpper(15, 0.3, rng);
    const CscMatrix a = randomSparse(10, 15, 0.3, rng);
    Vector rho1(10, 0.5);
    Vector rho2(10);
    for (Real& v : rho2)
        v = 0.1 + std::abs(rng.normal());

    ReducedKktOperator op(p, a, 1e-6, rho1);
    op.setRho(rho2);
    ReducedKktOperator fresh(p, a, 1e-6, rho2);
    EXPECT_EQ(op.diagonal(), fresh.diagonal());
}

TEST(ReducedKktOperator, HandlesUnconstrainedProblems)
{
    // m = 0 (the ExactInNSteps setup): K = P + sigma I, every A pass a
    // no-op on empty arrays.
    Rng rng(59);
    const CscMatrix p = randomSpdUpper(7, 0.5, rng);
    const CscMatrix a(0, 7);
    ReducedKktOperator op(p, a, 1e-6, Vector{});
    const Vector x = randomVector(7, rng);
    Vector y;
    op.apply(x, y);
    EXPECT_EQ(y, applyReferenceCsc(p, a, 1e-6, Vector{}, x));
    Vector z;
    op.applyA(x, z);
    EXPECT_TRUE(z.empty());
}

TEST_F(KktFixture, OperatorIsPositiveDefinite)
{
    ReducedKktOperator op(p, a, sigma, rho);
    Rng rng(17);
    for (int trial = 0; trial < 10; ++trial) {
        const Vector x = randomVector(6, rng);
        Vector kx;
        op.apply(x, kx);
        EXPECT_GT(dot(x, kx), 0.0);
    }
}

} // namespace
} // namespace rsqp
