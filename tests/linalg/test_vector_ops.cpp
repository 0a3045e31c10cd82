/**
 * @file
 * Dense vector kernel tests (the Table 1 "Vector Operations").
 */

#include <algorithm>
#include <cmath>
#include <cstring>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "linalg/vector_ops.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

TEST(VectorOps, Axpby)
{
    const Vector x = {1.0, 2.0};
    const Vector y = {10.0, 20.0};
    Vector out;
    axpby(2.0, x, 0.5, y, out);
    EXPECT_DOUBLE_EQ(out[0], 7.0);
    EXPECT_DOUBLE_EQ(out[1], 14.0);
}

TEST(VectorOps, AxpbyAliasesSafely)
{
    Vector x = {1.0, -1.0};
    const Vector y = {3.0, 4.0};
    axpby(1.0, x, 1.0, y, x);
    EXPECT_DOUBLE_EQ(x[0], 4.0);
    EXPECT_DOUBLE_EQ(x[1], 3.0);
}

TEST(VectorOps, DotAndNorms)
{
    const Vector x = {3.0, -4.0};
    EXPECT_DOUBLE_EQ(dot(x, x), 25.0);
    EXPECT_DOUBLE_EQ(norm2(x), 5.0);
    EXPECT_DOUBLE_EQ(normInf(x), 4.0);
}

TEST(VectorOps, NormInfDiff)
{
    EXPECT_DOUBLE_EQ(normInfDiff({1.0, 2.0}, {1.5, 1.0}), 1.0);
}

TEST(VectorOps, ElementwiseFamily)
{
    const Vector x = {2.0, -3.0};
    const Vector y = {4.0, 2.0};
    Vector out;
    ewProduct(x, y, out);
    EXPECT_DOUBLE_EQ(out[0], 8.0);
    EXPECT_DOUBLE_EQ(out[1], -6.0);
    ewMin(x, y, out);
    EXPECT_DOUBLE_EQ(out[0], 2.0);
    EXPECT_DOUBLE_EQ(out[1], -3.0);
    ewMax(x, y, out);
    EXPECT_DOUBLE_EQ(out[0], 4.0);
    EXPECT_DOUBLE_EQ(out[1], 2.0);
    ewReciprocal(y, out);
    EXPECT_DOUBLE_EQ(out[0], 0.25);
    EXPECT_DOUBLE_EQ(out[1], 0.5);
}

TEST(VectorOps, ClampIsProjection)
{
    const Vector x = {-5.0, 0.5, 9.0};
    const Vector lo = {0.0, 0.0, 0.0};
    const Vector hi = {1.0, 1.0, 1.0};
    Vector out;
    ewClamp(x, lo, hi, out);
    EXPECT_DOUBLE_EQ(out[0], 0.0);
    EXPECT_DOUBLE_EQ(out[1], 0.5);
    EXPECT_DOUBLE_EQ(out[2], 1.0);
}

TEST(VectorOps, SqrtAndFinite)
{
    Vector out;
    ewSqrt({4.0, 9.0}, out);
    EXPECT_DOUBLE_EQ(out[0], 2.0);
    EXPECT_DOUBLE_EQ(out[1], 3.0);
    EXPECT_TRUE(allFinite(out));
    out[0] = std::numeric_limits<Real>::infinity();
    EXPECT_FALSE(allFinite(out));
}

TEST(VectorOps, SizeMismatchPanicsInDebugPath)
{
    // Size mismatches are programming errors; they abort via
    // RSQP_ASSERT (panic), so we only verify matching sizes work and
    // document the contract here.
    Vector out;
    axpby(1.0, {1.0}, 1.0, {2.0}, out);
    EXPECT_DOUBLE_EQ(out[0], 3.0);
}

TEST(VectorOps, ReciprocalOfZeroIsFatal)
{
    Vector out;
    // ewReciprocal asserts on zero; RSQP_ASSERT aborts, so this is
    // exercised only through the death-test API.
    EXPECT_DEATH(ewReciprocal({0.0}, out), "ewReciprocal");
}

TEST(VectorOps, ConstantVector)
{
    const Vector v = constantVector(4, 2.5);
    ASSERT_EQ(v.size(), 4u);
    for (Real x : v)
        EXPECT_DOUBLE_EQ(x, 2.5);
}

/** Random vector of length n. */
Vector
bigRandomVector(Index n, std::uint64_t seed)
{
    Rng rng(seed);
    Vector x(static_cast<std::size_t>(n));
    for (Real& v : x)
        v = rng.normal();
    return x;
}

/** x[b, e) as its own vector. */
Vector
slice(const Vector& x, Index b, Index e)
{
    return Vector(x.begin() + b, x.begin() + e);
}

TEST(VectorOps, LongReductionsSumChunksInAscendingOrder)
{
    // A long reduction is the kParallelGrain chunks' partials added in
    // ascending order, the sum seeded from the first chunk. Each chunk
    // is shorter than kParallelThreshold, so the same kernel on the
    // chunk alone gives its partial.
    const Index n = 3 * kParallelGrain + 17;
    const Vector x = bigRandomVector(n, 41);
    const Vector y0 = bigRandomVector(n, 42);
    Vector inv_diag = bigRandomVector(n, 43);
    for (Real& v : inv_diag)
        v = 0.5 + std::abs(v);

    Real dot_ref = 0.0, axpy_ref = 0.0, precond_ref = 0.0;
    for (Index b = 0; b < n; b += kParallelGrain) {
        const Index e = std::min(n, b + kParallelGrain);
        const Vector xs = slice(x, b, e);
        Vector ys = slice(y0, b, e);
        Vector ds(xs.size());
        const Real dot_part = dot(xs, ys);
        const Real precond_part =
            precondApplyDot(slice(inv_diag, b, e), xs, ds);
        const Real axpy_part = axpyDot(0.625, xs, ys, xs);
        dot_ref = b == 0 ? dot_part : dot_ref + dot_part;
        precond_ref = b == 0 ? precond_part : precond_ref + precond_part;
        axpy_ref = b == 0 ? axpy_part : axpy_ref + axpy_part;
    }

    Vector y = y0;
    Vector d(x.size());
    const Real dot_got = dot(x, y0);
    const Real precond_got = precondApplyDot(inv_diag, x, d);
    const Real axpy_got = axpyDot(0.625, x, y, x);
    EXPECT_EQ(std::memcmp(&dot_ref, &dot_got, sizeof(Real)), 0);
    EXPECT_EQ(std::memcmp(&precond_ref, &precond_got, sizeof(Real)), 0);
    EXPECT_EQ(std::memcmp(&axpy_ref, &axpy_got, sizeof(Real)), 0);
}

TEST(ThreadedVectorOps, DotBitwiseIdenticalAcrossThreadCounts)
{
    const Index n = 3 * kParallelThreshold + 137;
    const Vector x = bigRandomVector(n, 11);
    const Vector y = bigRandomVector(n, 12);

    Real reference;
    {
        NumThreadsScope scope(1);
        reference = dot(x, y);
    }
    for (Index threads : {2, 4, 8}) {
        NumThreadsScope scope(threads);
        for (int repeat = 0; repeat < 3; ++repeat) {
            const Real value = dot(x, y);
            ASSERT_EQ(std::memcmp(&reference, &value, sizeof(Real)), 0)
                << "threads " << threads << " repeat " << repeat;
        }
    }
}

TEST(ThreadedVectorOps, Norm2AndNormInfBitwiseStable)
{
    const Index n = 2 * kParallelThreshold + 41;
    const Vector x = bigRandomVector(n, 13);
    Real n2_ref, ninf_ref;
    {
        NumThreadsScope scope(1);
        n2_ref = norm2(x);
        ninf_ref = normInf(x);
    }
    for (Index threads : {2, 8}) {
        NumThreadsScope scope(threads);
        const Real n2 = norm2(x);
        const Real ninf = normInf(x);
        EXPECT_EQ(std::memcmp(&n2_ref, &n2, sizeof(Real)), 0);
        EXPECT_EQ(ninf_ref, ninf);
    }
}

TEST(ThreadedVectorOps, ElementwiseKernelsMatchSerialBitwise)
{
    const Index n = 2 * kParallelThreshold + 7;
    const Vector x = bigRandomVector(n, 14);
    const Vector y = bigRandomVector(n, 15);
    Vector lo(x.size(), -0.5), hi(x.size(), 0.5);

    Vector axpby_s, prod_s, clamp_s, axpy_s = y;
    Vector axpby_p, prod_p, clamp_p, axpy_p = y;
    {
        NumThreadsScope scope(1);
        axpby(1.5, x, -0.25, y, axpby_s);
        ewProduct(x, y, prod_s);
        ewClamp(x, lo, hi, clamp_s);
        axpy(0.75, x, axpy_s);
    }
    {
        NumThreadsScope scope(8);
        axpby(1.5, x, -0.25, y, axpby_p);
        ewProduct(x, y, prod_p);
        ewClamp(x, lo, hi, clamp_p);
        axpy(0.75, x, axpy_p);
    }
    EXPECT_EQ(axpby_s, axpby_p);
    EXPECT_EQ(prod_s, prod_p);
    EXPECT_EQ(clamp_s, clamp_p);
    EXPECT_EQ(axpy_s, axpy_p);
}

/**
 * The fused CG kernels must match the composed reference ops bit for
 * bit — the PCG loop's determinism contract rests on it. Sizes cover
 * the plain-serial gate (below kParallelThreshold), the chunked path,
 * and an odd length that leaves a ragged final chunk.
 */
class FusedKernels : public ::testing::TestWithParam<Index>
{
};

INSTANTIATE_TEST_SUITE_P(Sizes, FusedKernels,
                         ::testing::Values(Index{0}, Index{1}, Index{7},
                                           kParallelThreshold - 1,
                                           kParallelThreshold,
                                           2 * kParallelThreshold + 4095,
                                           3 * kParallelThreshold + 137));

TEST_P(FusedKernels, AxpyDotMatchesComposedBitwise)
{
    const Index n = GetParam();
    const Vector x = bigRandomVector(n, 21);
    const Vector z = bigRandomVector(n, 22);
    Vector y_fused = bigRandomVector(n, 23);
    Vector y_ref = y_fused;

    const Real fused = axpyDot(0.375, x, y_fused, z);
    axpy(0.375, x, y_ref);
    const Real ref = dot(y_ref, z);

    EXPECT_EQ(y_fused, y_ref);
    EXPECT_EQ(std::memcmp(&fused, &ref, sizeof(Real)), 0);
}

TEST_P(FusedKernels, AxpyDotAllowsZAliasingY)
{
    const Index n = GetParam();
    const Vector x = bigRandomVector(n, 24);
    Vector y = bigRandomVector(n, 25);
    Vector y_ref = y;

    const Real fused = axpyDot(-1.25, x, y, y);  // returns ||y_new||^2
    axpy(-1.25, x, y_ref);
    const Real ref = dot(y_ref, y_ref);

    EXPECT_EQ(y, y_ref);
    EXPECT_EQ(std::memcmp(&fused, &ref, sizeof(Real)), 0);
}

TEST_P(FusedKernels, XMinusAlphaPDotMatchesComposedBitwise)
{
    const Index n = GetParam();
    const Vector p = bigRandomVector(n, 26);
    const Vector kp = bigRandomVector(n, 27);
    Vector x_fused = bigRandomVector(n, 28);
    Vector r_fused = bigRandomVector(n, 29);
    Vector x_ref = x_fused;
    Vector r_ref = r_fused;

    const Real fused = xMinusAlphaPDot(0.625, p, x_fused, kp, r_fused);
    axpy(0.625, p, x_ref);
    axpy(-0.625, kp, r_ref);
    const Real ref = dot(r_ref, r_ref);

    EXPECT_EQ(x_fused, x_ref);
    EXPECT_EQ(r_fused, r_ref);
    EXPECT_EQ(std::memcmp(&fused, &ref, sizeof(Real)), 0);
}

TEST_P(FusedKernels, PrecondApplyDotMatchesComposedBitwise)
{
    const Index n = GetParam();
    const Vector r = bigRandomVector(n, 30);
    Vector inv_diag = bigRandomVector(n, 31);
    for (Real& v : inv_diag)
        v = 0.5 + std::abs(v);
    Vector d_fused(static_cast<std::size_t>(n), 0.0);
    Vector d_ref;

    const Real fused = precondApplyDot(inv_diag, r, d_fused);
    ewProduct(inv_diag, r, d_ref);
    const Real ref = dot(r, d_ref);

    EXPECT_EQ(d_fused, d_ref);
    EXPECT_EQ(std::memcmp(&fused, &ref, sizeof(Real)), 0);
}

TEST_P(FusedKernels, BitwiseIdenticalAcrossThreadCounts)
{
    const Index n = GetParam();
    const Vector x = bigRandomVector(n, 32);
    const Vector z = bigRandomVector(n, 33);
    const Vector y0 = bigRandomVector(n, 34);

    Vector y_ref = y0;
    Real sum_ref;
    {
        NumThreadsScope scope(1);
        sum_ref = axpyDot(0.875, x, y_ref, z);
    }
    for (Index threads : {2, 4, 8}) {
        NumThreadsScope scope(threads);
        Vector y = y0;
        const Real sum = axpyDot(0.875, x, y, z);
        ASSERT_EQ(y, y_ref) << "threads " << threads;
        ASSERT_EQ(std::memcmp(&sum, &sum_ref, sizeof(Real)), 0)
            << "threads " << threads;
    }
}

TEST(FusedKernelEdgeCases, EmptyVectorsReturnZero)
{
    Vector empty;
    const Vector cempty;
    EXPECT_EQ(axpyDot(2.0, cempty, empty, cempty), 0.0);
    EXPECT_EQ(xMinusAlphaPDot(2.0, cempty, empty, cempty, empty), 0.0);
    EXPECT_EQ(precondApplyDot(cempty, cempty, empty), 0.0);
}

TEST(FusedKernelEdgeCases, NonFiniteInputsPropagate)
{
    // The PCG loop detects breakdowns by testing the returned scalar
    // with std::isfinite; the fused kernels must let NaN/inf through
    // rather than mask them.
    const Real nan = std::numeric_limits<Real>::quiet_NaN();
    const Real inf = std::numeric_limits<Real>::infinity();

    Vector y = {1.0, 2.0, 3.0};
    EXPECT_TRUE(std::isnan(axpyDot(1.0, {0.0, nan, 0.0}, y, y)));

    Vector x = {1.0, 1.0};
    Vector r = {1.0, 1.0};
    EXPECT_TRUE(std::isinf(
        xMinusAlphaPDot(1.0, {0.0, 0.0}, x, {0.0, -inf}, r)));

    Vector d(3, 0.0);
    EXPECT_TRUE(
        std::isnan(precondApplyDot({1.0, 1.0, 1.0}, {nan, 0.0, 1.0}, d)));
}

TEST(FusedKernelEdgeCases, OutputsAreNeverResized)
{
    // The fused kernels write into preallocated workspace; a silent
    // resize would defeat the allocation-free steady state. Matching
    // sizes must work; mismatches abort via RSQP_ASSERT (documented
    // contract, exercised by the death-test API).
    Vector d = {0.0};
    EXPECT_DOUBLE_EQ(precondApplyDot({2.0}, {3.0}, d), 18.0);
    EXPECT_EQ(d.size(), 1u);
    Vector d_wrong(2, 0.0);
    EXPECT_DEATH(precondApplyDot({2.0}, {3.0}, d_wrong),
                 "precondApplyDot");
}

TEST(ThreadedVectorOps, SmallVectorsKeepTheLegacySerialPath)
{
    // Below the threshold a reduction is one range: the plain
    // left-to-right sum is the legacy result at any thread setting.
    const Index n = kParallelThreshold - 1;
    const Vector x = bigRandomVector(n, 16);
    Real expected = 0.0;
    for (Real v : x)
        expected += v * v;
    NumThreadsScope scope(8);
    const Real value = dot(x, x);
    EXPECT_EQ(std::memcmp(&expected, &value, sizeof(Real)), 0);
}

} // namespace
} // namespace rsqp
