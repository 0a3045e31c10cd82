/**
 * @file
 * Property tests of the runtime-dispatched SIMD kernel tables.
 *
 * The central claim under test: every ISA level (scalar, AVX2,
 * AVX-512 — whichever this machine supports) computes **bitwise
 * identical** results for every kernel, on every shape — empty
 * ranges, single elements, non-multiple-of-8 tails, unaligned slices
 * and NaN/Inf payloads included. The scalar table is the reference;
 * the vectorized tables must reproduce it bit for bit because all
 * three implement the same canonical 8-lane striped arithmetic.
 *
 * A second battery checks at each forced ISA level that the
 * high-level vector_ops reductions, the fused CG kernels and the
 * reduced-KKT apply return the same bits under any ambient thread
 * count: a single solve never fans out.
 */

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"
#include "linalg/kkt.hpp"
#include "linalg/simd_kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "problems/suite.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

using test::randomVector;

/** Bit pattern of a double (EXPECT_EQ on NaN always fails). */
std::uint64_t
bits(Real x)
{
    std::uint64_t u;
    std::memcpy(&u, &x, sizeof(u));
    return u;
}

void
expectBitwiseEqual(const Vector& a, const Vector& b, const char* what)
{
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i)
        ASSERT_EQ(bits(a[i]), bits(b[i]))
            << what << " differs at " << i << ": " << a[i] << " vs "
            << b[i];
}

/** Awkward shapes: empty, sub-width, exact widths, tails, chunked. */
const std::vector<Index> kShapes = {0,  1,  3,   7,   8,    9,   15,  16,
                                    17, 63, 64, 100, 255, 8191, 8192, 8193};

/** Shapes small enough to also sweep unaligned offsets 1..7. */
const std::vector<Index> kOffsetShapes = {0, 1, 5, 8, 13, 16, 33, 100};

class SimdKernelLevels : public ::testing::Test
{
  protected:
    void SetUp() override { levels_ = supportedIsaLevels(); }
    void TearDown() override { simd::resetIsaLevel(); }

    std::vector<IsaLevel> levels_;
};

TEST_F(SimdKernelLevels, SupportedLevelsIncludeScalar)
{
    ASSERT_FALSE(levels_.empty());
    EXPECT_EQ(levels_.front(), IsaLevel::Scalar);
    for (std::size_t i = 1; i < levels_.size(); ++i)
        EXPECT_LT(static_cast<int>(levels_[i - 1]),
                  static_cast<int>(levels_[i]));
}

TEST_F(SimdKernelLevels, KernelTableReportsItsLevel)
{
    for (IsaLevel level : levels_) {
        const simd::VectorKernels& k = simd::kernelsFor(level);
        EXPECT_EQ(k.level, level);
        EXPECT_STREQ(k.name, isaLevelName(level));
    }
}

TEST_F(SimdKernelLevels, DotBitwiseMatchesScalarOnAllShapesAndOffsets)
{
    const simd::VectorKernels& ref = simd::kernelsFor(IsaLevel::Scalar);
    Rng rng(101);
    for (Index n : kShapes) {
        const Vector x = randomVector(n + 8, rng);
        const Vector y = randomVector(n + 8, rng);
        for (IsaLevel level : levels_) {
            const simd::VectorKernels& k = simd::kernelsFor(level);
            ASSERT_EQ(bits(k.dotRange(x.data(), y.data(), n)),
                      bits(ref.dotRange(x.data(), y.data(), n)))
                << isaLevelName(level) << " n=" << n;
        }
    }
    for (Index n : kOffsetShapes) {
        const Vector x = randomVector(n + 16, rng);
        const Vector y = randomVector(n + 16, rng);
        for (Index off = 1; off < 8; ++off)
            for (IsaLevel level : levels_) {
                const simd::VectorKernels& k = simd::kernelsFor(level);
                ASSERT_EQ(
                    bits(k.dotRange(x.data() + off, y.data() + off, n)),
                    bits(ref.dotRange(x.data() + off, y.data() + off, n)))
                    << isaLevelName(level) << " n=" << n << " off=" << off;
            }
    }
}

TEST_F(SimdKernelLevels, DotMatchesNaiveSerialToRounding)
{
    // Sanity anchor: the canonical striped order is a permutation of
    // the naive sum, so the value agrees to rounding.
    Rng rng(103);
    for (Index n : kShapes) {
        const Vector x = randomVector(n, rng);
        const Vector y = randomVector(n, rng);
        Real naive = 0.0;
        for (Index i = 0; i < n; ++i)
            naive += x[static_cast<std::size_t>(i)] *
                y[static_cast<std::size_t>(i)];
        const Real striped = simd::kernelsFor(IsaLevel::Scalar)
                                 .dotRange(x.data(), y.data(), n);
        EXPECT_NEAR(striped, naive,
                    1e-12 * (1.0 + std::abs(naive)) *
                        std::max<Real>(1, n))
            << "n=" << n;
    }
}

TEST_F(SimdKernelLevels, AxpyDotBitwiseMatchesScalarIncludingAliasing)
{
    const simd::VectorKernels& ref = simd::kernelsFor(IsaLevel::Scalar);
    Rng rng(107);
    for (Index n : kShapes) {
        const Vector x = randomVector(n, rng);
        const Vector y0 = randomVector(n, rng);
        const Vector z = randomVector(n, rng);
        for (IsaLevel level : levels_) {
            const simd::VectorKernels& k = simd::kernelsFor(level);
            Vector y_ref = y0, y_k = y0;
            const Real s_ref =
                ref.axpyDotRange(0.37, x.data(), y_ref.data(), z.data(), n);
            const Real s_k =
                k.axpyDotRange(0.37, x.data(), y_k.data(), z.data(), n);
            ASSERT_EQ(bits(s_k), bits(s_ref))
                << isaLevelName(level) << " n=" << n;
            expectBitwiseEqual(y_k, y_ref, "axpyDot y");

            // z aliasing y: the dot must read the updated y.
            Vector ya_ref = y0, ya_k = y0;
            const Real a_ref = ref.axpyDotRange(-1.25, x.data(),
                                                ya_ref.data(),
                                                ya_ref.data(), n);
            const Real a_k = k.axpyDotRange(-1.25, x.data(), ya_k.data(),
                                            ya_k.data(), n);
            ASSERT_EQ(bits(a_k), bits(a_ref))
                << isaLevelName(level) << " aliased n=" << n;
            expectBitwiseEqual(ya_k, ya_ref, "axpyDot aliased y");
        }
    }
}

TEST_F(SimdKernelLevels, XMinusAlphaPDotBitwiseMatchesScalar)
{
    const simd::VectorKernels& ref = simd::kernelsFor(IsaLevel::Scalar);
    Rng rng(109);
    for (Index n : kShapes) {
        const Vector p = randomVector(n, rng);
        const Vector kp = randomVector(n, rng);
        const Vector x0 = randomVector(n, rng);
        const Vector r0 = randomVector(n, rng);
        for (IsaLevel level : levels_) {
            const simd::VectorKernels& k = simd::kernelsFor(level);
            Vector x_ref = x0, r_ref = r0, x_k = x0, r_k = r0;
            const Real s_ref = ref.xMinusAlphaPDotRange(
                0.81, p.data(), x_ref.data(), kp.data(), r_ref.data(), n);
            const Real s_k = k.xMinusAlphaPDotRange(
                0.81, p.data(), x_k.data(), kp.data(), r_k.data(), n);
            ASSERT_EQ(bits(s_k), bits(s_ref))
                << isaLevelName(level) << " n=" << n;
            expectBitwiseEqual(x_k, x_ref, "xMinusAlphaPDot x");
            expectBitwiseEqual(r_k, r_ref, "xMinusAlphaPDot r");
        }
    }
}

TEST_F(SimdKernelLevels, PrecondApplyDotBitwiseMatchesScalar)
{
    const simd::VectorKernels& ref = simd::kernelsFor(IsaLevel::Scalar);
    Rng rng(113);
    for (Index n : kShapes) {
        Vector inv_diag = randomVector(n, rng);
        for (Real& v : inv_diag)
            v = 0.1 + std::abs(v);
        const Vector r = randomVector(n, rng);
        for (IsaLevel level : levels_) {
            const simd::VectorKernels& k = simd::kernelsFor(level);
            Vector d_ref(static_cast<std::size_t>(n), 0.0);
            Vector d_k(static_cast<std::size_t>(n), 0.0);
            const Real s_ref = ref.precondApplyDotRange(
                inv_diag.data(), r.data(), d_ref.data(), n);
            const Real s_k = k.precondApplyDotRange(inv_diag.data(),
                                                    r.data(), d_k.data(),
                                                    n);
            ASSERT_EQ(bits(s_k), bits(s_ref))
                << isaLevelName(level) << " n=" << n;
            expectBitwiseEqual(d_k, d_ref, "precondApplyDot d");
        }
    }
}

TEST_F(SimdKernelLevels, NormInfBitwiseMatchesScalar)
{
    const simd::VectorKernels& ref = simd::kernelsFor(IsaLevel::Scalar);
    Rng rng(127);
    for (Index n : kShapes) {
        Vector x = randomVector(n, rng);
        if (n > 3)
            x[static_cast<std::size_t>(n / 2)] = -0.0;
        const Vector y = randomVector(n, rng);
        for (IsaLevel level : levels_) {
            const simd::VectorKernels& k = simd::kernelsFor(level);
            ASSERT_EQ(bits(k.normInfRange(x.data(), n)),
                      bits(ref.normInfRange(x.data(), n)))
                << isaLevelName(level) << " n=" << n;
            ASSERT_EQ(bits(k.normInfDiffRange(x.data(), y.data(), n)),
                      bits(ref.normInfDiffRange(x.data(), y.data(), n)))
                << isaLevelName(level) << " n=" << n;
        }
    }
}

TEST_F(SimdKernelLevels, NormInfDropsNaNLikeStdMaxAtEveryLevel)
{
    // The scalar reference uses v > best ? v : best, which drops NaN.
    // The SIMD max must reproduce that — operand order matters for
    // vmaxpd — at every lane position and in the tail.
    const Real nan = std::numeric_limits<Real>::quiet_NaN();
    const simd::VectorKernels& ref = simd::kernelsFor(IsaLevel::Scalar);
    for (Index n : {9, 16, 17, 100}) {
        for (Index pos = 0; pos < n; ++pos) {
            Vector x(static_cast<std::size_t>(n), 0.5);
            x[static_cast<std::size_t>(pos)] = nan;
            for (IsaLevel level : levels_) {
                const simd::VectorKernels& k = simd::kernelsFor(level);
                ASSERT_EQ(bits(k.normInfRange(x.data(), n)),
                          bits(ref.normInfRange(x.data(), n)))
                    << isaLevelName(level) << " n=" << n
                    << " pos=" << pos;
            }
        }
    }
}

TEST_F(SimdKernelLevels, HasNonFiniteFindsPayloadAtEveryPosition)
{
    const Real nan = std::numeric_limits<Real>::quiet_NaN();
    const Real inf = std::numeric_limits<Real>::infinity();
    for (Index n : {1, 7, 8, 9, 16, 17, 64, 100}) {
        for (IsaLevel level : levels_) {
            const simd::VectorKernels& k = simd::kernelsFor(level);
            Vector clean(static_cast<std::size_t>(n), 1.0);
            EXPECT_FALSE(k.hasNonFiniteRange(clean.data(), n))
                << isaLevelName(level) << " clean n=" << n;
            for (Index pos = 0; pos < n; ++pos) {
                for (Real payload : {nan, inf, -inf}) {
                    Vector x = clean;
                    x[static_cast<std::size_t>(pos)] = payload;
                    EXPECT_TRUE(k.hasNonFiniteRange(x.data(), n))
                        << isaLevelName(level) << " n=" << n
                        << " pos=" << pos;
                }
            }
        }
    }
    for (IsaLevel level : levels_)
        EXPECT_FALSE(
            simd::kernelsFor(level).hasNonFiniteRange(nullptr, 0));
}

TEST_F(SimdKernelLevels, CsrRowGatherBitwiseMatchesScalar)
{
    const simd::VectorKernels& ref = simd::kernelsFor(IsaLevel::Scalar);
    Rng rng(131);
    const Index x_len = 200;
    const Vector x = randomVector(x_len, rng);
    std::vector<Index> all_nnz = {0, 1, 2, 5, 7, 8, 9, 15, 16, 20, 64, 151};
    for (Index nnz : all_nnz) {
        Vector vals = randomVector(nnz, rng);
        std::vector<Index> cols(static_cast<std::size_t>(nnz));
        for (Index p = 0; p < nnz; ++p)
            cols[static_cast<std::size_t>(p)] = rng.uniformIndex(x_len);
        for (IsaLevel level : levels_) {
            const simd::VectorKernels& k = simd::kernelsFor(level);
            ASSERT_EQ(bits(k.csrRowGather(vals.data(), cols.data(), nnz,
                                          x.data())),
                      bits(ref.csrRowGather(vals.data(), cols.data(), nnz,
                                            x.data())))
                << isaLevelName(level) << " nnz=" << nnz;
        }
        // Value sanity against the naive serial gather.
        Real naive = 0.0;
        for (Index p = 0; p < nnz; ++p)
            naive += vals[static_cast<std::size_t>(p)] *
                x[static_cast<std::size_t>(
                    cols[static_cast<std::size_t>(p)])];
        EXPECT_NEAR(ref.csrRowGather(vals.data(), cols.data(), nnz,
                                     x.data()),
                    naive, 1e-12 * (1.0 + std::abs(naive)))
            << "nnz=" << nnz;
    }
}

TEST_F(SimdKernelLevels, ForceIsaLevelSwitchesAndRestores)
{
    for (IsaLevel level : levels_) {
        const IsaLevel installed = simd::forceIsaLevel(level);
        EXPECT_EQ(installed, level);
        EXPECT_EQ(simd::activeIsaLevel(), level);
        EXPECT_EQ(simd::activeKernels().level, level);
    }
    // Requests above the supported maximum clamp instead of failing.
    const IsaLevel clamped = simd::forceIsaLevel(IsaLevel::Avx512);
    EXPECT_EQ(clamped, levels_.back());

    // resetIsaLevel re-applies detection *and* any RSQP_FORCE_ISA
    // narrowing from the environment (the CI scalar leg sets it).
    IsaLevel expected = levels_.back();
    if (const char* forced = std::getenv("RSQP_FORCE_ISA")) {
        IsaLevel env_level = IsaLevel::Scalar;
        if (parseIsaLevel(forced, env_level))
            expected = std::min(env_level, expected);
    }
    simd::resetIsaLevel();
    EXPECT_EQ(simd::activeIsaLevel(), expected);
}

TEST_F(SimdKernelLevels, VectorOpsBitwiseInvariantAcrossIsaLevels)
{
    // End to end through the public vector_ops API (chunked reductions
    // included): the dispatch decision must never change a result bit.
    Rng rng(149);
    const Index n = 20000;  // above the chunking threshold
    const Vector x = randomVector(n, rng);
    const Vector y = randomVector(n, rng);

    std::vector<std::uint64_t> reference;
    for (IsaLevel level : levels_) {
        simd::forceIsaLevel(level);
        Vector x2 = x;
        Vector r2 = y;
        std::vector<std::uint64_t> got;
        got.push_back(bits(dot(x, y)));
        got.push_back(bits(normInf(x)));
        got.push_back(bits(normInfDiff(x, y)));
        got.push_back(bits(xMinusAlphaPDot(0.3, y, x2, y, r2)));
        got.push_back(bits(norm2(r2)));
        if (reference.empty())
            reference = got;
        else
            ASSERT_EQ(got, reference) << isaLevelName(level);
    }
}

TEST_F(SimdKernelLevels, VectorOpsBitwiseInvariantAcrossThreadCounts)
{
    // The kernel-level thread-axis guard: dot, the fused CG kernels
    // and the reduced-KKT apply must return the same bits under 1/2/4/8
    // ambient threads, re-pinned at every dispatched ISA level (a
    // single solve never fans out). Lengths 7 and kParallelThreshold-1
    // take the single-range path, 50000 the chunked reduction path with
    // a ragged last chunk; the lasso operator has n = 8400, above
    // kParallelThreshold.
    Rng rng(151);
    const QpProblem qp = generateProblem(Domain::Lasso, 1200, 78);
    const Vector rho(static_cast<std::size_t>(qp.numConstraints()), 0.4);
    const ReducedKktOperator op(qp.pUpper, qp.a, 1e-6, rho);
    const Vector kkt_in = randomVector(qp.numVariables(), rng);

    for (Index n : {Index{7}, kParallelThreshold - 1, Index{50000}}) {
        const Vector x = randomVector(n, rng);
        const Vector y = randomVector(n, rng);
        Vector inv_diag = randomVector(n, rng);
        for (Real& v : inv_diag)
            v = 0.5 + std::abs(v);
        for (IsaLevel level : levels_) {
            simd::forceIsaLevel(level);
            std::vector<std::uint64_t> reference;
            std::vector<Vector> reference_out;
            for (Index threads : {1, 2, 4, 8}) {
                NumThreadsScope scope(threads);
                Vector x2 = x;
                Vector r2 = y;
                Vector d(x.size());
                Vector kkt_out;
                std::vector<std::uint64_t> got;
                got.push_back(bits(dot(x, y)));
                got.push_back(bits(normInf(x)));
                got.push_back(bits(axpyDot(0.7, x, x2, y)));
                got.push_back(bits(xMinusAlphaPDot(0.3, y, x2, y, r2)));
                got.push_back(bits(precondApplyDot(inv_diag, r2, d)));
                got.push_back(bits(normInfChecked(r2)));
                op.apply(kkt_in, kkt_out);
                std::vector<Vector> out = {x2, r2, d, kkt_out};
                if (reference.empty()) {
                    reference = got;
                    reference_out = std::move(out);
                    continue;
                }
                ASSERT_EQ(got, reference) << isaLevelName(level) << " n="
                                          << n << " threads=" << threads;
                for (std::size_t i = 0; i < out.size(); ++i)
                    expectBitwiseEqual(out[i], reference_out[i],
                                       isaLevelName(level));
            }
        }
    }
}

TEST_F(SimdKernelLevels, HasNonFiniteChunkedAgreesAcrossLevels)
{
    const Index n = 30000;
    Vector x(static_cast<std::size_t>(n), 1.0);
    x[static_cast<std::size_t>(n - 3)] =
        std::numeric_limits<Real>::quiet_NaN();
    for (IsaLevel level : levels_) {
        simd::forceIsaLevel(level);
        EXPECT_TRUE(hasNonFinite(x)) << isaLevelName(level);
        EXPECT_TRUE(std::isnan(normInfChecked(x))) << isaLevelName(level);
    }
}

} // namespace
} // namespace rsqp
