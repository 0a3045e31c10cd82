#include "vector_ops.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.hpp"
#include "common/profile.hpp"
#include "common/thread_pool.hpp"  // kParallelGrain, kParallelThreshold
#include "linalg/simd_kernels.hpp"

namespace rsqp
{

namespace
{

inline void
checkSameSize(const Vector& x, const Vector& y, const char* what)
{
    RSQP_ASSERT(x.size() == y.size(), what, ": size mismatch ", x.size(),
                " vs ", y.size());
}

/** Should this reduction use the fixed-grain chunked path? */
inline bool
chunkedReduction(std::size_t n)
{
    return n >= static_cast<std::size_t>(kParallelThreshold);
}

/**
 * Fixed-grain chunked sum shared by dot() and the fused kernels:
 * partial(b, e) runs once per kParallelGrain chunk and the partials
 * combine in ascending chunk order, the accumulator seeded from the
 * first chunk. The order is a function of the length alone, so the
 * bitwise result is too. A plain serial loop with no heap allocation;
 * the steady-state PCG loop depends on that.
 */
template <typename Partial>
Real
chunkedSum(Index n, Partial&& partial)
{
    if (n <= 0)
        return 0.0;
    Real total = partial(0, std::min(n, kParallelGrain));
    for (Index b = kParallelGrain; b < n; b += kParallelGrain)
        total += partial(b, std::min(n, b + kParallelGrain));
    return total;
}

} // namespace

void
axpby(Real alpha, const Vector& x, Real beta, const Vector& y, Vector& out)
{
    checkSameSize(x, y, "axpby");
    out.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        out[i] = alpha * x[i] + beta * y[i];
}

void
axpy(Real alpha, const Vector& x, Vector& y)
{
    checkSameSize(x, y, "axpy");
    for (std::size_t i = 0; i < x.size(); ++i)
        y[i] += alpha * x[i];
}

void
scale(Vector& x, Real alpha)
{
    for (Real& v : x)
        v *= alpha;
}

Real
dot(const Vector& x, const Vector& y)
{
    checkSameSize(x, y, "dot");
    ProfileScope profile(ProfilePhase::Reduction);
    const simd::VectorKernels& k = simd::activeKernels();
    if (chunkedReduction(x.size())) {
        return chunkedSum(static_cast<Index>(x.size()),
                          [&](Index b, Index e) {
                              return k.dotRange(x.data() + b,
                                                y.data() + b, e - b);
                          });
    }
    return k.dotRange(x.data(), y.data(), static_cast<Index>(x.size()));
}

Real
axpyDot(Real alpha, const Vector& x, Vector& y, const Vector& z)
{
    checkSameSize(x, y, "axpyDot");
    checkSameSize(y, z, "axpyDot");
    ProfileScope profile(ProfilePhase::FusedVectorOps);
    const simd::VectorKernels& k = simd::activeKernels();
    if (chunkedReduction(x.size())) {
        // Each chunk updates its own slice of y before reducing over
        // it, so the partials see exactly the values the composed
        // axpy + dot pair would.
        return chunkedSum(static_cast<Index>(x.size()),
                          [&](Index b, Index e) {
                              return k.axpyDotRange(alpha, x.data() + b,
                                                    y.data() + b,
                                                    z.data() + b, e - b);
                          });
    }
    return k.axpyDotRange(alpha, x.data(), y.data(), z.data(),
                          static_cast<Index>(x.size()));
}

Real
xMinusAlphaPDot(Real alpha, const Vector& p, Vector& x, const Vector& kp,
                Vector& r)
{
    checkSameSize(p, x, "xMinusAlphaPDot");
    checkSameSize(p, kp, "xMinusAlphaPDot");
    checkSameSize(p, r, "xMinusAlphaPDot");
    ProfileScope profile(ProfilePhase::FusedVectorOps);
    const simd::VectorKernels& k = simd::activeKernels();
    if (chunkedReduction(p.size())) {
        return chunkedSum(static_cast<Index>(p.size()),
                          [&](Index b, Index e) {
                              return k.xMinusAlphaPDotRange(
                                  alpha, p.data() + b, x.data() + b,
                                  kp.data() + b, r.data() + b, e - b);
                          });
    }
    return k.xMinusAlphaPDotRange(alpha, p.data(), x.data(), kp.data(),
                                  r.data(), static_cast<Index>(p.size()));
}

Real
precondApplyDot(const Vector& inv_diag, const Vector& r, Vector& d)
{
    checkSameSize(inv_diag, r, "precondApplyDot");
    checkSameSize(r, d, "precondApplyDot");
    ProfileScope profile(ProfilePhase::Precond);
    const simd::VectorKernels& k = simd::activeKernels();
    if (chunkedReduction(r.size())) {
        return chunkedSum(static_cast<Index>(r.size()),
                          [&](Index b, Index e) {
                              return k.precondApplyDotRange(
                                  inv_diag.data() + b, r.data() + b,
                                  d.data() + b, e - b);
                          });
    }
    return k.precondApplyDotRange(inv_diag.data(), r.data(), d.data(),
                                  static_cast<Index>(r.size()));
}

Real
norm2(const Vector& x)
{
    return std::sqrt(dot(x, x));
}

Real
normInf(const Vector& x)
{
    // A max of non-NaN values is exact in any grouping (the kernel
    // drops NaN elements), so one range matches any chunking.
    return simd::activeKernels().normInfRange(
        x.data(), static_cast<Index>(x.size()));
}

Real
normInfDiff(const Vector& x, const Vector& y)
{
    checkSameSize(x, y, "normInfDiff");
    return simd::activeKernels().normInfDiffRange(
        x.data(), y.data(), static_cast<Index>(x.size()));
}

void
ewProduct(const Vector& x, const Vector& y, Vector& out)
{
    checkSameSize(x, y, "ewProduct");
    out.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        out[i] = x[i] * y[i];
}

void
ewReciprocal(const Vector& x, Vector& out)
{
    out.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        RSQP_ASSERT(x[i] != 0.0, "ewReciprocal: zero element at ", i);
        out[i] = 1.0 / x[i];
    }
}

void
ewMin(const Vector& x, const Vector& y, Vector& out)
{
    checkSameSize(x, y, "ewMin");
    out.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        out[i] = std::min(x[i], y[i]);
}

void
ewMax(const Vector& x, const Vector& y, Vector& out)
{
    checkSameSize(x, y, "ewMax");
    out.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        out[i] = std::max(x[i], y[i]);
}

void
ewClamp(const Vector& x, const Vector& lo, const Vector& hi, Vector& out)
{
    checkSameSize(x, lo, "ewClamp");
    checkSameSize(x, hi, "ewClamp");
    out.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i)
        out[i] = clampReal(x[i], lo[i], hi[i]);
}

void
ewSqrt(const Vector& x, Vector& out)
{
    out.resize(x.size());
    for (std::size_t i = 0; i < x.size(); ++i) {
        RSQP_ASSERT(x[i] >= 0.0, "ewSqrt: negative element at ", i);
        out[i] = std::sqrt(x[i]);
    }
}

bool
allFinite(const Vector& x)
{
    return !hasNonFinite(x);
}

bool
hasNonFinite(const Vector& x)
{
    return simd::activeKernels().hasNonFiniteRange(
        x.data(), static_cast<Index>(x.size()));
}

Real
normInfChecked(const Vector& x)
{
    if (hasNonFinite(x))
        return std::numeric_limits<Real>::quiet_NaN();
    return normInf(x);
}

Vector
constantVector(Index n, Real value)
{
    return Vector(static_cast<std::size_t>(n), value);
}

} // namespace rsqp
