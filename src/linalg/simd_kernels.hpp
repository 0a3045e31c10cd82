/**
 * @file
 * Runtime-dispatched SIMD kernel table for the PCG hot path.
 *
 * Three implementations of every range kernel ship in the binary —
 * portable scalar, AVX2 and AVX-512 — compiled in separate translation
 * units with matching target flags and selected once at startup from
 * the CPU features (arch/cpu_features.hpp). All three compute the
 * **identical canonical arithmetic**: 8-lane-striped accumulation
 * (lane j sums elements j, j+8, j+16, ...), a fixed pairwise-halving
 * combine tree, in-order scalar tails for the final n % 8 elements,
 * and no FMA contraction anywhere (-ffp-contract=off on every kernel
 * TU). Results are therefore bitwise-identical across ISA levels —
 * the dispatch decision can never change an iterate. The contract the
 * rest of the solver documents remains the weaker one (bitwise per ISA
 * level, tolerance across levels) so a future ISA whose lane
 * arithmetic cannot match — e.g. an FMA datapath — does not break the
 * API promise.
 *
 * Dispatch: activeKernels() resolves the table once (highest level
 * supported by both the CPU and the build, narrowed by the
 * RSQP_FORCE_ISA=scalar|avx2|avx512 environment variable) and caches
 * it in an atomic; the hot path pays one relaxed atomic load per
 * kernel batch and zero allocations. Tests and benchmarks can switch
 * levels in-process with forceIsaLevel().
 */

#ifndef RSQP_LINALG_SIMD_KERNELS_HPP
#define RSQP_LINALG_SIMD_KERNELS_HPP

#include "arch/cpu_features.hpp"
#include "common/types.hpp"

namespace rsqp::simd
{

/**
 * Function table of the vectorized range kernels. Raw-pointer + length
 * signatures so the chunked reduction driver can hand each fixed-grain
 * chunk straight to the active ISA without a virtual call.
 *
 * The entries mirror the fused kernels of linalg/vector_ops.
 */
struct VectorKernels
{
    IsaLevel level = IsaLevel::Scalar;
    const char* name = "scalar";

    /** sum x[i] * y[i]. */
    Real (*dotRange)(const Real* x, const Real* y, Index n);
    /** y += alpha x; returns sum y[i] * z[i] (z may alias y). */
    Real (*axpyDotRange)(Real alpha, const Real* x, Real* y,
                         const Real* z, Index n);
    /** x += alpha p, r -= alpha kp; returns sum r[i]^2. */
    Real (*xMinusAlphaPDotRange)(Real alpha, const Real* p, Real* x,
                                 const Real* kp, Real* r, Index n);
    /** d = inv_diag .* r; returns sum r[i] * d[i]. */
    Real (*precondApplyDotRange)(const Real* inv_diag, const Real* r,
                                 Real* d, Index n);
    /** max |x[i]| with the NaN-dropping max semantics of std::max. */
    Real (*normInfRange)(const Real* x, Index n);
    /** max |x[i] - y[i]|, same NaN semantics. */
    Real (*normInfDiffRange)(const Real* x, const Real* y, Index n);
    /** Any NaN/Inf element? */
    bool (*hasNonFiniteRange)(const Real* x, Index n);
    /** sum vals[p] * x[cols[p]] — one CSR row of a gather SpMV. */
    Real (*csrRowGather)(const Real* vals, const Index* cols, Index nnz,
                         const Real* x);
};

/**
 * Kernel table for one ISA level. Requesting a level above what the
 * CPU or the build supports returns the highest available table
 * instead (callers iterate supportedIsaLevels() to avoid the clamp).
 */
const VectorKernels& kernelsFor(IsaLevel level);

/**
 * The table the hot path dispatches through. First call resolves
 * min(detected, compiled) narrowed by RSQP_FORCE_ISA and publishes the
 * rsqp_build_isa_level telemetry gauge; later calls are one atomic
 * load.
 */
const VectorKernels& activeKernels();

/** ISA level of activeKernels(). */
IsaLevel activeIsaLevel();

/**
 * Narrow (or restore) the active table in-process — the programmatic
 * twin of RSQP_FORCE_ISA for tests and benchmarks. The request is
 * clamped to the supported maximum; returns the level actually
 * installed. Not thread-safe against concurrent solves: switch levels
 * only between solves, as a test harness does.
 */
IsaLevel forceIsaLevel(IsaLevel level);

/** Drop any forceIsaLevel() override and re-apply env + detection. */
void resetIsaLevel();

} // namespace rsqp::simd

#endif // RSQP_LINALG_SIMD_KERNELS_HPP
