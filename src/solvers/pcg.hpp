/**
 * @file
 * Preconditioned Conjugate Gradient — Algorithm 2 of the paper.
 *
 * The operator K is applied matrix-free; the preconditioner is the
 * Jacobi (diagonal) preconditioner diag(K), the choice used by both
 * cuOSQP and RSQP. The loop structure matches the paper line by line so
 * the architecture program lowering (src/arch/program_builder) can be
 * validated against this reference.
 *
 * The settings below are the whole tuning surface. Two behaviours are
 * fixed rather than configurable: a solve that makes no residual
 * progress for 250 iterations reports PcgBreakdown::Stagnation, and
 * the IndirectKktSolver always records the per-phase hot-path counters
 * (SpMV passes, fused kernels, reductions) surfaced through
 * KktSolveStats/OsqpInfo.
 */

#ifndef RSQP_SOLVERS_PCG_HPP
#define RSQP_SOLVERS_PCG_HPP

#include <functional>

#include "common/types.hpp"
#include "linalg/kkt.hpp"

namespace rsqp
{

/** Configuration of a PCG solve. */
struct PcgSettings
{
    /**
     * Relative residual tolerance: stop when ||r|| < eps * ||b||.
     * The floor must sit well below the ADMM termination tolerance or
     * the inexact subproblem solves stall the outer iteration (1e-9
     * supports eps_abs/eps_rel down to ~1e-6).
     */
    Real epsRel = 1e-9;
    /** Absolute floor so a zero rhs terminates immediately. */
    Real epsAbs = 1e-12;
    /** Hard iteration cap. */
    Index maxIter = 5000;

    /**
     * Adaptive tolerance schedule (cuOSQP-style): early ADMM iterations
     * tolerate loose PCG solves. Solve k uses
     *   epsRel_k = max(epsRel, epsRelStart * epsRelDecay^k).
     */
    bool adaptiveTolerance = true;
    Real epsRelStart = 1e-2;
    Real epsRelDecay = 0.85;

    /** Effective relative tolerance for the k-th consecutive solve. */
    Real
    effectiveEpsRel(Count solve_index) const
    {
        if (!adaptiveTolerance)
            return epsRel;
        Real eps = epsRelStart;
        for (Count i = 0; i < solve_index && eps > epsRel; ++i)
            eps *= epsRelDecay;
        return eps > epsRel ? eps : epsRel;
    }

    /**
     * Let IndirectKktSolver answer a broken-down PCG solve with the
     * DirectKktSolver LDL' path for that step (the PCG warm start is
     * then re-seeded from the direct solution). A clean maxIter
     * cap-out never triggers the fallback — only a breakdown does.
     */
    bool directFallback = true;
};

/** Why a PCG solve gave up before converging. */
enum class PcgBreakdown
{
    None,                ///< converged, or a clean maxIter cap-out
    IndefiniteDirection, ///< p'Kp <= 0 or non-finite curvature
    NonFiniteResidual,   ///< NaN/Inf contaminated the recurrence
    Stagnation,          ///< no residual progress for 250 iterations
};

/** Printable breakdown name. */
const char* toString(PcgBreakdown breakdown);

/** Outcome of a PCG solve. */
struct PcgResult
{
    Index iterations = 0;     ///< PCG iterations executed
    Real residualNorm = 0.0;  ///< final ||K x - b||_2
    bool converged = false;
    PcgBreakdown breakdown = PcgBreakdown::None;
};

/**
 * Diagonal (Jacobi) preconditioner: d -> r / diag(K).
 */
class JacobiPreconditioner
{
  public:
    /** Build from the operator diagonal; all entries must be positive. */
    explicit JacobiPreconditioner(const Vector& diagonal);

    /**
     * Rebuild in place from a new diagonal of the same length,
     * reusing the inverse-diagonal storage (no allocation). All
     * entries must be positive.
     */
    void rebuild(const Vector& diagonal);

    /**
     * out = M^-1 r (element-wise divide). out must already have the
     * preconditioner's size — callers own the storage (see
     * PcgWorkspace); this hot-path kernel never resizes.
     */
    void apply(const Vector& r, Vector& out) const;

    const Vector& inverseDiagonal() const { return invDiag_; }

  private:
    Vector invDiag_;
};

/**
 * Persistent work vectors of a PCG solve. Owned by the caller (one per
 * IndirectKktSolver) so the steady-state CG loop performs zero heap
 * allocations: resize() is a no-op once the problem size is fixed.
 */
struct PcgWorkspace
{
    Vector r;   ///< residual b - K x
    Vector d;   ///< preconditioned residual M^-1 r
    Vector p;   ///< search direction
    Vector kp;  ///< operator image K p

    /** Size every vector for an n-dimensional solve. */
    void
    resize(std::size_t n)
    {
        r.resize(n);
        d.resize(n);
        p.resize(n);
        kp.resize(n);
    }
};

/**
 * Run PCG on K x = b starting from x (warm start), overwriting x with
 * the solution. The workspace overloads reuse the caller's vectors;
 * the workspace-free overloads allocate a transient one per call.
 */
PcgResult pcgSolve(const ReducedKktOperator& op,
                   const JacobiPreconditioner& precond, const Vector& b,
                   Vector& x, const PcgSettings& settings,
                   PcgWorkspace& workspace);

PcgResult pcgSolve(const ReducedKktOperator& op,
                   const JacobiPreconditioner& precond, const Vector& b,
                   Vector& x, const PcgSettings& settings);

/**
 * Generic-operator overload used by the GPU model and tests: apply_k
 * computes y = K x.
 */
PcgResult pcgSolve(
    const std::function<void(const Vector&, Vector&)>& apply_k,
    const JacobiPreconditioner& precond, const Vector& b, Vector& x,
    const PcgSettings& settings, PcgWorkspace& workspace);

PcgResult pcgSolve(
    const std::function<void(const Vector&, Vector&)>& apply_k,
    const JacobiPreconditioner& precond, const Vector& b, Vector& x,
    const PcgSettings& settings);

} // namespace rsqp

#endif // RSQP_SOLVERS_PCG_HPP
