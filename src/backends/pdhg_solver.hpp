/**
 * @file
 * Restarted PDHG/PDQP engine — the first-order alternative to the
 * ADMM loop, in the style of PDLP / "A Practical and Optimal
 * First-Order Method for Large-Scale Convex Quadratic Programming"
 * (arXiv 2311.07710).
 *
 * The method iterates on the saddle problem
 *
 *   min_x max_y  (1/2) x'Px + q'x + y'Ax - g*(y),    g = I_[l,u]
 *
 * with the Condat–Vũ primal-dual step (valid for quadratic f):
 *
 *   x+ = x - tau (P x + q + A' y)
 *   xb = 2 x+ - x
 *   y+ = sigma (w - Pi_[l,u](w)),   w = y/sigma + A xb
 *
 * under the step-size condition tau (lam_P/2 + sigma ||A||^2) <= 1,
 * with ||A|| and lam_P = lambda_max(P) bounded by power iteration at
 * setup. A primal weight omega balances the two step sizes
 * (sigma = omega/||A||) and is adapted at restart points from the
 * observed primal/dual displacement ratio. Adaptive restarts to the
 * running average (on sufficient merit decay, or at a fixed ceiling)
 * recover the linear convergence plain PDHG lacks on QPs.
 *
 * Everything runs serially on the shared deterministic kernels:
 * CSR-mirror SpMV (SIMD row-gather), fixed-grain chunked reductions
 * and plain element-update loops — results are bitwise-identical at
 * every ISA level. The loop runs inside the SolveShell it shares with
 * the ADMM engine (osqp/recovery.hpp): termination checks,
 * infeasibility certificates (on consecutive-check deltas here),
 * watchdog recovery (a step-size backoff here) and the accounting
 * close, so solve() returns the standard OsqpResult contract.
 *
 * Setup validation, Ruiz scaling, the parametric setters and the
 * scaled <-> unscaled maps are the engine's ScaledQp
 * (osqp/scaling.hpp), as for the ADMM loop. The engine's own reaction
 * to a matrix update is rebuilding its CSR mirrors, operator-norm
 * bounds and step sizes.
 */

#ifndef RSQP_BACKENDS_PDHG_SOLVER_HPP
#define RSQP_BACKENDS_PDHG_SOLVER_HPP

#include <memory>

#include "backends/qp_backend.hpp"
#include "common/fault_injection.hpp"
#include "linalg/csr.hpp"
#include "osqp/scaling.hpp"

namespace rsqp
{

/** Restarted primal-dual hybrid gradient engine (see file comment). */
class PdhgSolver final : public QpBackend
{
  public:
    /**
     * Set up: validate, Ruiz-scale, build the CSR mirrors and the
     * power-iteration step-size bounds. Never throws on caller input —
     * malformed settings/problem leave the engine inert and solve()
     * returns SolveStatus::InvalidProblem (same contract as
     * OsqpSolver).
     */
    PdhgSolver(QpProblem problem, OsqpSettings settings);

    OsqpResult solve() override;
    bool warmStart(const Vector& x, const Vector& y) override;
    void updateLinearCost(const Vector& q) override;
    void updateBounds(const Vector& l, const Vector& u) override;
    void updateMatrixValues(const std::vector<Real>& p_values,
                            const std::vector<Real>& a_values) override;
    void setTimeLimit(Real seconds) override
    {
        settings_.timeLimit = seconds;
    }
    const ValidationReport& validation() const override
    {
        return qp_.validation();
    }
    BackendKind kind() const override { return BackendKind::Pdhg; }
    Index numVariables() const override { return n_; }
    Index numConstraints() const override { return m_; }

  private:
    /** Power-iteration bounds for ||A|| and lambda_max(P). */
    void estimateOperatorNorms();

    /** tau/sigma from (omega_, etaA_, lamP_) with the safety margin. */
    void applyStepSizes();

    /** Data-driven initial primal weight ||q|| / ||[l; u]||. */
    Real initialPrimalWeight() const;

    /** Rebuild the CSR execution mirrors from the scaled CSC data. */
    void rebuildMirrors();

    OsqpSettings settings_;
    ScaledQp qp_;  ///< original + scaled data, setup diagnostics
    Index n_ = 0;
    Index m_ = 0;

    // CSR execution mirrors of the scaled operators (SIMD row-gather).
    CsrMatrix aCsr_;   ///< A  (m x n)
    CsrMatrix atCsr_;  ///< A' (n x m)
    CsrMatrix pCsr_;   ///< P expanded to full symmetric (n x n)

    Real etaA_ = 1.0;   ///< >= ||A||_2 (power iteration, with margin)
    Real lamP_ = 0.0;   ///< >= lambda_max(P) (power iteration, margin)
    Real omega_ = 1.0;  ///< primal weight (persists across solves)
    Real tau_ = 0.0;    ///< primal step
    Real sigma_ = 0.0;  ///< dual step

    std::unique_ptr<FaultInjector> faultInjector_;

    // Scaled-space iterates (persist across solves for warm starting).
    Vector x_, y_;

    double setupSeconds_ = 0.0;  ///< reported by every solve's info
};

} // namespace rsqp

#endif // RSQP_BACKENDS_PDHG_SOLVER_HPP
