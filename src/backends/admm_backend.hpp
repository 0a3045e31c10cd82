/**
 * @file
 * ADMM engine behind the QpBackend interface.
 *
 * Deliberately a forwarding *wrapper* around OsqpSolver rather than a
 * refactor of it: the default configuration must stay bit-for-bit
 * identical to the pre-subsystem solver, and the cheapest way to prove
 * that is to not touch the loop at all — the wrapper only delegates
 * and bumps the per-backend registry counters.
 */

#ifndef RSQP_BACKENDS_ADMM_BACKEND_HPP
#define RSQP_BACKENDS_ADMM_BACKEND_HPP

#include "backends/qp_backend.hpp"
#include "osqp/solver.hpp"

namespace rsqp
{

/** QpBackend adapter over the OsqpSolver ADMM loop. */
class AdmmBackend final : public QpBackend
{
  public:
    AdmmBackend(QpProblem problem, OsqpSettings settings);

    OsqpResult solve() override;
    bool warmStart(const Vector& x, const Vector& y) override;
    void updateLinearCost(const Vector& q) override;
    void updateBounds(const Vector& l, const Vector& u) override;
    void updateMatrixValues(const std::vector<Real>& p_values,
                            const std::vector<Real>& a_values) override;
    void setTimeLimit(Real seconds) override;
    const ValidationReport& validation() const override;
    BackendKind kind() const override { return BackendKind::Admm; }
    Index numVariables() const override;
    Index numConstraints() const override;

    /** The wrapped solver (tests poke at its rho vector). */
    OsqpSolver& solver() { return solver_; }

  private:
    OsqpSolver solver_;
};

} // namespace rsqp

#endif // RSQP_BACKENDS_ADMM_BACKEND_HPP
