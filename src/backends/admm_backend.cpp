#include "backends/admm_backend.hpp"

#include <utility>

#include "backends/backend_metrics.hpp"

namespace rsqp
{

AdmmBackend::AdmmBackend(QpProblem problem, OsqpSettings settings)
    : solver_(std::move(problem), std::move(settings))
{}

OsqpResult
AdmmBackend::solve()
{
    OsqpResult result = solver_.solve();
    recordBackendSolve(name(), result.info);
    return result;
}

bool
AdmmBackend::warmStart(const Vector& x, const Vector& y)
{
    return solver_.warmStart(x, y);
}

void
AdmmBackend::updateLinearCost(const Vector& q)
{
    solver_.updateLinearCost(q);
}

void
AdmmBackend::updateBounds(const Vector& l, const Vector& u)
{
    solver_.updateBounds(l, u);
}

void
AdmmBackend::updateMatrixValues(const std::vector<Real>& p_values,
                                const std::vector<Real>& a_values)
{
    solver_.updateMatrixValues(p_values, a_values);
}

void
AdmmBackend::setTimeLimit(Real seconds)
{
    solver_.setTimeLimit(seconds);
}

const ValidationReport&
AdmmBackend::validation() const
{
    return solver_.validation();
}

Index
AdmmBackend::numVariables() const
{
    return solver_.numVariables();
}

Index
AdmmBackend::numConstraints() const
{
    return solver_.numConstraints();
}

} // namespace rsqp
