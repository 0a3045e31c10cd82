#include "residuals.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "linalg/vector_ops.hpp"

namespace rsqp
{

ResidualInfo
computeResiduals(const QpProblem& problem, const Vector& x,
                 const Vector& y, const Vector& z, Real eps_abs,
                 Real eps_rel)
{
    ResidualInfo info;
    Vector ax;
    problem.a.spmv(x, ax);
    info.primRes = normInfDiff(ax, z);
    info.epsPrim = eps_abs +
        eps_rel * std::max(normInf(ax), normInf(z));

    Vector px;
    problem.pUpper.spmvSymUpper(x, px);
    Vector aty;
    problem.a.spmvTranspose(y, aty);
    Real dual = 0.0;
    for (std::size_t j = 0; j < px.size(); ++j)
        dual = std::max(dual,
                        std::abs(px[j] + problem.q[j] + aty[j]));
    info.dualRes = dual;
    info.epsDual = eps_abs +
        eps_rel * std::max({normInf(px), normInf(aty),
                            normInf(problem.q)});
    return info;
}

bool
certifiesPrimalInfeasibility(const QpProblem& problem,
                             const Vector& delta_y, Real eps_prim_inf)
{
    const Real norm_dy = normInf(delta_y);
    if (norm_dy <= eps_prim_inf)
        return false;
    Vector at_dy;
    problem.a.spmvTranspose(delta_y, at_dy);
    if (normInf(at_dy) > eps_prim_inf * norm_dy)
        return false;
    Real support = 0.0;
    for (std::size_t i = 0; i < delta_y.size(); ++i) {
        const Real dy_i = delta_y[i];
        if (dy_i > 0.0) {
            if (problem.u[i] >= kInf)
                return false;
            support += problem.u[i] * dy_i;
        } else if (dy_i < 0.0) {
            if (problem.l[i] <= -kInf)
                return false;
            support += problem.l[i] * dy_i;
        }
    }
    return support <= -eps_prim_inf * norm_dy;
}

bool
certifiesDualInfeasibility(const QpProblem& problem, const Vector& delta_x,
                           Real eps_dual_inf)
{
    const Real norm_dx = normInf(delta_x);
    if (norm_dx <= eps_dual_inf)
        return false;
    if (dot(problem.q, delta_x) > -eps_dual_inf * norm_dx)
        return false;
    Vector p_dx;
    problem.pUpper.spmvSymUpper(delta_x, p_dx);
    if (normInf(p_dx) > eps_dual_inf * norm_dx)
        return false;
    Vector a_dx;
    problem.a.spmv(delta_x, a_dx);
    const Real tol = eps_dual_inf * norm_dx;
    for (std::size_t i = 0; i < a_dx.size(); ++i) {
        if (problem.u[i] < kInf && a_dx[i] > tol)
            return false;
        if (problem.l[i] > -kInf && a_dx[i] < -tol)
            return false;
    }
    return true;
}

} // namespace rsqp
