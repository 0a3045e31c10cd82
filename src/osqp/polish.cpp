#include "polish.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"
#include "linalg/kkt.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/residuals.hpp"
#include "solvers/ldl.hpp"
#include "solvers/ordering.hpp"

namespace rsqp
{

namespace
{

/** Regularization delta of the polish KKT system. */
constexpr Real kPolishDelta = 1e-6;
/** Iterative-refinement steps against the unregularized system. */
constexpr Index kPolishRefineIter = 3;

/** y_full = K_true * t for K_true = [[P, A_act'], [A_act, 0]]. */
void
applyTrueKkt(const CscMatrix& p_upper, const CscMatrix& a_act,
             const Vector& t, Vector& out)
{
    const Index n = p_upper.cols();
    const Index ma = a_act.rows();
    const Vector x(t.begin(), t.begin() + n);
    const Vector y(t.begin() + n, t.end());
    Vector px;
    p_upper.spmvSymUpper(x, px);
    Vector aty;
    a_act.spmvTranspose(y, aty);
    Vector ax;
    a_act.spmv(x, ax);
    out.resize(t.size());
    for (Index j = 0; j < n; ++j)
        out[static_cast<std::size_t>(j)] =
            px[static_cast<std::size_t>(j)] +
            aty[static_cast<std::size_t>(j)];
    for (Index i = 0; i < ma; ++i)
        out[static_cast<std::size_t>(n + i)] =
            ax[static_cast<std::size_t>(i)];
}

} // namespace

PolishReport
polishSolution(const QpProblem& problem, const OsqpSettings& settings,
               OsqpResult& result)
{
    PolishReport report;
    const Index n = problem.numVariables();
    const Index m = problem.numConstraints();

    const ResidualInfo before = computeResiduals(
        problem, result.x, result.y, result.z, settings.epsAbs,
        settings.epsRel);
    report.primResBefore = before.primRes;
    report.dualResBefore = before.dualRes;

    // Guess the active set from the dual signs.
    IndexVector active_rows;
    Vector b_act;
    for (Index i = 0; i < m; ++i) {
        const Real y_i = result.y[static_cast<std::size_t>(i)];
        const Real lo = problem.l[static_cast<std::size_t>(i)];
        const Real hi = problem.u[static_cast<std::size_t>(i)];
        if (y_i < 0.0 && lo > -kInf) {
            active_rows.push_back(i);
            b_act.push_back(lo);
            ++report.activeLower;
        } else if (y_i > 0.0 && hi < kInf) {
            active_rows.push_back(i);
            b_act.push_back(hi);
            ++report.activeUpper;
        }
    }
    report.attempted = true;

    // Extract the active rows of A.
    const Index ma = static_cast<Index>(active_rows.size());
    IndexVector row_map(static_cast<std::size_t>(m), -1);
    for (Index k = 0; k < ma; ++k)
        row_map[static_cast<std::size_t>(
            active_rows[static_cast<std::size_t>(k)])] = k;
    TripletList act_triplets(ma, n);
    for (Index c = 0; c < n; ++c) {
        for (Index p = problem.a.colPtr()[c];
             p < problem.a.colPtr()[c + 1]; ++p) {
            const Index mapped =
                row_map[static_cast<std::size_t>(problem.a.rowIdx()[p])];
            if (mapped >= 0)
                act_triplets.add(mapped, c, problem.a.values()[p]);
        }
    }
    const CscMatrix a_act = CscMatrix::fromTriplets(act_triplets);

    // Regularized KKT of the active-set equality QP. Reusing the
    // KKT assembler: sigma = delta, rho = 1/delta gives the -delta*I
    // lower-right block.
    const Real delta = kPolishDelta;
    KktAssembler assembler(problem.pUpper, a_act, delta,
                           constantVector(ma, 1.0 / delta));
    const IndexVector perm = reverseCuthillMcKee(assembler.kkt());
    IndexVector inv(perm.size());
    for (Index i = 0; i < static_cast<Index>(perm.size()); ++i)
        inv[static_cast<std::size_t>(perm[static_cast<std::size_t>(i)])] =
            i;
    const CscMatrix kkt_perm = assembler.kkt().symUpperPermute(perm);
    LdlFactorization ldl(kkt_perm);
    if (!ldl.factor(kkt_perm))
        return report;  // degenerate active set; keep the ADMM point

    // rhs = [-q; b_act]; solve with iterative refinement against the
    // unregularized system.
    Vector rhs(static_cast<std::size_t>(n + ma));
    for (Index j = 0; j < n; ++j)
        rhs[static_cast<std::size_t>(j)] =
            -problem.q[static_cast<std::size_t>(j)];
    for (Index i = 0; i < ma; ++i)
        rhs[static_cast<std::size_t>(n + i)] =
            b_act[static_cast<std::size_t>(i)];

    auto permuted_solve = [&](const Vector& b) {
        Vector pb(b.size());
        for (std::size_t i = 0; i < b.size(); ++i)
            pb[i] = b[static_cast<std::size_t>(
                perm[static_cast<std::size_t>(i)])];
        ldl.solve(pb);
        Vector out(b.size());
        for (std::size_t i = 0; i < b.size(); ++i)
            out[static_cast<std::size_t>(
                perm[static_cast<std::size_t>(i)])] = pb[i];
        return out;
    };

    Vector t = permuted_solve(rhs);
    Vector kt, residual(rhs.size());
    for (Index iter = 0; iter < kPolishRefineIter; ++iter) {
        applyTrueKkt(problem.pUpper, a_act, t, kt);
        for (std::size_t i = 0; i < rhs.size(); ++i)
            residual[i] = rhs[i] - kt[i];
        const Vector dt = permuted_solve(residual);
        for (std::size_t i = 0; i < t.size(); ++i)
            t[i] += dt[i];
    }
    if (!allFinite(t))
        return report;

    // Candidate polished point. It solves the guessed equality system
    // exactly, so (x, y, A x) would score zero residuals whatever the
    // guess. Judge it as a point of the real QP instead: z is A x
    // projected onto [l, u], so a violated bound shows up in the
    // primal residual, and each active dual is clipped to the sign its
    // bound allows (<= 0 at l, >= 0 at u; free on an equality row), so
    // a wrong-signed multiplier shows up in the dual residual. A row
    // was guessed active at l exactly when its ADMM dual is negative.
    Vector x_pol(t.begin(), t.begin() + n);
    Vector y_pol(static_cast<std::size_t>(m), 0.0);
    for (Index k = 0; k < ma; ++k) {
        const auto row = static_cast<std::size_t>(
            active_rows[static_cast<std::size_t>(k)]);
        Real y_k = t[static_cast<std::size_t>(n + k)];
        if (problem.l[row] < problem.u[row])
            y_k = result.y[row] < 0.0 ? std::min(y_k, Real(0.0))
                                      : std::max(y_k, Real(0.0));
        y_pol[row] = y_k;
    }
    Vector ax_pol, z_pol;
    problem.a.spmv(x_pol, ax_pol);
    ewClamp(ax_pol, problem.l, problem.u, z_pol);

    const ResidualInfo after = computeResiduals(
        problem, x_pol, y_pol, z_pol, settings.epsAbs, settings.epsRel);
    report.primResAfter = after.primRes;
    report.dualResAfter = after.dualRes;

    if (after.primRes <= before.primRes &&
        after.dualRes <= before.dualRes) {
        result.x = std::move(x_pol);
        result.y = std::move(y_pol);
        result.z = std::move(z_pol);
        result.info.primRes = after.primRes;
        result.info.dualRes = after.dualRes;
        result.info.objective = problem.objective(result.x);
        report.adopted = true;
    }
    return report;
}

} // namespace rsqp
