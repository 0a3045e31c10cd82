#include "backends/backend_selector.hpp"

#include "osqp/scaling.hpp"

namespace rsqp
{

namespace
{

/**
 * Equality-constraint fraction at or above which the selector keeps
 * ADMM (the per-constraint stiff-rho trick converges fast on
 * equality-dominated problems; PDHG has no equivalent).
 */
constexpr Real kEqualityFractionAdmm = 0.6;

/**
 * Minimum equality fraction for the PDHG route. PDHG pays off on
 * *mixed* constraint sets, where a single fixed ADMM penalty must
 * compromise between stiff equality rows and loose inequality rows;
 * with no equalities at all one rho fits every row and ADMM keeps the
 * edge (measured: control yes, svm no).
 */
constexpr Real kEqualityFractionPdhgMin = 0.2;

/**
 * Constraint-to-variable ratio (m/n) at or above which mixed problems
 * route to PDHG: tall, loosely bounded systems are where the restarted
 * primal-dual method beats ADMM's fixed-rho plateaus.
 */
constexpr Real kTallRatioPdhg = 1.25;

/** Problem size (n + m) below which ADMM always wins the pick (setup
 *  and per-iteration costs dwarf iteration-count gaps). */
constexpr Index kSmallProblemThreshold = 400;

} // namespace

BackendFeatures
computeBackendFeatures(const QpProblem& problem)
{
    BackendFeatures f;
    f.n = problem.numVariables();
    f.m = problem.numConstraints();
    f.nnz = problem.totalNnz();
    f.hasHessian = problem.pUpper.nnz() > 0;
    f.tallRatio = f.n > 0
        ? static_cast<Real>(f.m) / static_cast<Real>(f.n)
        : 0.0;

    if (f.m == 0)
        return f;

    // Per-row A population (for the box-row feature) without building
    // a CSR mirror: count column entries per row.
    std::vector<Index> row_nnz(static_cast<std::size_t>(f.m), 0);
    const std::vector<Index>& row_idx = problem.a.rowIdx();
    for (const Index r : row_idx)
        if (r >= 0 && r < f.m)
            ++row_nnz[static_cast<std::size_t>(r)];

    Index equalities = 0;
    Index loose = 0;
    Index box = 0;
    for (Index i = 0; i < f.m; ++i) {
        const auto s = static_cast<std::size_t>(i);
        const ConstraintClass cls =
            constraintClass(problem.l[s], problem.u[s]);
        if (cls == ConstraintClass::Loose)
            ++loose;
        else if (cls == ConstraintClass::Equality)
            ++equalities;
        if (row_nnz[s] == 1)
            ++box;
    }
    const Real m_real = static_cast<Real>(f.m);
    f.equalityFraction = static_cast<Real>(equalities) / m_real;
    f.looseFraction = static_cast<Real>(loose) / m_real;
    f.boxFraction = static_cast<Real>(box) / m_real;
    return f;
}

BackendKind
chooseBackend(const BackendFeatures& features)
{
    // Small problems: setup costs dwarf any iteration-count gap, and
    // the direct KKT factor is unbeatable. Never leave ADMM.
    if (features.n + features.m < kSmallProblemThreshold)
        return BackendKind::Admm;

    // Equality-dominated: the per-constraint stiff-rho trick is the
    // decisive advantage, PDHG has no equivalent.
    if (features.equalityFraction >= kEqualityFractionAdmm)
        return BackendKind::Admm;

    // Tall problems with a *mixed* constraint set: restarted PDHG's
    // territory. A single ADMM penalty must compromise between the
    // stiff equality rows and the loose inequality rows there; PDHG's
    // adaptive primal weight sidesteps the compromise. All-inequality
    // tall problems (svm) stay ADMM — one rho fits every row.
    if (features.tallRatio >= kTallRatioPdhg &&
        features.equalityFraction >= kEqualityFractionPdhgMin)
        return BackendKind::Pdhg;

    return BackendKind::Admm;
}

BackendKind
chooseBackend(const QpProblem& problem)
{
    return chooseBackend(computeBackendFeatures(problem));
}

} // namespace rsqp
