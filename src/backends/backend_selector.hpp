/**
 * @file
 * Per-problem backend selection policy.
 *
 * The selector reduces a QP to a handful of problem-class features —
 * the same structural quantities the customization fingerprint hashes
 * (sizes, nnz, constraint-type mix, aspect ratio) — and applies four
 * fixed thresholds to pick the engine makeBackend() builds for
 * BackendKind::Auto. It is a pure function: same problem, same choice,
 * on every host.
 *
 * The rationale baked into the thresholds (measured on the bench
 * suite, see bench_backends):
 *
 *  - equality-dominated problems (control, eqqp) keep ADMM: the
 *    per-constraint stiff-rho trick resolves equalities in tens of
 *    iterations, while PDHG has to drive them through a plain
 *    projection;
 *  - tall problems with a mixed equality/inequality constraint set
 *    (control) go to PDHG: a single ADMM penalty has to compromise
 *    between stiff equality rows and loose inequality rows there,
 *    while PDHG's restarted iterations with an adaptive primal weight
 *    don't — and each PDHG iteration is cheaper (two SpMVs, no KKT
 *    solve). All-inequality tall problems (svm) stay ADMM: one rho
 *    fits every row;
 *  - small problems always keep ADMM — a direct KKT factor solves
 *    them in milliseconds.
 */

#ifndef RSQP_BACKENDS_BACKEND_SELECTOR_HPP
#define RSQP_BACKENDS_BACKEND_SELECTOR_HPP

#include "backends/backend_config.hpp"
#include "osqp/problem.hpp"

namespace rsqp
{

/** Problem-class features the selection policy consumes. */
struct BackendFeatures
{
    Index n = 0;                  ///< variables
    Index m = 0;                  ///< constraints
    Count nnz = 0;                ///< nnz(P) + nnz(A)
    Real equalityFraction = 0.0;  ///< constraints with u - l ~ 0
    Real looseFraction = 0.0;     ///< constraints with both bounds inf
    Real boxFraction = 0.0;       ///< rows with exactly one A entry
    Real tallRatio = 0.0;         ///< m / n
    bool hasHessian = false;      ///< nnz(P) > 0
};

/** Extract the selection features from a problem (pure, cheap). */
BackendFeatures computeBackendFeatures(const QpProblem& problem);

/** The policy: ADMM or PDHG for this feature vector (never Auto). */
BackendKind chooseBackend(const BackendFeatures& features);

/** Convenience overload: features computed internally. */
BackendKind chooseBackend(const QpProblem& problem);

} // namespace rsqp

#endif // RSQP_BACKENDS_BACKEND_SELECTOR_HPP
