#include "scaling.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hpp"
#include "linalg/vector_ops.hpp"

namespace rsqp
{

namespace
{

constexpr Real kMinScaling = 1e-4;
constexpr Real kMaxScaling = 1e4;

/** 1/sqrt(norm), guarded for zero norms and clamped to sane bounds. */
Real
equilibrationFactor(Real norm)
{
    if (norm == 0.0)
        return 1.0;
    return clampReal(1.0 / std::sqrt(norm), kMinScaling, kMaxScaling);
}

} // namespace

Scaling
Scaling::identity(Index n, Index m)
{
    Scaling s;
    s.d = constantVector(n, 1.0);
    s.dInv = constantVector(n, 1.0);
    s.e = constantVector(m, 1.0);
    s.eInv = constantVector(m, 1.0);
    return s;
}

Scaling
ruizEquilibrate(QpProblem& problem, Index iterations)
{
    const Index n = problem.numVariables();
    const Index m = problem.numConstraints();
    Scaling scaling = Scaling::identity(n, m);
    if (iterations <= 0)
        return scaling;

    for (Index sweep = 0; sweep < iterations; ++sweep) {
        // Column infinity norms of the symmetric KKT-like stack
        // M = [[P, A'], [A, 0]].
        const Vector p_norms = problem.pUpper.symUpperColumnInfNorms();
        const Vector a_col_norms = problem.a.columnInfNorms();
        const Vector a_row_norms = problem.a.rowInfNorms();

        Vector delta_d(static_cast<std::size_t>(n));
        for (Index j = 0; j < n; ++j)
            delta_d[static_cast<std::size_t>(j)] = equilibrationFactor(
                std::max(p_norms[static_cast<std::size_t>(j)],
                         a_col_norms[static_cast<std::size_t>(j)]));
        Vector delta_e(static_cast<std::size_t>(m));
        for (Index i = 0; i < m; ++i)
            delta_e[static_cast<std::size_t>(i)] = equilibrationFactor(
                a_row_norms[static_cast<std::size_t>(i)]);

        // Apply this sweep's diagonal scaling.
        problem.pUpper.scaleInPlace(delta_d, delta_d);
        for (Index j = 0; j < n; ++j)
            problem.q[static_cast<std::size_t>(j)] *=
                delta_d[static_cast<std::size_t>(j)];
        problem.a.scaleInPlace(delta_e, delta_d);
        for (Index j = 0; j < n; ++j)
            scaling.d[static_cast<std::size_t>(j)] *=
                delta_d[static_cast<std::size_t>(j)];
        for (Index i = 0; i < m; ++i)
            scaling.e[static_cast<std::size_t>(i)] *=
                delta_e[static_cast<std::size_t>(i)];

        // Cost normalization: make the objective O(1).
        const Vector p_norms_now = problem.pUpper.symUpperColumnInfNorms();
        Real mean_p = 0.0;
        for (Real v : p_norms_now)
            mean_p += v;
        if (n > 0)
            mean_p /= static_cast<Real>(n);
        const Real q_norm = normInf(problem.q);
        Real gamma = std::max(mean_p, q_norm);
        gamma = (gamma == 0.0)
            ? 1.0
            : clampReal(1.0 / gamma, kMinScaling, kMaxScaling);
        scale(problem.q, gamma);
        scale(problem.pUpper.values(), gamma);
        scaling.c *= gamma;
    }

    // Scale the bounds once with the accumulated E (infinities stay put).
    for (Index i = 0; i < m; ++i) {
        const Real e_i = scaling.e[static_cast<std::size_t>(i)];
        auto& lo = problem.l[static_cast<std::size_t>(i)];
        auto& hi = problem.u[static_cast<std::size_t>(i)];
        if (lo > -kInf)
            lo *= e_i;
        if (hi < kInf)
            hi *= e_i;
    }

    ewReciprocal(scaling.d, scaling.dInv);
    ewReciprocal(scaling.e, scaling.eInv);
    scaling.cInv = 1.0 / scaling.c;
    return scaling;
}

ConstraintClass
constraintClass(Real lo, Real hi)
{
    if (lo <= -kInf && hi >= kInf)
        return ConstraintClass::Loose;
    if (hi - lo < 1e-12)
        return ConstraintClass::Equality;
    return ConstraintClass::Inequality;
}

ScaledQp::ScaledQp(QpProblem problem, const OsqpSettings& settings)
    : original_(std::move(problem))
{
    // Malformed settings and malformed problem data are both caller
    // input, not programming errors: collect the diagnostics and let
    // the engine come up inert so its solve() returns a typed
    // InvalidProblem result instead of crashing.
    validation_ = validateSettings(settings);
    ValidationReport problem_report = validateProblem(original_);
    validation_.issues.insert(validation_.issues.end(),
                              problem_report.issues.begin(),
                              problem_report.issues.end());
    if (!validation_.ok()) {
        RSQP_WARN("problem '", original_.name,
                  "' failed validation:\n", validation_.describe());
        return;
    }
    scaled_ = original_;
    ruiz_ = ruizEquilibrate(scaled_, settings.scalingIterations);
}

void
ScaledQp::setLinearCost(const Vector& q)
{
    if (!ok())
        return;
    const Index n = original_.numVariables();
    RSQP_ASSERT(static_cast<Index>(q.size()) == n, "q size mismatch");
    original_.q = q;
    for (Index j = 0; j < n; ++j)
        scaled_.q[static_cast<std::size_t>(j)] = ruiz_.c *
            ruiz_.d[static_cast<std::size_t>(j)] *
            q[static_cast<std::size_t>(j)];
}

bool
ScaledQp::setBounds(const Vector& l, const Vector& u)
{
    if (!ok())
        return false;
    const Index m = original_.numConstraints();
    RSQP_ASSERT(static_cast<Index>(l.size()) == m &&
                    static_cast<Index>(u.size()) == m,
                "bound size mismatch");
    for (Index i = 0; i < m; ++i)
        if (l[static_cast<std::size_t>(i)] > u[static_cast<std::size_t>(i)])
            RSQP_FATAL("updateBounds: l > u at constraint ", i);
    original_.l = l;
    original_.u = u;
    bool class_changed = false;
    for (Index i = 0; i < m; ++i) {
        const auto s = static_cast<std::size_t>(i);
        const ConstraintClass before =
            constraintClass(scaled_.l[s], scaled_.u[s]);
        scaled_.l[s] = (l[s] <= -kInf) ? l[s] : ruiz_.e[s] * l[s];
        scaled_.u[s] = (u[s] >= kInf) ? u[s] : ruiz_.e[s] * u[s];
        class_changed = class_changed ||
            constraintClass(scaled_.l[s], scaled_.u[s]) != before;
    }
    return class_changed;
}

bool
ScaledQp::setMatrixValues(const std::vector<Real>& p_values,
                          const std::vector<Real>& a_values)
{
    if (!ok())
        return false;
    const Index n = original_.numVariables();
    if (!p_values.empty()) {
        RSQP_ASSERT(p_values.size() == original_.pUpper.values().size(),
                    "P value count mismatch");
        original_.pUpper.values() = p_values;
        // Re-apply the fixed scaling: Pb = c * D P D.
        auto& scaled_vals = scaled_.pUpper.values();
        const auto& col_ptr = scaled_.pUpper.colPtr();
        const auto& row_idx = scaled_.pUpper.rowIdx();
        for (Index c = 0; c < n; ++c)
            for (Index p = col_ptr[c]; p < col_ptr[c + 1]; ++p)
                scaled_vals[static_cast<std::size_t>(p)] = ruiz_.c *
                    ruiz_.d[static_cast<std::size_t>(row_idx[p])] *
                    ruiz_.d[static_cast<std::size_t>(c)] *
                    p_values[static_cast<std::size_t>(p)];
    }
    if (!a_values.empty()) {
        RSQP_ASSERT(a_values.size() == original_.a.values().size(),
                    "A value count mismatch");
        original_.a.values() = a_values;
        // Ab = E A D.
        auto& scaled_vals = scaled_.a.values();
        const auto& col_ptr = scaled_.a.colPtr();
        const auto& row_idx = scaled_.a.rowIdx();
        for (Index c = 0; c < n; ++c)
            for (Index p = col_ptr[c]; p < col_ptr[c + 1]; ++p)
                scaled_vals[static_cast<std::size_t>(p)] =
                    ruiz_.e[static_cast<std::size_t>(row_idx[p])] *
                    ruiz_.d[static_cast<std::size_t>(c)] *
                    a_values[static_cast<std::size_t>(p)];
    }
    return !p_values.empty() || !a_values.empty();
}

bool
ScaledQp::scaleWarmStart(const Vector& x, const Vector& y, Vector& xs,
                         Vector& ys) const
{
    if (!ok())
        return false;
    const Index n = original_.numVariables();
    const Index m = original_.numConstraints();
    if (static_cast<Index>(x.size()) != n ||
        static_cast<Index>(y.size()) != m) {
        // A malformed client guess must not take the solver down; the
        // next solve simply starts from the engine's current iterates.
        RSQP_WARN("warmStart ignored: got sizes (", x.size(), ", ",
                  y.size(), "), expected (", n, ", ", m, ")");
        return false;
    }
    xs.resize(x.size());
    ys.resize(y.size());
    for (Index j = 0; j < n; ++j)
        xs[static_cast<std::size_t>(j)] =
            ruiz_.dInv[static_cast<std::size_t>(j)] *
            x[static_cast<std::size_t>(j)];
    for (Index i = 0; i < m; ++i)
        ys[static_cast<std::size_t>(i)] = ruiz_.c *
            ruiz_.eInv[static_cast<std::size_t>(i)] *
            y[static_cast<std::size_t>(i)];
    return true;
}

void
ScaledQp::unscaleX(const Vector& xs, Vector& x) const
{
    x.resize(xs.size());
    for (std::size_t j = 0; j < xs.size(); ++j)
        x[j] = ruiz_.d[j] * xs[j];
}

void
ScaledQp::unscaleY(const Vector& ys, Vector& y) const
{
    y.resize(ys.size());
    for (std::size_t i = 0; i < ys.size(); ++i)
        y[i] = ruiz_.cInv * ruiz_.e[i] * ys[i];
}

void
ScaledQp::unscaleZ(const Vector& zs, Vector& z) const
{
    z.resize(zs.size());
    for (std::size_t i = 0; i < zs.size(); ++i)
        z[i] = ruiz_.eInv[i] * zs[i];
}

void
ScaledQp::unscaleDeltaX(const Vector& xs, const Vector& xs_prev,
                        Vector& dx) const
{
    dx.resize(xs.size());
    for (std::size_t j = 0; j < xs.size(); ++j)
        dx[j] = ruiz_.d[j] * (xs[j] - xs_prev[j]);
}

void
ScaledQp::unscaleDeltaY(const Vector& ys, const Vector& ys_prev,
                        Vector& dy) const
{
    dy.resize(ys.size());
    for (std::size_t i = 0; i < ys.size(); ++i)
        dy[i] = ruiz_.cInv * ruiz_.e[i] * (ys[i] - ys_prev[i]);
}

} // namespace rsqp
