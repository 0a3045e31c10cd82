#include "backends/pdhg_solver.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "common/timer.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/residuals.hpp"
#include "telemetry/trace.hpp"

namespace rsqp
{

namespace
{

/**
 * Restart ceiling: an epoch restarts to its running average at the
 * latest after this many iterations.
 */
constexpr Index kRestartInterval = 120;

/**
 * Sufficient-decay trigger (PDLP): restart as soon as the merit (max
 * of primal and dual residual) fell to this fraction of its value at
 * the last restart.
 */
constexpr Real kRestartBeta = 0.2;

/** Log-space smoothing exponent of the primal-weight update. */
constexpr Real kStepBalanceSmoothing = 0.5;

/**
 * Warm-up rebalances: the first N residual checks of a solve each
 * force an in-place restart whose primal-weight update uses full
 * strength (no smoothing), so omega locks onto the observed
 * dual/primal displacement ratio within checkInterval iterations
 * instead of drifting toward it over several restart epochs.
 */
constexpr Index kWarmupChecks = 1;

/** Clamp for the primal weight (and its reciprocal). */
constexpr Real kPrimalWeightMax = 1e4;

/** Power-iteration sweeps for the ||A|| / lambda_max(P) bounds. */
constexpr Index kPowerIterations = 20;

/** Safety margin multiplied onto the power-iteration estimates and
 *  the step-size condition. */
constexpr Real kStepSafety = 1.05;

/** Deterministic pseudo-random unit vector for power iteration. */
void
seedPowerVector(Vector& v, std::size_t size)
{
    v.resize(size);
    // xorshift with a fixed seed: reproducible on every platform and
    // never orthogonal to the dominant eigenvector in practice.
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    for (std::size_t i = 0; i < size; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        v[i] = 2.0 * (static_cast<Real>(state >> 11) /
                      static_cast<Real>(1ULL << 53)) -
            1.0;
    }
}

} // namespace

PdhgSolver::PdhgSolver(QpProblem problem, OsqpSettings settings)
    : settings_(std::move(settings)), qp_(std::move(problem), settings_)
{
    Timer setup_timer;
    if (!qp_.ok()) {
        setupSeconds_ = setup_timer.seconds();
        return;
    }

    if (settings_.faultInjection.enabled)
        faultInjector_ =
            std::make_unique<FaultInjector>(settings_.faultInjection);

    n_ = qp_.original().numVariables();
    m_ = qp_.original().numConstraints();

    rebuildMirrors();
    estimateOperatorNorms();
    omega_ = initialPrimalWeight();
    applyStepSizes();

    x_.assign(static_cast<std::size_t>(n_), 0.0);
    y_.assign(static_cast<std::size_t>(m_), 0.0);
    setupSeconds_ = setup_timer.seconds();
}

void
PdhgSolver::rebuildMirrors()
{
    const QpProblem& scaled = qp_.scaled();
    aCsr_ = CsrMatrix::fromCsc(scaled.a);
    atCsr_ = CsrMatrix::fromCsc(scaled.a.transpose());
    pCsr_ = CsrMatrix::fromCsc(scaled.pUpper.symUpperToFull());
}

void
PdhgSolver::estimateOperatorNorms()
{
    // ||A||_2 via power iteration on A'A.
    if (m_ > 0 && qp_.scaled().a.nnz() > 0) {
        Vector v, av, atav;
        seedPowerVector(v, static_cast<std::size_t>(n_));
        Real lam = 0.0;
        for (Index k = 0; k < kPowerIterations; ++k) {
            const Real nv = norm2(v);
            if (!(nv > 0.0))
                break;
            scale(v, 1.0 / nv);
            aCsr_.spmv(v, av);
            atCsr_.spmv(av, atav);
            lam = norm2(atav);  // Rayleigh bound ||A'Av|| >= lambda
            v = atav;
        }
        etaA_ = std::max(std::sqrt(std::max(lam, Real(0.0))) * kStepSafety,
                         Real(1e-12));
    } else {
        etaA_ = 1e-12;
    }

    // lambda_max(P) via power iteration on the full symmetric mirror.
    if (pCsr_.nnz() > 0) {
        Vector v, pv;
        seedPowerVector(v, static_cast<std::size_t>(n_));
        Real lam = 0.0;
        for (Index k = 0; k < kPowerIterations; ++k) {
            const Real nv = norm2(v);
            if (!(nv > 0.0))
                break;
            scale(v, 1.0 / nv);
            pCsr_.spmv(v, pv);
            lam = norm2(pv);
            v = pv;
        }
        lamP_ = std::max(lam, Real(0.0)) * kStepSafety;
    } else {
        lamP_ = 0.0;
    }
}

void
PdhgSolver::applyStepSizes()
{
    // sigma = omega / ||A||; tau from the Condat–Vũ condition
    // tau (lam_P/2 + sigma ||A||^2) <= 1 with the safety margin.
    sigma_ = omega_ / etaA_;
    tau_ = 1.0 / (kStepSafety * (0.5 * lamP_ + omega_ * etaA_));
}

Real
PdhgSolver::initialPrimalWeight() const
{
    // PDLP-style data-driven default: balance the primal gradient
    // magnitude against the bound magnitude (infinite bounds excluded).
    const QpProblem& scaled = qp_.scaled();
    const Real nq = norm2(scaled.q);
    Real nb = 0.0;
    for (Index i = 0; i < m_; ++i) {
        const Real lo = scaled.l[static_cast<std::size_t>(i)];
        const Real hi = scaled.u[static_cast<std::size_t>(i)];
        if (lo > -kInf)
            nb += lo * lo;
        if (hi < kInf)
            nb += hi * hi;
    }
    nb = std::sqrt(nb);
    if (!(nq > 0.0) || !(nb > 0.0))
        return 1.0;
    return clampReal(nq / nb, 1.0 / kPrimalWeightMax, kPrimalWeightMax);
}

bool
PdhgSolver::warmStart(const Vector& x, const Vector& y)
{
    return qp_.scaleWarmStart(x, y, x_, y_);
}

void
PdhgSolver::updateLinearCost(const Vector& q)
{
    qp_.setLinearCost(q);
}

void
PdhgSolver::updateBounds(const Vector& l, const Vector& u)
{
    // No constraint-class state here: the projection reads the bounds.
    qp_.setBounds(l, u);
}

void
PdhgSolver::updateMatrixValues(const std::vector<Real>& p_values,
                               const std::vector<Real>& a_values)
{
    if (!qp_.setMatrixValues(p_values, a_values))
        return;
    // New operator values change the valid step sizes too.
    rebuildMirrors();
    estimateOperatorNorms();
    applyStepSizes();
}

OsqpResult
PdhgSolver::solve()
{
    TELEMETRY_SPAN("pdhg.solve");
    if (!qp_.ok())
        return invalidProblemResult(qp_.validation(), setupSeconds_);

    const QpProblem& original = qp_.original();
    const QpProblem& scaled = qp_.scaled();
    OsqpResult result;
    OsqpInfo& info = result.info;
    SolveShell shell(SolveEngine::Pdhg, settings_, original,
                     faultInjector_.get(), setupSeconds_, info, x_, y_,
                     nullptr);

    // Soft-error hook on the operator stream (tests/bench only): one
    // nonce per solve keeps a word position from being
    // deterministically faulty on every application of the operator.
    FaultInjector* injector = activeFaultInjector();
    const std::uint64_t call_offset =
        injector != nullptr ? injector->acquireNonce() << 20 : 0;
    Count restarts = 0;

    // Scratch (sized once; the loop itself allocates nothing).
    Vector px(static_cast<std::size_t>(n_));
    Vector aty(static_cast<std::size_t>(n_));
    Vector x_next(static_cast<std::size_t>(n_));
    Vector x_bar(static_cast<std::size_t>(n_));
    Vector ax(static_cast<std::size_t>(m_));
    Vector x_u(static_cast<std::size_t>(n_));
    Vector y_u(static_cast<std::size_t>(m_));
    Vector z_u(static_cast<std::size_t>(m_));
    Vector ax_u(static_cast<std::size_t>(m_));
    Vector delta_x(static_cast<std::size_t>(n_));
    Vector delta_y(static_cast<std::size_t>(m_));

    // Epoch state: running average since the last restart, the
    // restart anchor, and the merit recorded at the restart point.
    Vector x_sum(static_cast<std::size_t>(n_), 0.0);
    Vector y_sum(static_cast<std::size_t>(m_), 0.0);
    Vector x_anchor = x_;
    Vector y_anchor = y_;
    Index epoch_len = 0;
    Real restart_merit = kInf;
    Index warmups_done = 0;

    // Deltas between consecutive termination checks feed the
    // infeasibility certificates (the PDHG iterate difference
    // converges to the certificate ray on infeasible problems).
    Vector x_u_prev, y_u_prev;
    bool have_prev_check = false;

    // Unscaled iterate with z = Pi_[l,u](A x), the auxiliary variable
    // this engine drives A x toward.
    const auto unscale_iterates = [&]() {
        qp_.unscaleX(x_, x_u);
        qp_.unscaleY(y_, y_u);
        original.a.spmv(x_u, ax_u);
        ewClamp(ax_u, original.l, original.u, z_u);
    };

    const auto reset_epoch = [&]() {
        std::fill(x_sum.begin(), x_sum.end(), 0.0);
        std::fill(y_sum.begin(), y_sum.end(), 0.0);
        x_anchor = x_;
        y_anchor = y_;
        epoch_len = 0;
    };

    // Recovery reaction, the PDHG analog of the ADMM sigma boost:
    // halve both steps (their product condition keeps holding with
    // extra slack) and start a fresh epoch from the rolled-back point.
    const SolveShell::Reaction back_off_steps = [&]() {
        tau_ *= 0.5;
        sigma_ *= 0.5;
        reset_epoch();
        restart_merit = kInf;
        have_prev_check = false;
        return "step backoff: tau = " + std::to_string(tau_) +
            ", sigma = " + std::to_string(sigma_);
    };

    for (Index iter = 1; iter <= settings_.maxIter; ++iter) {
        TELEMETRY_SPAN("pdhg.iter");
        if (shell.timeUp())
            break;

        // Primal step: x+ = x - tau (P x + q + A' y).
        pCsr_.spmv(x_, px);
        atCsr_.spmv(y_, aty);
        if (injector != nullptr)
            injector->corruptVector(px, fault_streams::kPdhgOperator +
                                            call_offset + iter);
        const Real tau = tau_;
        for (Index j = 0; j < n_; ++j) {
            const auto s = static_cast<std::size_t>(j);
            x_next[s] =
                x_[s] - tau * (px[s] + scaled.q[s] + aty[s]);
            x_bar[s] = 2.0 * x_next[s] - x_[s];
        }

        // Dual step via Moreau: y+ = sigma (w - Pi_[l,u](w)).
        aCsr_.spmv(x_bar, ax);
        const Real sigma = sigma_;
        const Real sigma_inv = 1.0 / sigma;
        for (Index i = 0; i < m_; ++i) {
            const auto s = static_cast<std::size_t>(i);
            const Real w = y_[s] * sigma_inv + ax[s];
            const Real proj =
                clampReal(w, scaled.l[s], scaled.u[s]);
            y_[s] = sigma * (w - proj);
        }
        ++epoch_len;

        x_.swap(x_next);

        // Running average of the epoch (restart target).
        for (Index j = 0; j < n_; ++j)
            x_sum[static_cast<std::size_t>(j)] +=
                x_[static_cast<std::size_t>(j)];
        for (Index i = 0; i < m_; ++i)
            y_sum[static_cast<std::size_t>(i)] +=
                y_[static_cast<std::size_t>(i)];

        info.iterations = iter;

        const bool check_now = (iter % settings_.checkInterval == 0) ||
            iter == settings_.maxIter;
        if (!check_now)
            continue;

        unscale_iterates();
        const ResidualInfo res =
            computeResiduals(original, x_u, y_u, z_u, settings_.epsAbs,
                             settings_.epsRel);

        const SolveShell::Step step =
            shell.check(iter, res, back_off_steps);
        if (step == SolveShell::Step::Retry)
            continue;
        if (step == SolveShell::Step::Stop)
            break;

        if (shell.converged(res))
            break;

        // Infeasibility certificates from consecutive checks.
        if (have_prev_check) {
            for (Index j = 0; j < n_; ++j) {
                const auto s = static_cast<std::size_t>(j);
                delta_x[s] = x_u[s] - x_u_prev[s];
            }
            for (Index i = 0; i < m_; ++i) {
                const auto s = static_cast<std::size_t>(i);
                delta_y[s] = y_u[s] - y_u_prev[s];
            }
            if (shell.certifiesInfeasibility(delta_x, delta_y))
                break;
        }
        x_u_prev = x_u;
        y_u_prev = y_u;
        have_prev_check = true;

        // --- Restart logic -------------------------------------------
        const Real merit = std::max(res.primRes, res.dualRes);
        // Warm-up rebalance: the first few checks restart in place
        // with a full-strength omega update (see kWarmupChecks).
        const bool warmup_now = warmups_done < kWarmupChecks;
        if (warmup_now)
            ++warmups_done;
        // Otherwise restart to the epoch average on sufficient decay
        // since the last restart, or at the forced ceiling.
        if (warmup_now || merit <= kRestartBeta * restart_merit ||
            epoch_len >= kRestartInterval) {
            if (!warmup_now && epoch_len > 0) {
                const Real inv =
                    1.0 / static_cast<Real>(epoch_len);
                for (Index j = 0; j < n_; ++j) {
                    const auto s = static_cast<std::size_t>(j);
                    x_[s] = x_sum[s] * inv;
                }
                for (Index i = 0; i < m_; ++i) {
                    const auto s = static_cast<std::size_t>(i);
                    y_[s] = y_sum[s] * inv;
                }
                shell.iterateMoved();
            }

            // PDLP primal-weight update: move omega toward the
            // observed dual/primal displacement ratio in log space.
            const Real dx = normInfDiff(x_, x_anchor);
            const Real dy = normInfDiff(y_, y_anchor);
            if (dx > 1e-12 && dy > 1e-12) {
                const Real s = warmup_now ? 1.0 : kStepBalanceSmoothing;
                const Real target = std::log(dy / dx);
                omega_ = clampReal(
                    std::exp(s * target + (1.0 - s) * std::log(omega_)),
                    1.0 / kPrimalWeightMax, kPrimalWeightMax);
                applyStepSizes();
            }

            reset_epoch();
            restart_merit = merit;
            ++restarts;
        }
    }
    shell.guardExit();

    unscale_iterates();
    result.x = x_u;
    result.y = y_u;
    result.z = z_u;
    info.objective = original.objective(result.x);
    info.telemetry.restarts = restarts;
    shell.finish(result);
    return result;
}

} // namespace rsqp
