#include "backends/pdhg_solver.hpp"

#include <algorithm>
#include <cmath>
#include <string>
#include <utility>

#include "backends/backend_metrics.hpp"
#include "common/logging.hpp"
#include "common/timer.hpp"
#include "linalg/simd_kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/residuals.hpp"
#include "osqp/validate.hpp"
#include "telemetry/trace.hpp"

namespace rsqp
{

namespace
{

/**
 * Additional settings checks specific to this engine (the shared
 * validateSettings already covers alpha/rho/tolerance ranges).
 */
void
validatePdhgKnobs(const PdhgConfig& pdhg, ValidationReport& report)
{
    const auto add = [&report](std::string message) {
        ValidationIssue issue;
        issue.code = ValidationCode::InvalidSetting;
        issue.message = std::move(message);
        report.issues.push_back(std::move(issue));
    };
    if (pdhg.restartInterval < 1)
        add("pdhg.restartInterval must be >= 1, got " +
            std::to_string(pdhg.restartInterval));
    if (!(pdhg.restartBeta > 0.0 && pdhg.restartBeta < 1.0))
        add("pdhg.restartBeta must be in (0, 1), got " +
            std::to_string(pdhg.restartBeta));
    if (pdhg.primalWeight < 0.0)
        add("pdhg.primalWeight must be >= 0 (0 = automatic), got " +
            std::to_string(pdhg.primalWeight));
    if (!(pdhg.stepBalanceSmoothing >= 0.0 &&
          pdhg.stepBalanceSmoothing <= 1.0))
        add("pdhg.stepBalanceSmoothing must be in [0, 1], got " +
            std::to_string(pdhg.stepBalanceSmoothing));
    if (!(pdhg.primalWeightMax > 1.0))
        add("pdhg.primalWeightMax must be > 1, got " +
            std::to_string(pdhg.primalWeightMax));
    if (pdhg.warmupChecks < 0)
        add("pdhg.warmupChecks must be >= 0, got " +
            std::to_string(pdhg.warmupChecks));
    if (pdhg.powerIterations < 1)
        add("pdhg.powerIterations must be >= 1, got " +
            std::to_string(pdhg.powerIterations));
    if (!(pdhg.stepSafety >= 1.0))
        add("pdhg.stepSafety must be >= 1, got " +
            std::to_string(pdhg.stepSafety));
}

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
    : settings_(std::move(settings)), original_(std::move(problem))
{
    Timer setup_timer;

    validation_ = validateSettings(settings_);
    validatePdhgKnobs(settings_.firstOrder.pdhg, validation_);
    ValidationReport problem_report = validateProblem(original_);
    validation_.issues.insert(validation_.issues.end(),
                              problem_report.issues.begin(),
                              problem_report.issues.end());
    if (!validation_.ok()) {
        RSQP_WARN("problem '", original_.name,
                  "' failed validation:\n", validation_.describe());
        lastInfo_.status = SolveStatus::InvalidProblem;
        lastInfo_.setupTime = setup_timer.seconds();
        return;
    }

    if (settings_.faultInjection.enabled)
        faultInjector_ =
            std::make_unique<FaultInjector>(settings_.faultInjection);

    n_ = original_.numVariables();
    m_ = original_.numConstraints();

    scaled_ = original_;
    scaling_ = ruizEquilibrate(scaled_, settings_.scalingIterations);

    rebuildMirrors();
    estimateOperatorNorms();
    omega_ = initialPrimalWeight();
    applyStepSizes();

    x_.assign(static_cast<std::size_t>(n_), 0.0);
    y_.assign(static_cast<std::size_t>(m_), 0.0);
    lastInfo_.setupTime = setup_timer.seconds();
}

void
PdhgSolver::rebuildMirrors()
{
    aCsr_ = CsrMatrix::fromCsc(scaled_.a);
    atCsr_ = CsrMatrix::fromCsc(scaled_.a.transpose());
    pCsr_ = CsrMatrix::fromCsc(scaled_.pUpper.symUpperToFull());
}

void
PdhgSolver::estimateOperatorNorms()
{
    const Index sweeps = settings_.firstOrder.pdhg.powerIterations;
    const Real margin = settings_.firstOrder.pdhg.stepSafety;

    // ||A||_2 via power iteration on A'A.
    if (m_ > 0 && scaled_.a.nnz() > 0) {
        Vector v, av, atav;
        seedPowerVector(v, static_cast<std::size_t>(n_));
        Real lam = 0.0;
        for (Index k = 0; k < sweeps; ++k) {
            const Real nv = norm2(v);
            if (!(nv > 0.0))
                break;
            scale(v, 1.0 / nv);
            aCsr_.spmv(v, av);
            atCsr_.spmv(av, atav);
            lam = norm2(atav);  // Rayleigh bound ||A'Av|| >= lambda
            v = atav;
        }
        etaA_ = std::max(std::sqrt(std::max(lam, Real(0.0))) * margin,
                         Real(1e-12));
    } else {
        etaA_ = 1e-12;
    }

    // lambda_max(P) via power iteration on the full symmetric mirror.
    if (pCsr_.nnz() > 0) {
        Vector v, pv;
        seedPowerVector(v, static_cast<std::size_t>(n_));
        Real lam = 0.0;
        for (Index k = 0; k < sweeps; ++k) {
            const Real nv = norm2(v);
            if (!(nv > 0.0))
                break;
            scale(v, 1.0 / nv);
            pCsr_.spmv(v, pv);
            lam = norm2(pv);
            v = pv;
        }
        lamP_ = std::max(lam, Real(0.0)) * margin;
    } else {
        lamP_ = 0.0;
    }
}

void
PdhgSolver::applyStepSizes()
{
    // sigma = omega / ||A||; tau from the Condat–Vũ condition
    // tau (lam_P/2 + sigma ||A||^2) <= 1 with the safety margin.
    const Real margin = settings_.firstOrder.pdhg.stepSafety;
    sigma_ = omega_ / etaA_;
    tau_ = 1.0 / (margin * (0.5 * lamP_ + omega_ * etaA_));
}

Real
PdhgSolver::initialPrimalWeight() const
{
    const Real configured = settings_.firstOrder.pdhg.primalWeight;
    const Real cap = settings_.firstOrder.pdhg.primalWeightMax;
    if (configured > 0.0)
        return clampReal(configured, 1.0 / cap, cap);
    // PDLP-style data-driven default: balance the primal gradient
    // magnitude against the bound magnitude (infinite bounds excluded).
    const Real nq = norm2(scaled_.q);
    Real nb = 0.0;
    for (Index i = 0; i < m_; ++i) {
        const Real lo = scaled_.l[static_cast<std::size_t>(i)];
        const Real hi = scaled_.u[static_cast<std::size_t>(i)];
        if (lo > -kInf)
            nb += lo * lo;
        if (hi < kInf)
            nb += hi * hi;
    }
    nb = std::sqrt(nb);
    if (!(nq > 0.0) || !(nb > 0.0))
        return 1.0;
    return clampReal(nq / nb, 1.0 / cap, cap);
}

bool
PdhgSolver::warmStart(const Vector& x, const Vector& y)
{
    if (!validation_.ok())
        return false;
    if (static_cast<Index>(x.size()) != n_ ||
        static_cast<Index>(y.size()) != m_) {
        RSQP_WARN("warmStart ignored: got sizes (", x.size(), ", ",
                  y.size(), "), expected (", n_, ", ", m_, ")");
        return false;
    }
    for (Index j = 0; j < n_; ++j)
        x_[static_cast<std::size_t>(j)] =
            scaling_.dInv[static_cast<std::size_t>(j)] *
            x[static_cast<std::size_t>(j)];
    for (Index i = 0; i < m_; ++i)
        y_[static_cast<std::size_t>(i)] = scaling_.c *
            scaling_.eInv[static_cast<std::size_t>(i)] *
            y[static_cast<std::size_t>(i)];
    return true;
}

void
PdhgSolver::updateLinearCost(const Vector& q)
{
    if (!validation_.ok())
        return;
    RSQP_ASSERT(static_cast<Index>(q.size()) == n_, "q size mismatch");
    original_.q = q;
    for (Index j = 0; j < n_; ++j)
        scaled_.q[static_cast<std::size_t>(j)] = scaling_.c *
            scaling_.d[static_cast<std::size_t>(j)] *
            q[static_cast<std::size_t>(j)];
}

void
PdhgSolver::updateBounds(const Vector& l, const Vector& u)
{
    if (!validation_.ok())
        return;
    RSQP_ASSERT(static_cast<Index>(l.size()) == m_ &&
                    static_cast<Index>(u.size()) == m_,
                "bound size mismatch");
    for (Index i = 0; i < m_; ++i)
        if (l[static_cast<std::size_t>(i)] >
            u[static_cast<std::size_t>(i)])
            RSQP_FATAL("updateBounds: l > u at constraint ", i);
    original_.l = l;
    original_.u = u;
    for (Index i = 0; i < m_; ++i) {
        const Real e_i = scaling_.e[static_cast<std::size_t>(i)];
        const Real lo = l[static_cast<std::size_t>(i)];
        const Real hi = u[static_cast<std::size_t>(i)];
        scaled_.l[static_cast<std::size_t>(i)] =
            (lo <= -kInf) ? lo : e_i * lo;
        scaled_.u[static_cast<std::size_t>(i)] =
            (hi >= kInf) ? hi : e_i * hi;
    }
}

void
PdhgSolver::updateMatrixValues(const std::vector<Real>& p_values,
                               const std::vector<Real>& a_values)
{
    if (!validation_.ok())
        return;
    if (!p_values.empty()) {
        RSQP_ASSERT(p_values.size() == original_.pUpper.values().size(),
                    "P value count mismatch");
        original_.pUpper.values() = p_values;
        auto& scaled_vals = scaled_.pUpper.values();
        const auto& col_ptr = scaled_.pUpper.colPtr();
        const auto& row_idx = scaled_.pUpper.rowIdx();
        for (Index c = 0; c < n_; ++c)
            for (Index p = col_ptr[c]; p < col_ptr[c + 1]; ++p)
                scaled_vals[static_cast<std::size_t>(p)] = scaling_.c *
                    scaling_.d[static_cast<std::size_t>(row_idx[p])] *
                    scaling_.d[static_cast<std::size_t>(c)] *
                    p_values[static_cast<std::size_t>(p)];
    }
    if (!a_values.empty()) {
        RSQP_ASSERT(a_values.size() == original_.a.values().size(),
                    "A value count mismatch");
        original_.a.values() = a_values;
        auto& scaled_vals = scaled_.a.values();
        const auto& col_ptr = scaled_.a.colPtr();
        const auto& row_idx = scaled_.a.rowIdx();
        for (Index c = 0; c < n_; ++c)
            for (Index p = col_ptr[c]; p < col_ptr[c + 1]; ++p)
                scaled_vals[static_cast<std::size_t>(p)] =
                    scaling_.e[static_cast<std::size_t>(row_idx[p])] *
                    scaling_.d[static_cast<std::size_t>(c)] *
                    a_values[static_cast<std::size_t>(p)];
    }
    if (!p_values.empty() || !a_values.empty()) {
        // New operator values change the valid step sizes too.
        rebuildMirrors();
        estimateOperatorNorms();
        applyStepSizes();
    }
}

bool
PdhgSolver::checkPrimalInfeasibility(const Vector& delta_y) const
{
    const Real norm_dy = normInf(delta_y);
    if (norm_dy <= settings_.epsPrimInf)
        return false;
    Vector at_dy;
    original_.a.spmvTranspose(delta_y, at_dy);
    if (normInf(at_dy) > settings_.epsPrimInf * norm_dy)
        return false;
    Real support = 0.0;
    for (Index i = 0; i < m_; ++i) {
        const Real dy_i = delta_y[static_cast<std::size_t>(i)];
        if (dy_i > 0.0) {
            const Real u_i = original_.u[static_cast<std::size_t>(i)];
            if (u_i >= kInf)
                return false;
            support += u_i * dy_i;
        } else if (dy_i < 0.0) {
            const Real l_i = original_.l[static_cast<std::size_t>(i)];
            if (l_i <= -kInf)
                return false;
            support += l_i * dy_i;
        }
    }
    return support <= -settings_.epsPrimInf * norm_dy;
}

bool
PdhgSolver::checkDualInfeasibility(const Vector& delta_x) const
{
    const Real norm_dx = normInf(delta_x);
    if (norm_dx <= settings_.epsDualInf)
        return false;
    if (dot(original_.q, delta_x) > -settings_.epsDualInf * norm_dx)
        return false;
    Vector p_dx;
    original_.pUpper.spmvSymUpper(delta_x, p_dx);
    if (normInf(p_dx) > settings_.epsDualInf * norm_dx)
        return false;
    Vector a_dx;
    original_.a.spmv(delta_x, a_dx);
    const Real tol = settings_.epsDualInf * norm_dx;
    for (Index i = 0; i < m_; ++i) {
        const Real v = a_dx[static_cast<std::size_t>(i)];
        if (original_.u[static_cast<std::size_t>(i)] < kInf && v > tol)
            return false;
        if (original_.l[static_cast<std::size_t>(i)] > -kInf &&
            v < -tol)
            return false;
    }
    return true;
}

OsqpResult
PdhgSolver::solve()
{
    TELEMETRY_SPAN("pdhg.solve");
    Timer solve_timer;

    OsqpResult result;
    OsqpInfo& info = result.info;
    info = lastInfo_;
    info.status = SolveStatus::MaxIterReached;
    info.iterations = 0;
    info.rhoUpdates = 0;
    info.pcgIterationsTotal = 0;
    info.hotPath = HotPathProfile{};
    info.recovery = RecoveryReport{};
    info.telemetry = SolveTelemetry{};

    if (!validation_.ok()) {
        result.validation = validation_;
        info.status = SolveStatus::InvalidProblem;
        info.solveTime = solve_timer.seconds();
        lastInfo_ = info;
        return result;
    }

    const PdhgConfig& cfg = settings_.firstOrder.pdhg;

    // Soft-error source for the operator stream (tests/bench only);
    // each solve sees a fresh deterministic fault pattern.
    FaultScope fault_scope(faultInjector_.get());
    if (faultInjector_ != nullptr)
        faultInjector_->advanceEpoch();
    FaultInjector* injector = activeFaultInjector();
    const std::uint64_t call_offset =
        injector != nullptr ? injector->acquireNonce() << 20 : 0;
    const Count faults_before = faultInjector_ != nullptr
                                    ? faultInjector_->faultsInjected()
                                    : 0;

    const FaultToleranceSettings& ft = settings_.faultTolerance;
    DivergenceWatchdog watchdog(ft);
    IterateCheckpoint checkpoint;
    Index recovery_attempts = 0;
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

    const auto unscale_iterates = [&]() {
        for (Index j = 0; j < n_; ++j)
            x_u[static_cast<std::size_t>(j)] =
                scaling_.d[static_cast<std::size_t>(j)] *
                x_[static_cast<std::size_t>(j)];
        for (Index i = 0; i < m_; ++i) {
            const auto s = static_cast<std::size_t>(i);
            y_u[s] = scaling_.cInv * scaling_.e[s] * y_[s];
        }
    };

    const auto reset_epoch = [&]() {
        std::fill(x_sum.begin(), x_sum.end(), 0.0);
        std::fill(y_sum.begin(), y_sum.end(), 0.0);
        x_anchor = x_;
        y_anchor = y_;
        epoch_len = 0;
    };

    const auto roll_back = [&]() {
        Vector z_dummy;
        if (checkpoint.valid()) {
            checkpoint.restore(x_, y_, z_dummy);
        } else {
            x_.assign(static_cast<std::size_t>(n_), 0.0);
            y_.assign(static_cast<std::size_t>(m_), 0.0);
        }
    };

    // One checkpoint-restore + step-size-backoff recovery attempt:
    // the PDHG analog of the ADMM sigma boost is halving both steps
    // (their product condition keeps holding with extra slack).
    const auto try_recover = [&](Index iter, const char* trigger) {
        if (!ft.watchdog || recovery_attempts >= ft.maxRecoveryAttempts)
            return false;
        ++recovery_attempts;
        roll_back();
        tau_ *= 0.5;
        sigma_ *= 0.5;
        reset_epoch();
        restart_merit = kInf;
        have_prev_check = false;
        watchdog.reset();
        info.recovery.record(RecoveryAction::CheckpointRestore, iter,
                             std::string(trigger) +
                                 "; rolled back to " +
                                 (checkpoint.valid()
                                      ? "iteration " +
                                            std::to_string(
                                                checkpoint.iteration())
                                      : std::string("a cold start")));
        ++info.recovery.checkpointRestores;
        info.recovery.record(RecoveryAction::SigmaBoost, iter,
                             "step backoff: tau = " +
                                 std::to_string(tau_) + ", sigma = " +
                                 std::to_string(sigma_));
        ++info.recovery.sigmaBoosts;
        RSQP_WARN("pdhg recovery at iteration ", iter, ": ", trigger,
                  "; steps halved to tau=", tau_, " sigma=", sigma_);
        return true;
    };

    for (Index iter = 1; iter <= settings_.maxIter; ++iter) {
        TELEMETRY_SPAN("pdhg.iter");
        if (settings_.timeLimit > 0.0 &&
            solve_timer.seconds() >= settings_.timeLimit) {
            info.status = SolveStatus::TimeLimitReached;
            break;
        }

        // Primal step: x+ = x - tau (P x + q + A' y).
        pCsr_.spmv(x_, px);
        atCsr_.spmv(y_, aty);
        if (injector != nullptr) {
            // Same hook shape as the PCG operator stream: a per-call
            // offset keeps a word position from being deterministically
            // faulty on every application of the operator.
            injector->corruptVector(px, fault_streams::kPdhgOperator +
                                            call_offset + iter);
        }
        const Real tau = tau_;
        for (Index j = 0; j < n_; ++j) {
            const auto s = static_cast<std::size_t>(j);
            x_next[s] =
                x_[s] - tau * (px[s] + scaled_.q[s] + aty[s]);
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
                clampReal(w, scaled_.l[s], scaled_.u[s]);
            y_[s] = sigma * (w - proj);
        }
        ++epoch_len;

        if (cfg.restart == PdhgRestart::Halpern) {
            // Halpern anchoring: blend every iterate back toward the
            // epoch anchor with weight 1/(k+2) — the rAPDHG scheme
            // that restores an O(1/k) rate on the fixed-point residual.
            const Real lambda =
                1.0 / static_cast<Real>(epoch_len + 1);
            for (Index j = 0; j < n_; ++j) {
                const auto s = static_cast<std::size_t>(j);
                x_[s] = (1.0 - lambda) * x_next[s] +
                    lambda * x_anchor[s];
            }
            for (Index i = 0; i < m_; ++i) {
                const auto s = static_cast<std::size_t>(i);
                y_[s] = (1.0 - lambda) * y_[s] +
                    lambda * y_anchor[s];
            }
        } else {
            x_.swap(x_next);
        }

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

        if (hasNonFinite(x_) || hasNonFinite(y_)) {
            if (try_recover(iter, "non-finite iterates"))
                continue;
            roll_back();
            info.status = SolveStatus::NumericalError;
            break;
        }

        // Unscaled residuals at the current iterate, with
        // z = Pi_[l,u](A x) as the auxiliary variable.
        unscale_iterates();
        original_.a.spmv(x_u, ax_u);
        ewClamp(ax_u, original_.l, original_.u, z_u);
        const ResidualInfo res =
            computeResiduals(original_, x_u, y_u, z_u, settings_.epsAbs,
                             settings_.epsRel);
        info.primRes = res.primRes;
        info.dualRes = res.dualRes;
        info.telemetry.pushResidual(iter, res.primRes, res.dualRes);

        if (settings_.recordTrace) {
            IterationRecord rec;
            rec.iteration = iter;
            rec.primRes = res.primRes;
            rec.dualRes = res.dualRes;
            rec.rho = omega_;  // the step-balance knob of this engine
            result.trace.push_back(rec);
        }

        if (ft.watchdog) {
            const DivergenceWatchdog::Verdict verdict =
                watchdog.observe(res.primRes, res.dualRes);
            if (verdict == DivergenceWatchdog::Verdict::Diverged) {
                if (try_recover(iter, "residual divergence"))
                    continue;
                roll_back();
                info.status = SolveStatus::NumericalError;
                break;
            }
            if (verdict == DivergenceWatchdog::Verdict::Stalled) {
                if (try_recover(iter, "residual stall"))
                    continue;
            } else {
                Vector z_dummy;
                checkpoint.capture(x_, y_, z_dummy, iter);
            }
        }

        if (res.converged()) {
            info.status = SolveStatus::Solved;
            break;
        }

        if (have_prev_check) {
            for (Index j = 0; j < n_; ++j) {
                const auto s = static_cast<std::size_t>(j);
                delta_x[s] = x_u[s] - x_u_prev[s];
            }
            for (Index i = 0; i < m_; ++i) {
                const auto s = static_cast<std::size_t>(i);
                delta_y[s] = y_u[s] - y_u_prev[s];
            }
            if (checkPrimalInfeasibility(delta_y)) {
                info.status = SolveStatus::PrimalInfeasible;
                break;
            }
            if (checkDualInfeasibility(delta_x)) {
                info.status = SolveStatus::DualInfeasible;
                break;
            }
        }
        x_u_prev = x_u;
        y_u_prev = y_u;
        have_prev_check = true;

        // --- Restart logic -------------------------------------------
        const Real merit = std::max(res.primRes, res.dualRes);
        bool do_restart = false;
        bool to_average = false;
        // Warm-up rebalance: the first few checks restart in place
        // with a full-strength omega update (see PdhgConfig).
        const bool warmup_now = cfg.adaptiveStepBalance &&
            warmups_done < cfg.warmupChecks &&
            cfg.restart != PdhgRestart::None;
        if (warmup_now) {
            do_restart = true;
            ++warmups_done;
        } else {
            switch (cfg.restart) {
            case PdhgRestart::None:
                break;
            case PdhgRestart::FixedFrequency:
                if (epoch_len >= cfg.restartInterval) {
                    do_restart = true;
                    to_average = true;
                }
                break;
            case PdhgRestart::Adaptive:
                // Sufficient decay since the last restart, or the
                // forced ceiling — whichever fires first.
                if (merit <= cfg.restartBeta * restart_merit ||
                    epoch_len >= cfg.restartInterval) {
                    do_restart = true;
                    to_average = true;
                }
                break;
            case PdhgRestart::Halpern:
                // Anchor refresh only; the iterate is anchored already.
                if (epoch_len >= cfg.restartInterval)
                    do_restart = true;
                break;
            }
        }

        if (do_restart) {
            if (to_average && epoch_len > 0) {
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
            }

            if (cfg.adaptiveStepBalance) {
                // PDLP primal-weight update: move omega toward the
                // observed dual/primal displacement ratio in log space.
                const Real dx = normInfDiff(x_, x_anchor);
                const Real dy = normInfDiff(y_, y_anchor);
                if (dx > 1e-12 && dy > 1e-12) {
                    const Real cap =
                        settings_.firstOrder.pdhg.primalWeightMax;
                    const Real s = warmup_now
                        ? 1.0
                        : settings_.firstOrder.pdhg
                              .stepBalanceSmoothing;
                    const Real target = std::log(dy / dx);
                    omega_ = clampReal(
                        std::exp(s * target +
                                 (1.0 - s) * std::log(omega_)),
                        1.0 / cap, cap);
                    applyStepSizes();
                }
            }

            reset_epoch();
            restart_merit = merit;
            ++restarts;
        }
    }

    if (hasNonFinite(x_) || hasNonFinite(y_)) {
        roll_back();
        if (info.status != SolveStatus::TimeLimitReached)
            info.status = SolveStatus::NumericalError;
    }

    // Final unscaled solution (z = Pi_[l,u](A x), the auxiliary
    // variable this engine drives A x toward).
    unscale_iterates();
    result.x = x_u;
    result.y = y_u;
    original_.a.spmv(x_u, ax_u);
    ewClamp(ax_u, original_.l, original_.u, z_u);
    result.z = z_u;
    info.objective = original_.objective(result.x);

    info.solveTime = solve_timer.seconds();
    info.kktSolveTime = 0.0;  // matrix-free: there is no KKT backend

    SolveTelemetry& tele = info.telemetry;
    tele.backend = backendKindName(BackendKind::Pdhg);
    tele.restarts = restarts;
    tele.iterations = info.iterations;
    tele.kktSolves = 0;
    tele.pcgIterationsTotal = 0;
    tele.pcgItersPerSolve = 0.0;
    tele.isaLevel = isaLevelName(simd::activeIsaLevel());
    tele.recoveryEvents =
        static_cast<Count>(info.recovery.events.size());
    tele.faultsInjected = faultInjector_ != nullptr
        ? faultInjector_->faultsInjected() - faults_before
        : 0;
    tele.solveSeconds = info.solveTime;
    recordBackendSolve(name(), info);

    lastInfo_ = info;
    return result;
}

} // namespace rsqp
