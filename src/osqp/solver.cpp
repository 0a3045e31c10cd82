#include "solver.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "linalg/simd_kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/polish.hpp"
#include "osqp/residuals.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace rsqp
{

OsqpSolver::OsqpSolver(QpProblem problem, OsqpSettings settings)
    : settings_(std::move(settings)), original_(std::move(problem))
{
    Timer setup_timer;

    // Malformed settings and malformed problem data are both *caller*
    // input, not programming errors: record the diagnostics and come
    // up inert so solve() returns a typed InvalidProblem result
    // instead of crashing (the constructor threw RSQP_FATAL for bad
    // settings before PR 5).
    validation_ = validateSettings(settings_);
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

    rhoBar_ = settings_.rho;
    sigmaEff_ = settings_.sigma;
    buildRhoVec(rhoBar_);
    rebuildKktSolver();

    x_.assign(static_cast<std::size_t>(n_), 0.0);
    y_.assign(static_cast<std::size_t>(m_), 0.0);
    z_.assign(static_cast<std::size_t>(m_), 0.0);
    lastInfo_.setupTime = setup_timer.seconds();
}

OsqpSolver::~OsqpSolver() = default;

void
OsqpSolver::buildRhoVec(Real rho_bar)
{
    rhoVec_.resize(static_cast<std::size_t>(m_));
    rhoInvVec_.resize(static_cast<std::size_t>(m_));
    for (Index i = 0; i < m_; ++i) {
        const Real lo = scaled_.l[static_cast<std::size_t>(i)];
        const Real hi = scaled_.u[static_cast<std::size_t>(i)];
        Real rho_i = rho_bar;
        if (lo <= -kInf && hi >= kInf) {
            // Loose constraint: keep its multiplier near zero.
            rho_i = settings_.rhoMin;
        } else if (hi - lo < 1e-12) {
            // Equality constraint: stiffer rho speeds convergence.
            rho_i = settings_.rhoEqScale * rho_bar;
        }
        rho_i = clampReal(rho_i, settings_.rhoMin, settings_.rhoMax);
        rhoVec_[static_cast<std::size_t>(i)] = rho_i;
        rhoInvVec_[static_cast<std::size_t>(i)] = 1.0 / rho_i;
    }
}

void
OsqpSolver::rebuildKktSolver()
{
    switch (settings_.backend) {
      case KktBackend::DirectLdl:
        kkt_ = std::make_unique<DirectKktSolver>(
            scaled_.pUpper, scaled_.a, sigmaEff_, rhoVec_,
            settings_.ordering);
        break;
      case KktBackend::IndirectPcg:
        kkt_ = std::make_unique<IndirectKktSolver>(
            scaled_.pUpper, scaled_.a, sigmaEff_, rhoVec_,
            settings_.pcg);
        break;
    }
}

bool
OsqpSolver::warmStart(const Vector& x, const Vector& y)
{
    if (!validation_.ok())
        return false;  // inert solver: solve() reports InvalidProblem
    if (static_cast<Index>(x.size()) != n_ ||
        static_cast<Index>(y.size()) != m_) {
        // A malformed client guess must not take the solver down; the
        // next solve simply starts from the current iterates.
        RSQP_WARN("warmStart ignored: got sizes (", x.size(), ", ",
                  y.size(), "), expected (", n_, ", ", m_, ")");
        return false;
    }
    // Map the unscaled guess into scaled space.
    for (Index j = 0; j < n_; ++j)
        x_[static_cast<std::size_t>(j)] =
            scaling_.dInv[static_cast<std::size_t>(j)] *
            x[static_cast<std::size_t>(j)];
    for (Index i = 0; i < m_; ++i)
        y_[static_cast<std::size_t>(i)] = scaling_.c *
            scaling_.eInv[static_cast<std::size_t>(i)] *
            y[static_cast<std::size_t>(i)];
    scaled_.a.spmv(x_, z_);
    return true;
}

void
OsqpSolver::updateLinearCost(const Vector& q)
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
OsqpSolver::updateBounds(const Vector& l, const Vector& u)
{
    if (!validation_.ok())
        return;
    RSQP_ASSERT(static_cast<Index>(l.size()) == m_ &&
                static_cast<Index>(u.size()) == m_, "bound size mismatch");
    for (Index i = 0; i < m_; ++i)
        if (l[static_cast<std::size_t>(i)] > u[static_cast<std::size_t>(i)])
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
OsqpSolver::updateRho(Real rho_bar)
{
    if (!validation_.ok())
        return;
    if (rho_bar <= 0.0)
        RSQP_FATAL("rho must be positive, got ", rho_bar);
    rhoBar_ = clampReal(rho_bar, settings_.rhoMin, settings_.rhoMax);
    buildRhoVec(rhoBar_);
    kkt_->updateRho(rhoVec_);
}

void
OsqpSolver::updateMatrixValues(const std::vector<Real>& p_values,
                               const std::vector<Real>& a_values)
{
    if (!validation_.ok())
        return;
    if (!p_values.empty()) {
        RSQP_ASSERT(p_values.size() == original_.pUpper.values().size(),
                    "P value count mismatch");
        original_.pUpper.values() = p_values;
        // Re-apply the fixed scaling: Pb = c * D P D.
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
        // The backends reference the scaled matrices rewritten above;
        // refresh their execution forms in place when they can (same
        // sparsity pattern), rebuild from scratch otherwise.
        if (!kkt_->updateMatrixValues(scaled_.pUpper.values(),
                                      scaled_.a.values()))
            rebuildKktSolver();
    }
}

void
OsqpSolver::computeResiduals(const Vector& x, const Vector& y,
                             const Vector& z, Real& prim_res,
                             Real& dual_res, Real& eps_prim,
                             Real& eps_dual) const
{
    // All quantities here are unscaled.
    const ResidualInfo info = rsqp::computeResiduals(
        original_, x, y, z, settings_.epsAbs, settings_.epsRel);
    prim_res = info.primRes;
    dual_res = info.dualRes;
    eps_prim = info.epsPrim;
    eps_dual = info.epsDual;
}

bool
OsqpSolver::checkPrimalInfeasibility(const Vector& delta_y) const
{
    const Real norm_dy = normInf(delta_y);
    if (norm_dy <= settings_.epsPrimInf)
        return false;
    // Certificate: A' dy ~ 0 and u'(dy)+ + l'(dy)- sufficiently negative.
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
OsqpSolver::checkDualInfeasibility(const Vector& delta_x) const
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
        if (original_.l[static_cast<std::size_t>(i)] > -kInf && v < -tol)
            return false;
    }
    return true;
}

bool
OsqpSolver::adaptRho(Real prim_res, Real dual_res, const Vector& x,
                     const Vector& y, const Vector& z)
{
    // Scaled residual ratio as in OSQP Section 5.2 (unscaled space).
    Vector ax, px, aty;
    original_.a.spmv(x, ax);
    original_.pUpper.spmvSymUpper(x, px);
    original_.a.spmvTranspose(y, aty);
    const Real prim_den = std::max(normInf(ax), normInf(z));
    const Real dual_den = std::max({normInf(px), normInf(aty),
                                    normInf(original_.q)});
    const Real prim_rel = prim_res / std::max(prim_den, Real(1e-10));
    const Real dual_rel = dual_res / std::max(dual_den, Real(1e-10));
    const Real ratio = prim_rel / std::max(dual_rel, Real(1e-10));

    const Real rho_new =
        clampReal(rhoBar_ * std::sqrt(ratio), settings_.rhoMin,
                  settings_.rhoMax);
    if (rho_new > rhoBar_ * settings_.adaptiveRhoTolerance ||
        rho_new < rhoBar_ / settings_.adaptiveRhoTolerance) {
        rhoBar_ = rho_new;
        buildRhoVec(rhoBar_);
        kkt_->updateRho(rhoVec_);
        return true;
    }
    return false;
}

OsqpResult
OsqpSolver::solve()
{
    TELEMETRY_SPAN("admm.solve");
    Timer solve_timer;
    AccumulatingTimer kkt_timer;

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

    // A sigma boost from a previous solve's recovery is not sticky.
    if (sigmaEff_ != settings_.sigma) {
        sigmaEff_ = settings_.sigma;
        rebuildKktSolver();
    }
    // Per-solve hot-path counters: zero the backend's profiler so
    // info.hotPath reports this solve only.
    kkt_->resetHotPathProfile();

    // Soft-error source for the software PCG path (tests/bench only);
    // each solve sees a fresh deterministic fault pattern.
    FaultScope fault_scope(faultInjector_.get());
    if (faultInjector_ != nullptr)
        faultInjector_->advanceEpoch();

    const FaultToleranceSettings& ft = settings_.faultTolerance;
    DivergenceWatchdog watchdog(ft);
    IterateCheckpoint checkpoint;
    Index recovery_attempts = 0;
    const Count faults_before = faultInjector_ != nullptr
                                    ? faultInjector_->faultsInjected()
                                    : 0;

    Vector rhs_x(static_cast<std::size_t>(n_));
    Vector rhs_z(static_cast<std::size_t>(m_));
    Vector x_tilde, z_tilde;
    Vector x_prev, y_prev;
    Vector delta_x(static_cast<std::size_t>(n_));
    Vector delta_y(static_cast<std::size_t>(m_));
    Vector proj_arg(static_cast<std::size_t>(m_));

    const Real alpha = settings_.alpha;

    // Roll the iterates back to the last-good checkpoint (or a cold
    // start if none was taken yet).
    const auto roll_back = [&]() {
        if (checkpoint.valid()) {
            checkpoint.restore(x_, y_, z_);
        } else {
            x_.assign(static_cast<std::size_t>(n_), 0.0);
            y_.assign(static_cast<std::size_t>(m_), 0.0);
            z_.assign(static_cast<std::size_t>(m_), 0.0);
        }
    };

    // One checkpoint-restore + sigma-boost recovery attempt. Returns
    // false when the watchdog is off or the attempt budget is spent —
    // the caller then terminates with a typed failure.
    const auto try_recover = [&](Index iter, const char* trigger) {
        if (!ft.watchdog || recovery_attempts >= ft.maxRecoveryAttempts)
            return false;
        ++recovery_attempts;
        roll_back();
        sigmaEff_ *= ft.sigmaBoost;
        rebuildKktSolver();
        watchdog.reset();
        info.recovery.record(RecoveryAction::CheckpointRestore, iter,
                             std::string(trigger) + "; rolled back to " +
                                 (checkpoint.valid()
                                      ? "iteration " +
                                            std::to_string(
                                                checkpoint.iteration())
                                      : std::string("a cold start")));
        ++info.recovery.checkpointRestores;
        info.recovery.record(RecoveryAction::SigmaBoost, iter,
                             "sigma = " + std::to_string(sigmaEff_));
        ++info.recovery.sigmaBoosts;
        RSQP_WARN("admm recovery at iteration ", iter, ": ", trigger,
                  "; sigma boosted to ", sigmaEff_);
        return true;
    };

    for (Index iter = 1; iter <= settings_.maxIter; ++iter) {
        TELEMETRY_SPAN("admm.iter");
        // A wall-clock budget turns a hung or flailing solve into a
        // typed result instead of an unbounded stall.
        if (settings_.timeLimit > 0.0 &&
            solve_timer.seconds() >= settings_.timeLimit) {
            info.status = SolveStatus::TimeLimitReached;
            break;
        }

        x_prev = x_;
        y_prev = y_;

        // Step 3: solve the (reduced) KKT system.
        for (Index j = 0; j < n_; ++j)
            rhs_x[static_cast<std::size_t>(j)] =
                sigmaEff_ * x_[static_cast<std::size_t>(j)] -
                scaled_.q[static_cast<std::size_t>(j)];
        for (Index i = 0; i < m_; ++i)
            rhs_z[static_cast<std::size_t>(i)] =
                z_[static_cast<std::size_t>(i)] -
                rhoInvVec_[static_cast<std::size_t>(i)] *
                    y_[static_cast<std::size_t>(i)];
        kkt_timer.start();
        const KktSolveStats kstats =
            kkt_->solve(rhs_x, rhs_z, x_tilde, z_tilde);
        kkt_timer.stop();
        ++info.telemetry.kktSolves;
        info.pcgIterationsTotal += kstats.pcgIterations;
        if (kstats.usedFallback) {
            info.recovery.record(RecoveryAction::PcgDirectFallback, iter,
                                 toString(kstats.pcgBreakdown));
            ++info.recovery.pcgFallbacks;
        }

        // Steps 5-7: relaxation, projection, dual update.
        for (Index j = 0; j < n_; ++j)
            x_[static_cast<std::size_t>(j)] =
                alpha * x_tilde[static_cast<std::size_t>(j)] +
                (1.0 - alpha) * x_[static_cast<std::size_t>(j)];
        for (Index i = 0; i < m_; ++i) {
            const auto s = static_cast<std::size_t>(i);
            const Real z_relaxed =
                alpha * z_tilde[s] + (1.0 - alpha) * z_[s];
            proj_arg[s] = z_relaxed + rhoInvVec_[s] * y_[s];
            const Real z_next =
                clampReal(proj_arg[s], scaled_.l[s], scaled_.u[s]);
            y_[s] += rhoVec_[s] * (z_relaxed - z_next);
            z_[s] = z_next;
        }

        info.iterations = iter;

        const bool check_now = (iter % settings_.checkInterval == 0) ||
            iter == settings_.maxIter;
        const bool adapt_now = settings_.adaptiveRho &&
            settings_.adaptiveRhoInterval > 0 &&
            (iter % settings_.adaptiveRhoInterval == 0);
        if (!check_now && !adapt_now)
            continue;

        if (hasNonFinite(x_) || hasNonFinite(y_) || hasNonFinite(z_)) {
            if (try_recover(iter, "non-finite iterates"))
                continue;
            roll_back();  // never hand back a poisoned iterate
            info.status = SolveStatus::NumericalError;
            break;
        }

        // Unscale the iterates for residuals and certificates.
        Vector x_u(static_cast<std::size_t>(n_));
        Vector y_u(static_cast<std::size_t>(m_));
        Vector z_u(static_cast<std::size_t>(m_));
        for (Index j = 0; j < n_; ++j)
            x_u[static_cast<std::size_t>(j)] =
                scaling_.d[static_cast<std::size_t>(j)] *
                x_[static_cast<std::size_t>(j)];
        for (Index i = 0; i < m_; ++i) {
            const auto s = static_cast<std::size_t>(i);
            y_u[s] = scaling_.cInv * scaling_.e[s] * y_[s];
            z_u[s] = scaling_.eInv[s] * z_[s];
        }

        Real prim_res = 0.0, dual_res = 0.0, eps_prim = 0.0,
             eps_dual = 0.0;
        computeResiduals(x_u, y_u, z_u, prim_res, dual_res, eps_prim,
                         eps_dual);
        info.primRes = prim_res;
        info.dualRes = dual_res;
        info.telemetry.pushResidual(iter, prim_res, dual_res);

        if (settings_.recordTrace) {
            IterationRecord rec;
            rec.iteration = iter;
            rec.primRes = prim_res;
            rec.dualRes = dual_res;
            rec.rho = rhoBar_;
            rec.pcgIterations = kstats.pcgIterations;
            result.trace.push_back(rec);
        }

        if (ft.watchdog) {
            const DivergenceWatchdog::Verdict verdict =
                watchdog.observe(prim_res, dual_res);
            if (verdict == DivergenceWatchdog::Verdict::Diverged) {
                if (try_recover(iter, "residual divergence"))
                    continue;
                roll_back();
                info.status = SolveStatus::NumericalError;
                break;
            }
            if (verdict == DivergenceWatchdog::Verdict::Stalled) {
                // One recovery shot; out of attempts the solve just
                // runs to its iteration budget.
                if (try_recover(iter, "residual stall"))
                    continue;
            } else {
                checkpoint.capture(x_, y_, z_, iter);
            }
        }

        if (check_now) {
            if (prim_res <= eps_prim && dual_res <= eps_dual) {
                info.status = SolveStatus::Solved;
                break;
            }
            // Infeasibility certificates from the iterate deltas.
            for (Index j = 0; j < n_; ++j)
                delta_x[static_cast<std::size_t>(j)] =
                    scaling_.d[static_cast<std::size_t>(j)] *
                    (x_[static_cast<std::size_t>(j)] -
                     x_prev[static_cast<std::size_t>(j)]);
            for (Index i = 0; i < m_; ++i) {
                const auto s = static_cast<std::size_t>(i);
                delta_y[s] = scaling_.cInv * scaling_.e[s] *
                    (y_[s] - y_prev[s]);
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

        if (adapt_now && adaptRho(prim_res, dual_res, x_u, y_u, z_u))
            ++info.rhoUpdates;
    }

    // Exit paths that break out between termination checks (time
    // limit, iteration cap) may carry iterates an injected fault
    // poisoned after the last screen — never return them.
    if (hasNonFinite(x_) || hasNonFinite(y_) || hasNonFinite(z_)) {
        roll_back();
        if (info.status != SolveStatus::TimeLimitReached)
            info.status = SolveStatus::NumericalError;
    }

    // Final unscaled solution.
    result.x.resize(static_cast<std::size_t>(n_));
    result.y.resize(static_cast<std::size_t>(m_));
    result.z.resize(static_cast<std::size_t>(m_));
    for (Index j = 0; j < n_; ++j)
        result.x[static_cast<std::size_t>(j)] =
            scaling_.d[static_cast<std::size_t>(j)] *
            x_[static_cast<std::size_t>(j)];
    for (Index i = 0; i < m_; ++i) {
        const auto s = static_cast<std::size_t>(i);
        result.y[s] = scaling_.cInv * scaling_.e[s] * y_[s];
        result.z[s] = scaling_.eInv[s] * z_[s];
    }
    info.objective = original_.objective(result.x);

    if (settings_.polish && info.status == SolveStatus::Solved)
        result.polish = polishSolution(original_, settings_, result);

    info.solveTime = solve_timer.seconds();
    info.kktSolveTime = kkt_timer.totalSeconds();
    if (const HotPathProfiler* profiler = kkt_->hotPathProfiler())
        info.hotPath = profiler->snapshot();

    // Per-solve telemetry record + process-wide aggregates. The
    // registry adds happen once per solve (never per iteration), so
    // their cost is invisible next to even one KKT step.
    SolveTelemetry& tele = info.telemetry;
    tele.backend = backendKindName(BackendKind::Admm);
    tele.iterations = info.iterations;
    tele.pcgIterationsTotal = info.pcgIterationsTotal;
    tele.pcgItersPerSolve = tele.kktSolves > 0
        ? static_cast<Real>(tele.pcgIterationsTotal) /
            static_cast<Real>(tele.kktSolves)
        : 0.0;
    tele.isaLevel = isaLevelName(simd::activeIsaLevel());
    tele.recoveryEvents =
        static_cast<Count>(info.recovery.events.size());
    tele.faultsInjected = faultInjector_ != nullptr
        ? faultInjector_->faultsInjected() - faults_before
        : 0;
    tele.solveSeconds = info.solveTime;
    {
        using telemetry::MetricsRegistry;
        MetricsRegistry& registry = MetricsRegistry::global();
        static telemetry::Counter& solves = registry.counter(
            "rsqp_admm_solves_total", "Completed OsqpSolver::solve "
            "calls");
        static telemetry::Counter& iterations = registry.counter(
            "rsqp_admm_iterations_total", "ADMM iterations executed");
        static telemetry::Counter& pcg_iterations = registry.counter(
            "rsqp_admm_pcg_iterations_total",
            "Inner PCG iterations executed");
        static telemetry::Counter& rho_updates = registry.counter(
            "rsqp_admm_rho_updates_total", "Adaptive-rho refactors");
        static telemetry::Counter& recoveries = registry.counter(
            "rsqp_admm_recovery_events_total",
            "Watchdog/fallback recovery actions");
        static telemetry::Histogram& solve_ns = registry.histogram(
            "rsqp_admm_solve_ns", "Wall-clock nanoseconds per solve");
        solves.increment();
        iterations.add(static_cast<std::uint64_t>(info.iterations));
        pcg_iterations.add(
            static_cast<std::uint64_t>(info.pcgIterationsTotal));
        rho_updates.add(static_cast<std::uint64_t>(info.rhoUpdates));
        recoveries.add(
            static_cast<std::uint64_t>(tele.recoveryEvents));
        solve_ns.observe(
            static_cast<std::uint64_t>(info.solveTime * 1e9));
    }

    lastInfo_ = info;
    return result;
}

} // namespace rsqp
