#include "solver.hpp"

#include <algorithm>
#include <cmath>
#include <string>

#include "common/logging.hpp"
#include "common/timer.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/polish.hpp"
#include "osqp/residuals.hpp"
#include "telemetry/trace.hpp"

namespace rsqp
{

OsqpSolver::OsqpSolver(QpProblem problem, OsqpSettings settings)
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

    rhoBar_ = settings_.rho;
    sigmaEff_ = settings_.sigma;
    buildRhoVec(rhoBar_);
    rebuildKktSolver();

    x_.assign(static_cast<std::size_t>(n_), 0.0);
    y_.assign(static_cast<std::size_t>(m_), 0.0);
    z_.assign(static_cast<std::size_t>(m_), 0.0);
    setupSeconds_ = setup_timer.seconds();
}

OsqpSolver::~OsqpSolver() = default;

void
OsqpSolver::buildRhoVec(Real rho_bar)
{
    const QpProblem& scaled = qp_.scaled();
    rhoVec_.resize(static_cast<std::size_t>(m_));
    rhoInvVec_.resize(static_cast<std::size_t>(m_));
    for (Index i = 0; i < m_; ++i) {
        const auto s = static_cast<std::size_t>(i);
        const ConstraintClass cls = constraintClass(scaled.l[s], scaled.u[s]);
        Real rho_i = rho_bar;
        if (cls == ConstraintClass::Loose)
            rho_i = settings_.rhoMin;  // keep its multiplier near zero
        else if (cls == ConstraintClass::Equality)
            rho_i = settings_.rhoEqScale * rho_bar;
        rho_i = clampReal(rho_i, settings_.rhoMin, settings_.rhoMax);
        rhoVec_[s] = rho_i;
        rhoInvVec_[s] = 1.0 / rho_i;
    }
}

void
OsqpSolver::rebuildKktSolver()
{
    const QpProblem& scaled = qp_.scaled();
    switch (settings_.backend) {
      case KktBackend::DirectLdl:
        kkt_ = std::make_unique<DirectKktSolver>(
            scaled.pUpper, scaled.a, sigmaEff_, rhoVec_);
        break;
      case KktBackend::IndirectPcg:
        kkt_ = std::make_unique<IndirectKktSolver>(
            scaled.pUpper, scaled.a, sigmaEff_, rhoVec_, settings_.pcg);
        break;
    }
}

bool
OsqpSolver::warmStart(const Vector& x, const Vector& y)
{
    if (!qp_.scaleWarmStart(x, y, x_, y_))
        return false;
    qp_.scaled().a.spmv(x_, z_);
    return true;
}

void
OsqpSolver::updateLinearCost(const Vector& q)
{
    qp_.setLinearCost(q);
}

void
OsqpSolver::updateBounds(const Vector& l, const Vector& u)
{
    // A row that became loose or equality needs its class rho, as
    // osqp_update_bounds does through update_rho_vec.
    if (qp_.setBounds(l, u)) {
        buildRhoVec(rhoBar_);
        kkt_->updateRho(rhoVec_);
    }
}

void
OsqpSolver::updateRho(Real rho_bar)
{
    if (!qp_.ok())
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
    if (!qp_.setMatrixValues(p_values, a_values))
        return;
    // The KKT backends reference the scaled matrices setMatrixValues
    // just rewrote; refresh their execution forms in place when they
    // can (same sparsity pattern), rebuild from scratch otherwise.
    if (!kkt_->updateMatrixValues(qp_.scaled().pUpper.values(),
                                  qp_.scaled().a.values()))
        rebuildKktSolver();
}

bool
OsqpSolver::adaptRho(Real prim_res, Real dual_res, const Vector& x,
                     const Vector& y, const Vector& z)
{
    // Scaled residual ratio as in OSQP Section 5.2 (unscaled space).
    const QpProblem& original = qp_.original();
    Vector ax, px, aty;
    original.a.spmv(x, ax);
    original.pUpper.spmvSymUpper(x, px);
    original.a.spmvTranspose(y, aty);
    const Real prim_den = std::max(normInf(ax), normInf(z));
    const Real dual_den = std::max({normInf(px), normInf(aty),
                                    normInf(original.q)});
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
    if (!qp_.ok())
        return invalidProblemResult(qp_.validation(), setupSeconds_);

    const QpProblem& original = qp_.original();
    const QpProblem& scaled = qp_.scaled();
    OsqpResult result;
    OsqpInfo& info = result.info;
    SolveShell shell(SolveEngine::Admm, settings_, original,
                     faultInjector_.get(), setupSeconds_, info, x_, y_,
                     &z_);
    AccumulatingTimer kkt_timer;

    // A sigma boost from a previous solve's recovery is not sticky.
    if (sigmaEff_ != settings_.sigma) {
        sigmaEff_ = settings_.sigma;
        rebuildKktSolver();
    }
    // Per-solve hot-path counters: zero the backend's profiler so
    // info.hotPath reports this solve only.
    kkt_->resetHotPathProfile();

    // Recovery reaction: retry with a boosted sigma regularization.
    const SolveShell::Reaction boost_sigma = [this]() {
        sigmaEff_ *= settings_.faultTolerance.sigmaBoost;
        rebuildKktSolver();
        return "sigma = " + std::to_string(sigmaEff_);
    };

    Vector rhs_x(static_cast<std::size_t>(n_));
    Vector rhs_z(static_cast<std::size_t>(m_));
    Vector x_tilde, z_tilde;
    Vector x_prev, y_prev;
    Vector delta_x(static_cast<std::size_t>(n_));
    Vector delta_y(static_cast<std::size_t>(m_));
    Vector proj_arg(static_cast<std::size_t>(m_));

    const Real alpha = settings_.alpha;

    for (Index iter = 1; iter <= settings_.maxIter; ++iter) {
        TELEMETRY_SPAN("admm.iter");
        if (shell.timeUp())
            break;

        x_prev = x_;
        y_prev = y_;

        // Step 3: solve the (reduced) KKT system.
        for (Index j = 0; j < n_; ++j)
            rhs_x[static_cast<std::size_t>(j)] =
                sigmaEff_ * x_[static_cast<std::size_t>(j)] -
                scaled.q[static_cast<std::size_t>(j)];
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
                clampReal(proj_arg[s], scaled.l[s], scaled.u[s]);
            y_[s] += rhoVec_[s] * (z_relaxed - z_next);
            z_[s] = z_next;
        }

        info.iterations = iter;

        // Iterates are checked on every check and rho-adaptation
        // iteration; termination is tested on checks only.
        const bool check_now = (iter % settings_.checkInterval == 0) ||
            iter == settings_.maxIter;
        const bool adapt_now = settings_.adaptiveRho &&
            settings_.adaptiveRhoInterval > 0 &&
            (iter % settings_.adaptiveRhoInterval == 0);
        if (!check_now && !adapt_now)
            continue;

        // Unscale the iterates for residuals and certificates.
        Vector x_u, y_u, z_u;
        qp_.unscaleX(x_, x_u);
        qp_.unscaleY(y_, y_u);
        qp_.unscaleZ(z_, z_u);
        const ResidualInfo res = computeResiduals(
            original, x_u, y_u, z_u, settings_.epsAbs, settings_.epsRel);

        const SolveShell::Step step = shell.check(iter, res, boost_sigma);
        if (step == SolveShell::Step::Retry)
            continue;
        if (step == SolveShell::Step::Stop)
            break;

        if (check_now) {
            if (shell.converged(res))
                break;
            // Infeasibility certificates from consecutive iterates.
            qp_.unscaleDeltaX(x_, x_prev, delta_x);
            qp_.unscaleDeltaY(y_, y_prev, delta_y);
            if (shell.certifiesInfeasibility(delta_x, delta_y))
                break;
        }

        if (adapt_now &&
            adaptRho(res.primRes, res.dualRes, x_u, y_u, z_u))
            ++info.rhoUpdates;
    }
    shell.guardExit();

    // Final unscaled solution.
    qp_.unscaleX(x_, result.x);
    qp_.unscaleY(y_, result.y);
    qp_.unscaleZ(z_, result.z);
    info.objective = original.objective(result.x);

    if (settings_.polish && info.status == SolveStatus::Solved)
        result.polish = polishSolution(original, settings_, result);

    info.kktSolveTime = kkt_timer.totalSeconds();
    if (const HotPathProfiler* profiler = kkt_->hotPathProfiler())
        info.hotPath = profiler->snapshot();
    shell.finish(result);
    return result;
}

} // namespace rsqp
