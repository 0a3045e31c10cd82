#include "rsqp_solver.hpp"

#include <cmath>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "hwmodel/resources.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/recovery.hpp"
#include "osqp/residuals.hpp"
#include "telemetry/trace.hpp"

namespace rsqp
{

RsqpSolver::RsqpSolver(QpProblem problem, OsqpSettings settings,
                       CustomizeSettings custom)
    : RsqpSolver(std::move(problem), std::move(settings),
                 std::move(custom), nullptr)
{}

RsqpSolver::RsqpSolver(
    QpProblem problem, OsqpSettings settings, CustomizeSettings custom,
    std::shared_ptr<const CustomizationArtifact> artifact)
    : qp_(std::move(problem), settings), settings_(std::move(settings))
{
    // Malformed settings or problem data leave the solver inert
    // (machine_ stays null); solve() then reports a typed
    // InvalidProblem result with the diagnostics instead of crashing
    // the deployment flow.
    if (!qp_.ok())
        return;
    // The device loop checks termination every checkInterval
    // iterations, so align maxIter (and the rho interval).
    const Index ci = settings_.checkInterval;
    settings_.maxIter = ((settings_.maxIter + ci - 1) / ci) * ci;
    if (settings_.adaptiveRho &&
        settings_.adaptiveRhoInterval % ci != 0) {
        settings_.adaptiveRhoInterval =
            ((settings_.adaptiveRhoInterval + ci - 1) / ci) * ci;
    }

    const QpProblem& scaled = qp_.scaled();
    if (artifact != nullptr && artifact->compatibleWith(scaled, custom)) {
        // Cache hit: the frozen structures/schedules/CVB plans apply
        // verbatim; only the value-dependent packing runs.
        custom_ = thawCustomization(scaled, *artifact, custom);
        customizationReused_ = true;
    } else {
        if (artifact != nullptr)
            RSQP_WARN("customization artifact incompatible with "
                      "problem '", qp_.original().name,
                      "'; running the full pipeline");
        custom_ = customizeProblem(scaled, custom);
    }

    ArchConfig config = custom_.config;
    machine_ = std::make_unique<Machine>(config);
    mats_.p = machine_->addMatrix(custom_.p.packed, custom_.p.plan, "P");
    mats_.a = machine_->addMatrix(custom_.a.packed, custom_.a.plan, "A");
    mats_.at =
        machine_->addMatrix(custom_.at.packed, custom_.at.plan, "At");
    mats_.atSq = machine_->addMatrix(custom_.atSq.packed,
                                     custom_.atSq.plan, "AtSq");
    prog_ = buildOsqpProgram(*machine_, mats_, scaled, qp_.scaling(),
                             settings_);
}

bool
RsqpSolver::warmStart(const Vector& x, const Vector& y)
{
    Vector xs, ys, zs;
    if (!qp_.scaleWarmStart(x, y, xs, ys))
        return false;
    qp_.scaled().a.spmv(xs, zs);
    machine_->setHbmVector(prog_.hbmX0, std::move(xs));
    machine_->setHbmVector(prog_.hbmY0, std::move(ys));
    machine_->setHbmVector(prog_.hbmZ0, std::move(zs));
    return true;
}

void
RsqpSolver::updateLinearCost(const Vector& q)
{
    if (machine_ == nullptr)
        return;
    qp_.setLinearCost(q);
    machine_->setHbmVector(prog_.hbmQ, qp_.scaled().q);
}

void
RsqpSolver::updateBounds(const Vector& l, const Vector& u)
{
    if (machine_ == nullptr)
        return;
    const bool class_changed = qp_.setBounds(l, u);
    machine_->setHbmVector(prog_.hbmL, qp_.scaled().l);
    machine_->setHbmVector(prog_.hbmU, qp_.scaled().u);
    // A row that changed class needs its device rho multiplier too.
    if (class_changed)
        machine_->setHbmVector(
            prog_.hbmRhoScale,
            rhoClassScales(qp_.scaled(), settings_.rhoEqScale));
}

void
RsqpSolver::updateMatrixValues(const std::vector<Real>& p_values,
                               const std::vector<Real>& a_values)
{
    if (!qp_.setMatrixValues(p_values, a_values))
        return;

    // Re-pack the affected matrices on the existing schedules and
    // rewrite the HBM streams (structure unchanged).
    const QpProblem& scaled = qp_.scaled();
    const StructureSet& set = custom_.config.structures;
    auto repack = [&](MatrixArtifacts& artifacts, CsrMatrix csr,
                      Index mat_id) {
        artifacts.csr = std::move(csr);
        artifacts.packed = packMatrix(artifacts.csr, artifacts.str,
                                      artifacts.schedule, set);
        machine_->updateMatrixValues(mat_id, artifacts.packed);
    };
    if (!p_values.empty()) {
        repack(custom_.p,
               CsrMatrix::fromCsc(scaled.pUpper.symUpperToFull()),
               mats_.p);
        // diag(P_scaled) + sigma feeds the on-device preconditioner.
        Vector diag_p_sigma = scaled.pUpper.diagonalVector();
        for (Real& v : diag_p_sigma)
            v += settings_.sigma;
        machine_->setHbmVector(prog_.hbmDiagP, std::move(diag_p_sigma));
    }
    if (!a_values.empty()) {
        repack(custom_.a, CsrMatrix::fromCsc(scaled.a), mats_.a);
        CsrMatrix at = CsrMatrix::fromCsc(scaled.a.transpose());
        CsrMatrix at_sq = at;
        for (Real& v : at_sq.values())
            v *= v;
        repack(custom_.at, std::move(at), mats_.at);
        repack(custom_.atSq, std::move(at_sq), mats_.atSq);
    }
}

RsqpResult
RsqpSolver::solve()
{
    TELEMETRY_SPAN("device.run");
    RsqpResult result;
    result.telemetry.route = customizationReused_
        ? SolveRoute::CacheThaw
        : SolveRoute::FullCustomize;
    if (!qp_.ok()) {
        result.validation = qp_.validation();
        result.status = SolveStatus::InvalidProblem;
        return result;
    }

    const QpProblem& original = qp_.original();
    const Index n = original.numVariables();
    const Index m = original.numConstraints();

    // A corrupted device run can leave any scalar register non-finite;
    // screen before the (undefined-behavior) float->int casts below.
    const auto scalar_or = [&](Index id, Real fallback) {
        const Real v = machine_->scalarValue(id);
        return std::isfinite(v) ? clampReal(v, 0.0, 1e12) : fallback;
    };

    machine_->resetStats();

    // Under fault injection the run is retried once: each run() draws
    // a fresh deterministic fault pattern, so a transient soft error
    // does not condemn the solve. Cycle counts accumulate across
    // attempts — the retry cost is real device time.
    const FaultInjector* injector = machine_->faultInjector();
    const Index max_attempts = injector != nullptr ? 2 : 1;

    for (Index attempt = 1; attempt <= max_attempts; ++attempt) {
        machine_->run(prog_.program);

        qp_.unscaleX(machine_->hbmValue(prog_.hbmXOut), result.x);
        qp_.unscaleY(machine_->hbmValue(prog_.hbmYOut), result.y);
        qp_.unscaleZ(machine_->hbmValue(prog_.hbmZOut), result.z);

        result.status = machine_->scalarValue(prog_.sStatus) > 0.5
            ? SolveStatus::Solved
            : SolveStatus::MaxIterReached;
        result.iterations =
            static_cast<Index>(scalar_or(prog_.sIterations, 0.0));
        result.pcgIterationsTotal =
            static_cast<Count>(scalar_or(prog_.sPcgTotal, 0.0));
        result.rhoUpdates =
            static_cast<Index>(scalar_or(prog_.sRhoUpdates, 0.0));
        result.primRes = machine_->scalarValue(prog_.sPrimRes);
        result.dualRes = machine_->scalarValue(prog_.sDualRes);

        bool healthy = !(hasNonFinite(result.x) ||
                         hasNonFinite(result.y) ||
                         hasNonFinite(result.z));
        if (healthy && injector != nullptr &&
            result.status == SolveStatus::Solved) {
            // The device's own convergence verdict rides on registers
            // the injector may have corrupted — re-verify on the host.
            const ResidualInfo res = computeResiduals(
                original, result.x, result.y, result.z,
                settings_.epsAbs, settings_.epsRel);
            result.primRes = res.primRes;
            result.dualRes = res.dualRes;
            healthy = res.converged();
        }
        if (healthy)
            break;

        if (attempt < max_attempts) {
            result.recovery.record(
                RecoveryAction::FaultRetry, result.iterations,
                "device run returned non-finite or unverifiable "
                "results");
            ++result.recovery.faultRetries;
            continue;
        }

        // Out of retries: hand back finite zeros with a typed failure,
        // never a poisoned vector.
        result.x.assign(static_cast<std::size_t>(n), 0.0);
        result.y.assign(static_cast<std::size_t>(m), 0.0);
        result.z.assign(static_cast<std::size_t>(m), 0.0);
        result.primRes = kInf;
        result.dualRes = kInf;
        result.status = SolveStatus::NumericalError;
    }

    result.objective = original.objective(result.x);
    if (injector != nullptr)
        result.faultsInjected = injector->faultsInjected();

    result.machineStats = machine_->stats();
    result.fmaxMhz = estimateFmaxMhz(custom_.config);
    result.deviceSeconds =
        static_cast<Real>(result.machineStats.totalCycles) /
        (result.fmaxMhz * 1e6);
    result.eta = custom_.eta();
    result.archName = custom_.config.name();

    // One KKT solve per ADMM iteration; device fault retries are
    // FaultRetry recovery events.
    result.telemetry.kktSolves = static_cast<Count>(result.iterations);
    result.telemetry.pushResidual(result.iterations, result.primRes,
                                  result.dualRes);
    recordSolve(SolveEngine::Device,
                {result.iterations, result.pcgIterationsTotal,
                 result.rhoUpdates, result.faultsInjected,
                 result.deviceSeconds},
                result.recovery, result.telemetry);
    return result;
}

std::vector<RsqpResult>
solveBatch(const std::vector<QpProblem>& problems,
           const OsqpSettings& settings, const CustomizeSettings& custom,
           Index num_threads)
{
    std::vector<RsqpResult> results(problems.size());
    if (problems.empty())
        return results;

    const Index width = num_threads > 0
        ? num_threads
        : effectiveNumThreads();

    auto solve_one = [&](Index i) {
        const auto s = static_cast<std::size_t>(i);
        RsqpSolver solver(problems[s], settings, custom);
        results[s] = solver.solve();
    };

    if (width <= 1 || problems.size() == 1) {
        for (Index i = 0; i < static_cast<Index>(problems.size()); ++i)
            solve_one(i);
        return results;
    }

    ThreadPool::global().parallelFor(
        0, static_cast<Index>(problems.size()), 1,
        [&](Index b, Index e) {
            for (Index i = b; i < e; ++i)
                solve_one(i);
        },
        static_cast<unsigned>(width));
    return results;
}

} // namespace rsqp
