#include "recovery.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <utility>

#include "common/logging.hpp"
#include "linalg/simd_kernels.hpp"
#include "linalg/vector_ops.hpp"
#include "osqp/residuals.hpp"
#include "osqp/status.hpp"
#include "telemetry/metrics.hpp"

namespace rsqp
{

const char*
toString(RecoveryAction action)
{
    switch (action) {
    case RecoveryAction::PcgDirectFallback:
        return "pcg-direct-fallback";
    case RecoveryAction::CheckpointRestore:
        return "checkpoint-restore";
    case RecoveryAction::SigmaBoost:
        return "sigma-boost";
    case RecoveryAction::FaultRetry:
        return "fault-retry";
    }
    return "unknown";
}

void
RecoveryReport::record(RecoveryAction action, Index iteration,
                       std::string detail)
{
    RecoveryEvent event;
    event.action = action;
    event.iteration = iteration;
    event.detail = std::move(detail);
    events.push_back(std::move(event));
}

std::string
RecoveryReport::summary() const
{
    if (empty())
        return "no recovery actions";
    std::string out;
    const auto append = [&out](Index count, const char* label) {
        if (count <= 0)
            return;
        if (!out.empty())
            out += ", ";
        out += std::to_string(count);
        out += ' ';
        out += label;
        if (count != 1)
            out += 's';
    };
    append(pcgFallbacks, "pcg fallback");
    append(checkpointRestores, "checkpoint restore");
    append(sigmaBoosts, "sigma boost");
    append(faultRetries, "fault retry");
    if (out.empty())
        out = std::to_string(events.size()) + " recovery events";
    return out;
}

void
IterateCheckpoint::capture(const Vector& x, const Vector& y,
                           const Vector& z, Index iteration)
{
    x_ = x;
    y_ = y;
    z_ = z;
    iteration_ = iteration;
    valid_ = true;
}

void
IterateCheckpoint::restore(Vector& x, Vector& y, Vector& z) const
{
    RSQP_ASSERT(valid_, "restore from an empty checkpoint");
    x = x_;
    y = y_;
    z = z_;
}

DivergenceWatchdog::DivergenceWatchdog(
    const FaultToleranceSettings& settings)
    : settings_(settings)
{
}

DivergenceWatchdog::Verdict
DivergenceWatchdog::observe(Real prim_res, Real dual_res)
{
    const Real score = prim_res + dual_res;
    if (!std::isfinite(score))
        return Verdict::Diverged;

    if (score < bestScore_) {
        bestScore_ = score;
        checksSinceImprovement_ = 0;
        return Verdict::Ok;
    }

    // The epsilon floor keeps a tiny best score (already at solver
    // tolerance) from flagging every later observation as divergence.
    if (bestScore_ < kInf &&
        score > settings_.divergenceFactor *
                    std::max(bestScore_, Real(1e-12)))
        return Verdict::Diverged;

    ++checksSinceImprovement_;
    if (settings_.stallChecks > 0 &&
        checksSinceImprovement_ >= settings_.stallChecks) {
        checksSinceImprovement_ = 0;
        return Verdict::Stalled;
    }
    return Verdict::Ok;
}

void
DivergenceWatchdog::reset()
{
    bestScore_ = kInf;
    checksSinceImprovement_ = 0;
}

const char*
toString(DivergenceWatchdog::Verdict verdict)
{
    switch (verdict) {
    case DivergenceWatchdog::Verdict::Ok:
        return "ok";
    case DivergenceWatchdog::Verdict::Stalled:
        return "stalled";
    case DivergenceWatchdog::Verdict::Diverged:
        return "diverged";
    }
    return "unknown";
}

namespace
{

/** Cached registry handles of one engine's solve series. */
struct EngineSeries
{
    telemetry::Counter& solves;
    telemetry::Counter& iterations;
    telemetry::Counter& pcgIterations;
    telemetry::Counter& rhoUpdates;
    telemetry::Counter& recoveryEvents;
    telemetry::Counter& restarts;
    telemetry::Histogram& solveNs;
};

EngineSeries
makeSeries(const char* engine)
{
    telemetry::MetricsRegistry& registry =
        telemetry::MetricsRegistry::global();
    const auto name = [engine](const char* base) {
        return telemetry::labeledName(base, "engine", engine);
    };
    return EngineSeries{
        registry.counter(name("rsqp_solves_total"), "Completed solves"),
        registry.counter(name("rsqp_iterations_total"),
                         "First-order iterations executed"),
        registry.counter(name("rsqp_pcg_iterations_total"),
                         "Inner PCG iterations executed"),
        registry.counter(name("rsqp_rho_updates_total"),
                         "Adaptive-rho updates"),
        registry.counter(name("rsqp_recovery_events_total"),
                         "Recovery actions (fallbacks, restores, retries)"),
        registry.counter(name("rsqp_restarts_total"),
                         "Restarts to the running average"),
        registry.histogram(name("rsqp_solve_ns"),
                           "Nanoseconds per solve (modeled device time "
                           "on the device engine)"),
    };
}

std::uint64_t
asCount(Count value)
{
    return static_cast<std::uint64_t>(std::max<Count>(value, 0));
}

} // namespace

void
recordSolve(SolveEngine engine, const SolveCounts& counts,
            const RecoveryReport& recovery, SolveTelemetry& telemetry)
{
    // The Device always runs the ADMM recurrence; its label keeps
    // device and host telemetry comparable per method.
    telemetry.backend = engine == SolveEngine::Pdhg ? "pdhg" : "admm";
    telemetry.iterations = counts.iterations;
    telemetry.pcgIterationsTotal = counts.pcgIterations;
    telemetry.pcgItersPerSolve = telemetry.kktSolves > 0
        ? static_cast<Real>(counts.pcgIterations) /
            static_cast<Real>(telemetry.kktSolves)
        : 0.0;
    telemetry.isaLevel = isaLevelName(simd::activeIsaLevel());
    telemetry.recoveryEvents = static_cast<Count>(recovery.events.size());
    telemetry.faultsInjected = counts.faultsInjected;
    telemetry.solveSeconds = counts.seconds;

    // Registry adds happen once per solve (never per iteration), so
    // their cost is invisible next to even one KKT step.
    static const std::array<EngineSeries, 3> series = {
        makeSeries("admm"), makeSeries("pdhg"), makeSeries("device")};
    const EngineSeries& s = series[static_cast<std::size_t>(engine)];
    s.solves.increment();
    s.iterations.add(asCount(counts.iterations));
    s.pcgIterations.add(asCount(counts.pcgIterations));
    s.rhoUpdates.add(asCount(counts.rhoUpdates));
    s.recoveryEvents.add(asCount(telemetry.recoveryEvents));
    s.restarts.add(asCount(telemetry.restarts));
    s.solveNs.observe(static_cast<std::uint64_t>(
        std::max(counts.seconds, 0.0) * 1e9));
}

OsqpResult
invalidProblemResult(const ValidationReport& validation,
                     double setup_seconds)
{
    OsqpResult result;
    result.validation = validation;
    result.info.status = SolveStatus::InvalidProblem;
    result.info.setupTime = setup_seconds;
    return result;
}

SolveShell::SolveShell(SolveEngine engine, const OsqpSettings& settings,
                       const QpProblem& original, FaultInjector* injector,
                       double setup_seconds, OsqpInfo& info, Vector& x,
                       Vector& y, Vector* z)
    : engine_(engine), settings_(settings), original_(original),
      injector_(injector), info_(info), x_(x), y_(y), z_(z),
      faultScope_(injector), watchdog_(settings.faultTolerance)
{
    info_ = OsqpInfo{};
    info_.status = SolveStatus::MaxIterReached;
    info_.setupTime = setup_seconds;
    // Each solve sees a fresh, still deterministic fault pattern.
    if (injector_ != nullptr) {
        injector_->advanceEpoch();
        faultsBefore_ = injector_->faultsInjected();
    }
}

bool
SolveShell::timeUp()
{
    // A wall-clock budget turns a hung or flailing solve into a typed
    // result instead of an unbounded stall.
    if (settings_.timeLimit > 0.0 &&
        timer_.seconds() >= settings_.timeLimit) {
        info_.status = SolveStatus::TimeLimitReached;
        return true;
    }
    return false;
}

bool
SolveShell::nonFinite() const
{
    return hasNonFinite(x_) || hasNonFinite(y_) ||
        (z_ != nullptr && hasNonFinite(*z_));
}

void
SolveShell::rollBack()
{
    if (checkpoint_.valid()) {
        Vector no_z;
        checkpoint_.restore(x_, y_, z_ != nullptr ? *z_ : no_z);
    } else {
        x_.assign(x_.size(), 0.0);
        y_.assign(y_.size(), 0.0);
        if (z_ != nullptr)
            z_->assign(z_->size(), 0.0);
    }
    measuredIteration_ = -1;
}

bool
SolveShell::tryRecover(Index iter, const char* trigger,
                       const Reaction& react)
{
    // Out of budget (or watchdog off): the caller terminates with a
    // typed failure instead.
    const FaultToleranceSettings& ft = settings_.faultTolerance;
    if (!ft.watchdog || recoveryAttempts_ >= ft.maxRecoveryAttempts)
        return false;
    ++recoveryAttempts_;
    rollBack();
    std::string detail = react();
    watchdog_.reset();
    RecoveryReport& recovery = info_.recovery;
    recovery.record(RecoveryAction::CheckpointRestore, iter,
                    std::string(trigger) + "; rolled back to " +
                        (checkpoint_.valid()
                             ? "iteration " +
                                 std::to_string(checkpoint_.iteration())
                             : std::string("a cold start")));
    ++recovery.checkpointRestores;
    RSQP_WARN(engine_ == SolveEngine::Pdhg ? "pdhg" : "admm",
              " recovery at iteration ", iter, ": ", trigger, "; ",
              detail);
    recovery.record(RecoveryAction::SigmaBoost, iter, std::move(detail));
    ++recovery.sigmaBoosts;
    return true;
}

SolveShell::Step
SolveShell::check(Index iter, const ResidualInfo& res,
                  const Reaction& react)
{
    if (nonFinite()) {
        if (tryRecover(iter, "non-finite iterates", react))
            return Step::Retry;
        rollBack();  // never hand back a poisoned iterate
        info_.status = SolveStatus::NumericalError;
        return Step::Stop;
    }

    info_.primRes = res.primRes;
    info_.dualRes = res.dualRes;
    info_.telemetry.pushResidual(iter, res.primRes, res.dualRes);
    measuredIteration_ = iter;

    if (!settings_.faultTolerance.watchdog)
        return Step::Proceed;
    switch (watchdog_.observe(res.primRes, res.dualRes)) {
    case DivergenceWatchdog::Verdict::Diverged:
        if (tryRecover(iter, "residual divergence", react))
            return Step::Retry;
        rollBack();
        info_.status = SolveStatus::NumericalError;
        return Step::Stop;
    case DivergenceWatchdog::Verdict::Stalled:
        // One recovery shot; out of attempts the solve just runs to
        // its iteration budget.
        return tryRecover(iter, "residual stall", react) ? Step::Retry
                                                         : Step::Proceed;
    case DivergenceWatchdog::Verdict::Ok:
        break;
    }
    Vector no_z;
    checkpoint_.capture(x_, y_, z_ != nullptr ? *z_ : no_z, iter);
    return Step::Proceed;
}

bool
SolveShell::converged(const ResidualInfo& res)
{
    if (!res.converged())
        return false;
    info_.status = SolveStatus::Solved;
    return true;
}

bool
SolveShell::certifiesInfeasibility(const Vector& delta_x,
                                   const Vector& delta_y)
{
    if (certifiesPrimalInfeasibility(original_, delta_y,
                                     settings_.epsPrimInf)) {
        info_.status = SolveStatus::PrimalInfeasible;
        return true;
    }
    if (certifiesDualInfeasibility(original_, delta_x,
                                   settings_.epsDualInf)) {
        info_.status = SolveStatus::DualInfeasible;
        return true;
    }
    return false;
}

void
SolveShell::guardExit()
{
    // Exits that break out between checks (time limit, iteration cap)
    // may carry iterates an injected fault poisoned after the last
    // screen.
    if (!nonFinite())
        return;
    rollBack();
    if (info_.status != SolveStatus::TimeLimitReached)
        info_.status = SolveStatus::NumericalError;
}

void
SolveShell::finish(OsqpResult& result)
{
    // As OSQP's exit update_info: the reported residuals belong to the
    // returned point even when no check measured it.
    if (measuredIteration_ != info_.iterations) {
        const ResidualInfo res =
            computeResiduals(original_, result.x, result.y, result.z,
                             settings_.epsAbs, settings_.epsRel);
        info_.primRes = res.primRes;
        info_.dualRes = res.dualRes;
    }
    info_.solveTime = timer_.seconds();
    const Count faults = injector_ != nullptr
        ? injector_->faultsInjected() - faultsBefore_
        : 0;
    recordSolve(engine_,
                {info_.iterations, info_.pcgIterationsTotal,
                 info_.rhoUpdates, faults, info_.solveTime},
                info_.recovery, info_.telemetry);
}

} // namespace rsqp
