/**
 * @file
 * The solve protocol shared by the first-order engines (ADMM and
 * PDHG): the divergence watchdog, the last-good iterate checkpoint,
 * the RecoveryReport that records every recovery action a solve took
 * (PCG->LDL fallback, checkpoint restore, sigma boost, device retry),
 * the SolveShell that runs OSQP's host-side termination protocol
 * around an engine's iteration, and recordSolve(), the one accounting
 * close every engine (the Device included) ends a solve with.
 *
 * The design goal is *bounded, typed* behavior under numerical stress:
 * a solve either converges (possibly after recovery, all attempts on
 * record) or terminates with a typed failure status and finite
 * iterates — never a NaN result, never a hang.
 */

#ifndef RSQP_OSQP_RECOVERY_HPP
#define RSQP_OSQP_RECOVERY_HPP

#include <functional>
#include <string>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/timer.hpp"
#include "common/types.hpp"

namespace rsqp
{

struct OsqpInfo;
struct OsqpResult;
struct OsqpSettings;
struct QpProblem;
struct ResidualInfo;
struct SolveTelemetry;
struct ValidationReport;

/** One kind of recovery action the solver can take. */
enum class RecoveryAction
{
    PcgDirectFallback,  ///< PCG broke down; the LDL' path solved the step
    CheckpointRestore,  ///< diverged; rolled back to the last-good iterate
    SigmaBoost,         ///< retried with boosted sigma regularization
    FaultRetry,         ///< device run produced non-finite data; re-ran
};

/** Printable name of a recovery action. */
const char* toString(RecoveryAction action);

/** One recorded recovery attempt. */
struct RecoveryEvent
{
    RecoveryAction action = RecoveryAction::PcgDirectFallback;
    Index iteration = 0;  ///< ADMM iteration (0 = outside the loop)
    std::string detail;   ///< trigger description, new parameter value...
};

/** Every recovery action of one solve, in order. */
struct RecoveryReport
{
    std::vector<RecoveryEvent> events;
    Index pcgFallbacks = 0;       ///< KKT steps solved by the LDL' path
    Index checkpointRestores = 0; ///< divergence rollbacks
    Index sigmaBoosts = 0;        ///< regularization escalations
    Index faultRetries = 0;       ///< full device-run retries

    bool empty() const { return events.empty(); }

    /** Append one event (counters are bumped by the caller's field). */
    void record(RecoveryAction action, Index iteration,
                std::string detail = "");

    /** One-line human-readable digest ("2 pcg fallbacks, 1 restore"). */
    std::string summary() const;
};

/** Watchdog thresholds and recovery policy knobs. */
struct FaultToleranceSettings
{
    /**
     * Master switch for the divergence watchdog and the
     * checkpoint/restore recovery path. When false the solver keeps
     * the legacy behavior: a non-finite iterate at a termination
     * check reports NumericalError immediately with no rollback.
     */
    bool watchdog = true;

    /**
     * Declare divergence when the combined residual exceeds the best
     * combined residual seen so far by this factor (or goes
     * non-finite). Conservative by design: transient residual bumps
     * from rho updates are orders of magnitude smaller.
     */
    Real divergenceFactor = 1e6;

    /**
     * Declare a stall after this many consecutive termination checks
     * without any improvement of the best combined residual
     * (0 disables stall detection). A stall triggers the same
     * checkpoint+sigma recovery once, then the solve is left to run
     * to its iteration budget.
     */
    Index stallChecks = 40;

    /** Checkpoint-restore attempts before giving up. */
    Index maxRecoveryAttempts = 1;

    /** Multiplier applied to sigma on every checkpoint restore. */
    Real sigmaBoost = 1e3;
};

/** Last-good iterate snapshot used by the divergence recovery path. */
class IterateCheckpoint
{
  public:
    /** Snapshot the (scaled) iterates at a healthy termination check. */
    void capture(const Vector& x, const Vector& y, const Vector& z,
                 Index iteration);

    bool valid() const { return valid_; }
    Index iteration() const { return iteration_; }

    /** Overwrite the iterates with the snapshot (requires valid()). */
    void restore(Vector& x, Vector& y, Vector& z) const;

  private:
    Vector x_, y_, z_;
    Index iteration_ = 0;
    bool valid_ = false;
};

/**
 * Divergence/stall detector fed at every termination check with the
 * unscaled residual pair.
 */
class DivergenceWatchdog
{
  public:
    enum class Verdict
    {
        Ok,        ///< residuals healthy (new checkpoint candidate)
        Stalled,   ///< no progress for stallChecks checks
        Diverged,  ///< non-finite or blown up vs. the best seen
    };

    explicit DivergenceWatchdog(const FaultToleranceSettings& settings);

    /** Feed one residual observation; returns the verdict. */
    Verdict observe(Real prim_res, Real dual_res);

    /** Forget history (after a checkpoint restore). */
    void reset();

    Real bestScore() const { return bestScore_; }

  private:
    FaultToleranceSettings settings_;
    Real bestScore_ = kInf;
    Index checksSinceImprovement_ = 0;
};

/** Printable verdict name for diagnostics. */
const char* toString(DivergenceWatchdog::Verdict verdict);

/** Which engine closed a solve (the `engine` label of its metrics). */
enum class SolveEngine
{
    Admm,    ///< host ADMM loop (OsqpSolver)
    Pdhg,    ///< host restarted PDHG loop (PdhgSolver)
    Device,  ///< simulated device running the ADMM program (RsqpSolver)
};

/** What one finished solve hands to its accounting close. */
struct SolveCounts
{
    Index iterations = 0;
    Count pcgIterations = 0;
    Index rhoUpdates = 0;
    Count faultsInjected = 0;
    double seconds = 0.0;  ///< wall time (modeled device time on Device)
};

/**
 * The one accounting close of a solve: fills the derived fields of
 * `telemetry` (backend label, iterations, PCG effort, ISA level,
 * recovery events, faults, solve seconds) and records the solve in
 * the process-wide registry as `rsqp_solves_total{engine="..."}` and
 * its iteration, PCG, rho-update, recovery, restart and `solve_ns`
 * companions. Every engine calls it exactly once per solve; the
 * series handles are cached per engine.
 */
void recordSolve(SolveEngine engine, const SolveCounts& counts,
                 const RecoveryReport& recovery, SolveTelemetry& telemetry);

/**
 * The result of solve() on an inert engine (setup rejected its input):
 * InvalidProblem with the setup diagnostics attached.
 */
OsqpResult invalidProblemResult(const ValidationReport& validation,
                                double setup_seconds);

/**
 * OSQP's host-side termination protocol around one first-order solve
 * (Algorithm 1), shared by the ADMM and PDHG engines. The engine
 * keeps its own arithmetic and calls into the shell at fixed points:
 *
 *   SolveShell shell(...);               // fresh info, fault scope
 *   for (iter = 1..maxIter) {
 *       if (shell.timeUp()) break;
 *       ... one iteration ...
 *       if (not a check) continue;
 *       ... residuals res ...
 *       step = shell.check(iter, res, react);   // Retry / Stop
 *       if (shell.converged(res)) break;
 *       if (shell.certifiesInfeasibility(dx, dy)) break;
 *   }
 *   shell.guardExit();                   // never a poisoned iterate
 *   ... unscale into the result ...
 *   shell.finish(result);                // residuals, accounting
 *
 * It owns the watchdog, the checkpoint and the recovery budget. A
 * recovery rolls the iterates back to the checkpoint (or a cold
 * start), then runs the engine's reaction — ADMM boosts sigma, PDHG
 * halves its steps — whose returned text is the SigmaBoost event's
 * detail. Nothing here runs per iteration except timeUp().
 */
class SolveShell
{
  public:
    /** Where a check leaves the iteration loop. */
    enum class Step
    {
        Proceed,  ///< go on with the termination tests
        Retry,    ///< recovered: skip the rest of this iteration
        Stop,     ///< typed failure recorded: leave the loop
    };

    /** Engine reaction to a recovery; returns the SigmaBoost detail. */
    using Reaction = std::function<std::string()>;

    /**
     * Start a solve of `original` (unscaled data): `info` becomes a
     * fresh record that carries only the setup time across solves,
     * the engine's fault injector is installed for the solve's
     * lifetime and its epoch advanced. `x`, `y`, `z` are the engine's
     * scaled iterates; `z` is null for engines without an auxiliary
     * iterate (PDHG).
     */
    SolveShell(SolveEngine engine, const OsqpSettings& settings,
               const QpProblem& original, FaultInjector* injector,
               double setup_seconds, OsqpInfo& info, Vector& x,
               Vector& y, Vector* z);

    SolveShell(const SolveShell&) = delete;
    SolveShell& operator=(const SolveShell&) = delete;

    /** Wall-clock budget spent (records TimeLimitReached). */
    bool timeUp();

    /**
     * One check of the current iterate and its residuals `res`. A
     * non-finite iterate recovers or stops with NumericalError (`res`
     * is then ignored). Otherwise `res` goes into info and the
     * telemetry tail and feeds the watchdog: a healthy verdict
     * captures the checkpoint, divergence recovers or stops with
     * NumericalError, a stall recovers once and otherwise lets the
     * solve run on.
     */
    Step check(Index iter, const ResidualInfo& res, const Reaction& react);

    /** Solved when `res` meets the tolerances. */
    bool converged(const ResidualInfo& res);

    /** OSQP's infeasibility certificates on unscaled iterate deltas. */
    bool certifiesInfeasibility(const Vector& delta_x,
                                const Vector& delta_y);

    /** The engine moved the iterate after its check (PDHG restart). */
    void iterateMoved() { measuredIteration_ = -1; }

    /** After the loop: never hand back a poisoned iterate. */
    void guardExit();

    /**
     * Close the solve once the engine unscaled its iterate into
     * `result`: compute the returned point's residuals when no check
     * measured it (time-limit exits, roll-backs), stamp the solve time
     * and run recordSolve().
     */
    void finish(OsqpResult& result);

  private:
    bool nonFinite() const;
    void rollBack();
    bool tryRecover(Index iter, const char* trigger, const Reaction& react);

    SolveEngine engine_;
    const OsqpSettings& settings_;
    const QpProblem& original_;
    FaultInjector* injector_;
    OsqpInfo& info_;
    Vector& x_;
    Vector& y_;
    Vector* z_;

    Timer timer_;
    FaultScope faultScope_;
    Count faultsBefore_ = 0;
    DivergenceWatchdog watchdog_;
    IterateCheckpoint checkpoint_;
    Index recoveryAttempts_ = 0;
    /** Iteration whose residuals info holds (-1: none of the current
     *  iterate). */
    Index measuredIteration_ = -1;
};

} // namespace rsqp

#endif // RSQP_OSQP_RECOVERY_HPP
