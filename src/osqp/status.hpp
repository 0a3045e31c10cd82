/**
 * @file
 * Solver status codes and result/info containers.
 */

#ifndef RSQP_OSQP_STATUS_HPP
#define RSQP_OSQP_STATUS_HPP

#include <string>
#include <vector>

#include "common/profile.hpp"
#include "common/types.hpp"
#include "osqp/recovery.hpp"
#include "osqp/validate.hpp"
#include "telemetry/solve_telemetry.hpp"

namespace rsqp
{

/** Final status of an OSQP solve. */
enum class SolveStatus
{
    Solved,
    MaxIterReached,
    PrimalInfeasible,
    DualInfeasible,
    NumericalError,
    InvalidProblem,   ///< problem data failed validation (see report)
    TimeLimitReached, ///< wall-clock budget expired (mid-solve, or in
                      ///< the service queue before the solve started)
    Rejected,         ///< service admission queue full or bad request
    ShuttingDown,     ///< service destroyed with the request still
                      ///< queued; it was never started (shed load, not
                      ///< a client error — distinct from Rejected)
    Cancelled,        ///< client cancelled the request via its token
                      ///< before it launched; session state untouched
    Unsolved,
};

/**
 * Printable name of a status code — the one canonical stringifier;
 * bench/report code must not roll its own.
 */
const char* statusToString(SolveStatus status);

/** Printable name of a status code (alias of statusToString). */
const char* toString(SolveStatus status);

/** Run statistics mirroring OSQP's info struct. */
struct OsqpInfo
{
    SolveStatus status = SolveStatus::Unsolved;
    Index iterations = 0;
    Real objective = 0.0;
    Real primRes = 0.0;
    Real dualRes = 0.0;
    Index rhoUpdates = 0;
    Count pcgIterationsTotal = 0;

    double setupTime = 0.0;    ///< seconds spent in setup()
    double solveTime = 0.0;    ///< seconds spent in solve()
    double kktSolveTime = 0.0; ///< seconds inside the KKT backend
                               ///< (the Fig. 8 numerator)

    /// Per-phase hot-path counters of this solve (indirect backend;
    /// all-zero otherwise).
    HotPathProfile hotPath;

    RecoveryReport recovery;   ///< every recovery action of the solve

    /** Structured per-solve summary (residual tail, PCG effort). */
    SolveTelemetry telemetry;
};

/** Outcome of a solution-polish attempt (see osqp/polish.hpp). */
struct PolishReport
{
    bool attempted = false;
    bool adopted = false;
    Index activeLower = 0;  ///< constraints active at their lower bound
    Index activeUpper = 0;  ///< constraints active at their upper bound
    Real primResBefore = 0.0;
    Real dualResBefore = 0.0;
    Real primResAfter = 0.0;
    Real dualResAfter = 0.0;
};

/** Solution + info returned by OsqpSolver::solve(). */
struct OsqpResult
{
    Vector x;  ///< primal solution (unscaled)
    Vector y;  ///< dual solution (unscaled)
    Vector z;  ///< constraint activation A x (unscaled)
    OsqpInfo info;
    PolishReport polish;  ///< filled if settings.polish
    ValidationReport validation;  ///< diagnostics when InvalidProblem
};

} // namespace rsqp

#endif // RSQP_OSQP_STATUS_HPP
