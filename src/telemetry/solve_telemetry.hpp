/**
 * @file
 * Per-solve telemetry record: the compact, structured summary of one
 * solve that rides along on OsqpInfo / RsqpResult / SessionResult.
 *
 * Unlike the registry (process-wide monotonic aggregates) and trace
 * spans (timeline), SolveTelemetry answers "what happened to *this*
 * request": iteration counts, PCG effort, the tail of the residual
 * trajectory, recovery/fault events, which customization route the
 * service took, and queue-wait vs execute time. It is always
 * populated — the RSQP_TELEMETRY switch only compiles out the timed
 * span instrumentation, not this record.
 */

#ifndef RSQP_TELEMETRY_SOLVE_TELEMETRY_HPP
#define RSQP_TELEMETRY_SOLVE_TELEMETRY_HPP

#include <cstddef>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace rsqp
{

/** Which path produced the solver a request ran on. */
enum class SolveRoute
{
    None,           ///< direct solver use, no service routing
    Parametric,     ///< in-place update of a live solver
    CacheThaw,      ///< customization artifact thawed from the cache
    FullCustomize,  ///< cold path: full customization run
};

const char* toString(SolveRoute route);

/** One residual check: (iteration, primal, dual). */
struct ResidualSample
{
    Index iteration = 0;
    Real primalResidual = 0.0;
    Real dualResidual = 0.0;
};

/** How many residual checks the trajectory tail keeps. */
inline constexpr std::size_t kResidualTailCapacity = 8;

/** Structured per-solve summary (see file comment). */
struct SolveTelemetry
{
    /**
     * First-order engine that produced the result ("admm" or "pdhg").
     * Empty only on results that never reached a solver
     * (rejected/shedded service requests).
     */
    std::string backend;

    /** Restarts to the running average taken (PDHG only). */
    Count restarts = 0;

    /** First-order iterations executed. */
    Index iterations = 0;

    /** KKT system solves (== iterations on the happy path). */
    Count kktSolves = 0;

    /** Total inner PCG iterations (0 for the direct backend). */
    Count pcgIterationsTotal = 0;

    /** Mean PCG iterations per KKT solve. */
    Real pcgItersPerSolve = 0.0;

    /** Active SIMD ISA level of the vector kernels ("scalar", "avx2",
     *  "avx512"). */
    std::string isaLevel;

    /** Last <= kResidualTailCapacity residual checks, oldest first. */
    std::vector<ResidualSample> residualTail;

    /** Recovery actions taken (rollbacks, sigma boosts, fallbacks). */
    Count recoveryEvents = 0;

    /** Injected faults observed (fault-injection builds/tests). */
    Count faultsInjected = 0;

    /** Service routing decision (None outside the service layer). */
    SolveRoute route = SolveRoute::None;

    /** Time spent queued before execution began (service layer). */
    double queueWaitSeconds = 0.0;

    /** Customization/setup time before iterating (service layer). */
    double setupSeconds = 0.0;

    /** Wall-clock solve time. */
    double solveSeconds = 0.0;

    /** Append one residual check, keeping only the most recent tail. */
    void pushResidual(Index iteration, Real primal, Real dual);

    /** Single-line JSON object (bench artifacts, logs). */
    std::string toJson() const;
};

} // namespace rsqp

#endif // RSQP_TELEMETRY_SOLVE_TELEMETRY_HPP
