/**
 * @file
 * Per-client solver session: the stateful object that turns a stream
 * of QP requests from one client into the cheapest possible solves.
 *
 * A session routes each request down the fastest applicable path:
 *
 *  1. same sparsity structure as the previous request -> parametric
 *     update (updateLinearCost / updateBounds / updateMatrixValues) on
 *     the live solver — no setup work at all;
 *  2. new structure, artifact cached -> thaw the frozen customization
 *     (skip the E_p/E_c pipeline), re-pack values only;
 *  3. new structure, cache miss -> full customization, then freeze and
 *     publish the artifact for every other session.
 *
 * Warm-start state (the previous solution) is carried across requests
 * and applied whenever shapes match, and a bound cache is consulted on
 * every structure change; neither is a per-request choice. Sessions
 * are not thread-safe: the service front-end serializes requests per
 * session.
 */

#ifndef RSQP_SERVICE_SESSION_HPP
#define RSQP_SERVICE_SESSION_HPP

#include <memory>

#include "backends/qp_backend.hpp"
#include "core/rsqp_solver.hpp"
#include "osqp/solver.hpp"
#include "service/customization_cache.hpp"
#include "telemetry/solve_telemetry.hpp"

namespace rsqp
{

/** Which solver backs a session. */
enum class SessionEngine
{
    Device,  ///< RsqpSolver (simulated accelerator, customization cache)
    Host,    ///< first-order CPU backend chosen by
             ///< OsqpSettings::firstOrder (ADMM by default; parametric
             ///< reuse + warm start only)
};

/** Per-session configuration, fixed at session creation. */
struct SessionConfig
{
    OsqpSettings osqp;
    /** Customization pipeline knobs (Device engine only). */
    CustomizeSettings custom;
    SessionEngine engine = SessionEngine::Device;
};

/** Outcome of one session solve, engine-agnostic. */
struct SessionResult
{
    SolveStatus status = SolveStatus::Unsolved;
    Vector x;  ///< primal solution (unscaled)
    Vector y;  ///< dual solution (unscaled)
    Vector z;  ///< A x (unscaled)
    Index iterations = 0;
    Real objective = 0.0;
    Real primRes = 0.0;
    Real dualRes = 0.0;

    /** Request solved through the parametric-update fast path. */
    bool parametricReuse = false;
    /** Solver rebuilt from a cached (thawed) artifact. */
    bool cacheHit = false;
    /** Previous solution applied as the starting iterate. */
    bool warmStarted = false;

    double setupSeconds = 0.0;  ///< solver (re)build incl. customization
    double solveSeconds = 0.0;  ///< wall clock of the solve itself
    Real deviceSeconds = 0.0;   ///< Device engine: simulated wall clock
    HotPathProfile hotPath;     ///< Host/PCG per-phase counters
    ValidationReport validation;  ///< request or engine setup diagnostics
                                  ///< when InvalidProblem

    /** Times this job was re-placed off a failed core before running
     *  (fleet failover; the solve itself is bitwise-unaffected). */
    Count failovers = 0;
    /** Rejected with load shed: suggested client back-off before
     *  resubmitting (seconds; 0 on any other status). */
    Real retryAfterSeconds = 0.0;

    /** Structured per-solve summary (route, queue wait, residuals). */
    SolveTelemetry telemetry;
};

/** Monotonic per-session counters. */
struct SessionStats
{
    Count solves = 0;
    Count parametricSolves = 0;  ///< requests on path 1
    Count rebuilds = 0;          ///< requests on paths 2 + 3
    Count cacheHits = 0;         ///< path-2 requests
    Count cacheMisses = 0;       ///< path-3 requests (cache attached)
    Count warmStarts = 0;
    Count invalidRequests = 0;
    double setupSecondsTotal = 0.0;
    double solveSecondsTotal = 0.0;
};

/** One client's solver state (see file comment for the three paths). */
class SolverSession
{
  public:
    /**
     * @param cache Shared customization cache (may be null: Device
     *        sessions then customize per structure with no reuse
     *        across sessions).
     */
    explicit SolverSession(
        SessionConfig config,
        std::shared_ptr<CustomizationCache> cache = nullptr);

    ~SolverSession();
    SolverSession(const SolverSession&) = delete;
    SolverSession& operator=(const SolverSession&) = delete;

    /**
     * Solve one request, choosing the cheapest path (see file
     * comment). Malformed problems return SolveStatus::InvalidProblem
     * with diagnostics and leave the current solver state untouched.
     *
     * @param time_budget Wall-clock budget in seconds for this solve
     *        (0 = the config's timeLimit). Enforced in-loop by the
     *        Host engine; the Device engine's simulated run is not
     *        interruptible, so its deadline is enforced by the service
     *        queue at admission time.
     */
    SessionResult solve(const QpProblem& problem, Real time_budget = 0.0);

    /** Drop the live solver and warm-start state (structure forgotten). */
    void reset();

    /**
     * Swap the customization cache consulted by the rebuild paths —
     * the fleet binds a session to its placed core's cache partition
     * before each job. Takes effect on the next structure change; the
     * live solver and parametric state are untouched. Not thread-safe
     * (like solve(); the service serializes per-session calls).
     */
    void bindCache(std::shared_ptr<CustomizationCache> cache);

    const SessionStats& stats() const { return stats_; }
    const SessionConfig& config() const { return config_; }

  private:
    /** Structure-exact equality against the live problem. */
    bool sameStructure(const QpProblem& problem) const;

    /** Paths 2/3: build a fresh solver, consulting the cache when one
     *  is bound. */
    void rebuild(const QpProblem& problem, SessionResult& result);

    /** Path 1: diff against the live problem and push updates. */
    void applyParametricUpdates(const QpProblem& problem);

    /**
     * Call f on the live engine. RsqpSolver and QpBackend share the
     * parametric API (warmStart, update*), so one generic body serves
     * both engines.
     */
    template <class F>
    decltype(auto)
    withEngine(F&& f)
    {
        return device_ != nullptr ? f(*device_) : f(*host_);
    }

    SessionConfig config_;
    std::shared_ptr<CustomizationCache> cache_;

    QpProblem current_;  ///< the live problem (diff base), unscaled
    bool haveSolver_ = false;
    std::unique_ptr<RsqpSolver> device_;
    std::unique_ptr<QpBackend> host_;

    Vector lastX_, lastY_;  ///< warm-start state (unscaled)
    bool haveWarm_ = false;

    SessionStats stats_;
};

} // namespace rsqp

#endif // RSQP_SERVICE_SESSION_HPP
