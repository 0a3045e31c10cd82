/**
 * @file
 * The end-to-end RSQP solver: OSQP accelerated by a problem-specific
 * simulated FPGA architecture.
 *
 * Construction mirrors the paper's deployment flow: scale the problem,
 * run the customization pipeline (or pick the generic baseline),
 * "generate the hardware" (instantiate the cycle-level machine), lower
 * OSQP onto the ISA, and load the packed matrices into HBM. solve()
 * then runs the program, reads back the scaled solution, unscales it,
 * and converts the cycle count into wall-clock time through the fmax
 * model. Parametric re-solves (new q / bounds / warm starts) reuse the
 * generated architecture — the amortization story of the paper.
 */

#ifndef RSQP_CORE_RSQP_SOLVER_HPP
#define RSQP_CORE_RSQP_SOLVER_HPP

#include <memory>
#include <vector>

#include "arch/machine.hpp"
#include "arch/osqp_program.hpp"
#include "core/customization.hpp"
#include "osqp/scaling.hpp"
#include "osqp/settings.hpp"
#include "osqp/status.hpp"

namespace rsqp
{

/** Result of one accelerated solve. */
struct RsqpResult
{
    Vector x;  ///< primal solution (unscaled)
    Vector y;  ///< dual solution (unscaled)
    Vector z;  ///< A x (unscaled)

    SolveStatus status = SolveStatus::Unsolved;
    Index iterations = 0;
    Count pcgIterationsTotal = 0;
    Index rhoUpdates = 0;
    Real primRes = 0.0;
    Real dualRes = 0.0;
    Real objective = 0.0;

    MachineStats machineStats;
    Real fmaxMhz = 0.0;
    /** Accelerator wall-clock time: cycles / fmax. */
    Real deviceSeconds = 0.0;
    Real eta = 0.0;          ///< match score of the architecture
    std::string archName;    ///< "C{...}+cvb" tag

    RecoveryReport recovery;       ///< device-run retries on record
    Count faultsInjected = 0;      ///< soft errors injected (testing)
    ValidationReport validation;   ///< diagnostics when InvalidProblem
    SolveTelemetry telemetry;      ///< per-solve observability record
};

/** OSQP on the simulated RSQP accelerator. */
class RsqpSolver
{
  public:
    /**
     * Set up the accelerated solver.
     *
     * @param problem The QP (unscaled).
     * @param settings OSQP settings (maxIter is rounded up to a
     *        multiple of checkInterval for the device loop).
     * @param custom Customization pipeline settings (width, E_p/E_c
     *        optimizations on/off).
     */
    RsqpSolver(QpProblem problem, OsqpSettings settings,
               CustomizeSettings custom);

    /**
     * Set up the accelerated solver from a frozen customization
     * artifact (see core/customization.hpp): when the artifact is
     * non-null and structurally compatible with the problem, the whole
     * E_p/E_c pipeline is skipped and only the value-dependent packing
     * runs — the cache-hit fast path of the service layer. An
     * incompatible or null artifact falls back to the full pipeline.
     */
    RsqpSolver(QpProblem problem, OsqpSettings settings,
               CustomizeSettings custom,
               std::shared_ptr<const CustomizationArtifact> artifact);

    /** Run the accelerator program and return the solution. */
    RsqpResult solve();

    /**
     * Warm start the next solve() (unscaled guesses). A size mismatch
     * is a recoverable client error: the guess is ignored with a
     * warning and false is returned (the solve proceeds cold), in the
     * same spirit as the non-throwing InvalidProblem path.
     */
    bool warmStart(const Vector& x, const Vector& y);

    /** True if setup reused a frozen artifact (skipped the pipeline). */
    bool customizationReused() const { return customizationReused_; }

    /** Replace q; the architecture and program are reused. */
    void updateLinearCost(const Vector& q);

    /** Replace the bounds; the architecture and program are reused. */
    void updateBounds(const Vector& l, const Vector& u);

    /**
     * Replace the numeric values of P and/or A keeping the sparsity
     * structure (pass empty vectors to keep current values). Values
     * follow the original (unscaled) CSC order. The schedules, CVB
     * plans and program are all reused; only the packed HBM streams
     * are rewritten — the paper's same-structure amortization.
     */
    void updateMatrixValues(const std::vector<Real>& p_values,
                            const std::vector<Real>& a_values);

    /**
     * Problem diagnostics from setup. When not ok() the solver is
     * inert: solve() returns InvalidProblem, mutators are no-ops, and
     * machine()/program() must not be called.
     */
    const ValidationReport& validation() const { return validation_; }

    const ProblemCustomization& customization() const { return custom_; }
    const ArchConfig& config() const { return custom_.config; }
    const Machine& machine() const { return *machine_; }
    const Program& program() const { return prog_.program; }

  private:
    QpProblem original_;
    QpProblem scaled_;
    Scaling scaling_;
    ValidationReport validation_;  ///< setup diagnostics
    OsqpSettings settings_;
    ProblemCustomization custom_;
    bool customizationReused_ = false;
    std::unique_ptr<Machine> machine_;
    OsqpMatrixIds mats_;
    OsqpDeviceProgram prog_;
};

/**
 * Solve independent QP instances concurrently — the multi-instance
 * analogue of the paper's "multiple solver cores per FPGA" deployment
 * (Table 3): each worker customizes, generates and runs its own
 * simulated accelerator.
 *
 * Every instance produces exactly the result of a standalone
 * RsqpSolver(problem, settings, custom).solve(): each solve runs
 * serially on one host thread, so batch results are independent of
 * the batch width and of scheduling.
 *
 * @param num_threads Workers fanned across the batch (0 = library
 *        default, 1 = serial loop). The first exception thrown by any
 *        instance is rethrown after the batch drains.
 */
std::vector<RsqpResult> solveBatch(const std::vector<QpProblem>& problems,
                                   const OsqpSettings& settings,
                                   const CustomizeSettings& custom,
                                   Index num_threads = 0);

} // namespace rsqp

#endif // RSQP_CORE_RSQP_SOLVER_HPP
