/**
 * @file
 * Settings of the OSQP ADMM solver (defaults follow the reference
 * implementation; alpha = 1.6 and sigma = 1e-6 as quoted in the paper).
 *
 * Choices with a single value in this repo are not settings: every
 * LDL' factorization runs under reverse Cuthill-McKee, polish uses a
 * fixed regularization and refinement count (osqp/polish.cpp), and
 * every termination check's residuals land in
 * SolveTelemetry::residualTail rather than a separate trace.
 */

#ifndef RSQP_OSQP_SETTINGS_HPP
#define RSQP_OSQP_SETTINGS_HPP

#include "backends/backend_config.hpp"
#include "common/fault_injection.hpp"
#include "common/types.hpp"
#include "osqp/recovery.hpp"
#include "solvers/pcg.hpp"

namespace rsqp
{

/** Which linear-system backend solves the KKT step. */
enum class KktBackend
{
    DirectLdl,    ///< sparse LDL' (OSQP default / MKL-Pardiso role)
    IndirectPcg,  ///< matrix-free PCG (cuOSQP / RSQP role)
};

/** OSQP algorithm settings. */
struct OsqpSettings
{
    Real rho = 0.1;           ///< initial ADMM step size
    Real sigma = 1e-6;        ///< primal regularization
    Real alpha = 1.6;         ///< relaxation parameter, in (0, 2)

    Real epsAbs = 1e-3;       ///< absolute termination tolerance
    Real epsRel = 1e-3;       ///< relative termination tolerance
    Real epsPrimInf = 1e-4;   ///< primal infeasibility tolerance
    Real epsDualInf = 1e-4;   ///< dual infeasibility tolerance

    Index maxIter = 4000;     ///< ADMM iteration cap
    Index checkInterval = 25; ///< termination check period

    bool adaptiveRho = true;         ///< enable rho adaptation
    Index adaptiveRhoInterval = 100; ///< iterations between rho updates
    Real adaptiveRhoTolerance = 5.0; ///< ratio threshold for an update

    Index scalingIterations = 10; ///< Ruiz equilibration sweeps (0 = off)

    bool polish = false;  ///< active-set solution polishing

    Real rhoEqScale = 1e3;  ///< rho multiplier for equality constraints
    Real rhoMin = 1e-6;     ///< lower clamp for per-constraint rho
    Real rhoMax = 1e6;      ///< upper clamp for per-constraint rho

    KktBackend backend = KktBackend::DirectLdl;  ///< LDL' under RCM
    PcgSettings pcg;  ///< indirect backend only

    /**
     * Wall-clock budget for one solve() call in seconds (0 = no
     * limit). Checked once per ADMM iteration; an expired budget
     * terminates with SolveStatus::TimeLimitReached and the current
     * (finite) iterates.
     */
    Real timeLimit = 0.0;

    /** Divergence watchdog thresholds and recovery policy. */
    FaultToleranceSettings faultTolerance;

    /**
     * Seeded soft-error injection into the software PCG operator
     * stream (testing/bench only; disabled by default).
     */
    FaultInjectionConfig faultInjection;

    /**
     * First-order engine the makeBackend factory builds (ADMM by
     * default; OsqpSolver itself always runs ADMM).
     */
    FirstOrderSettings firstOrder;
};

} // namespace rsqp

#endif // RSQP_OSQP_SETTINGS_HPP
