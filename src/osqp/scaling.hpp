/**
 * @file
 * Modified Ruiz equilibration of the QP data, as in OSQP, and the one
 * owner of the scaled QP every engine runs on.
 *
 * The scaled problem is
 *   minimize    (1/2) xb' (c D P D) xb + (c D q)' xb
 *   subject to  E l <= (E A D) xb <= E u
 * with diagonal D (n), E (m) and cost scalar c. Solutions map back as
 *   x = D xb,   y = c^{-1} E yb,   z = E^{-1} zb.
 *
 * ScaledQp is OSQP's host layer shared by the ADMM loop, the PDHG
 * engine and the simulated device: setup validation, Ruiz scaling,
 * the parametric setters (osqp_update_*), the scaled <-> unscaled maps
 * and the loose/equality constraint-class rule all live here. An
 * engine keeps one ScaledQp and only its own reaction to an update
 * (ADMM: rho vector and KKT refresh; PDHG: mirrors and step sizes;
 * device: repacking and HBM writes).
 */

#ifndef RSQP_OSQP_SCALING_HPP
#define RSQP_OSQP_SCALING_HPP

#include <vector>

#include "common/types.hpp"
#include "osqp/problem.hpp"
#include "osqp/settings.hpp"
#include "osqp/validate.hpp"

namespace rsqp
{

/** Diagonal scaling produced by Ruiz equilibration. */
struct Scaling
{
    Vector d;     ///< variable scaling, length n
    Vector dInv;  ///< 1 / d
    Vector e;     ///< constraint scaling, length m
    Vector eInv;  ///< 1 / e
    Real c = 1.0;     ///< cost scaling
    Real cInv = 1.0;  ///< 1 / c

    /** Identity scaling of the given dimensions. */
    static Scaling identity(Index n, Index m);
};

/**
 * Run `iterations` sweeps of modified Ruiz equilibration on (P, q, A)
 * and scale the problem in place (bounds included).
 *
 * @param problem QP data, modified in place to the scaled problem.
 * @param iterations Number of sweeps; 0 returns identity scaling.
 * @return the scaling that was applied.
 */
Scaling ruizEquilibrate(QpProblem& problem, Index iterations);

/** How the per-constraint rho rule treats one constraint row. */
enum class ConstraintClass
{
    Loose,       ///< both bounds infinite: keep the multiplier near zero
    Equality,    ///< u - l below 1e-12: stiffer rho speeds convergence
    Inequality,  ///< every other row
};

/** The loose/equality rule for the row with bounds [lo, hi]. */
ConstraintClass constraintClass(Real lo, Real hi);

/** The QP as an engine sees it (see file comment). */
class ScaledQp
{
  public:
    /**
     * Validate settings and problem into one report; Ruiz-scale
     * (settings.scalingIterations sweeps) only when it is ok. On a
     * failing report only original() and validation() are meaningful,
     * the setters and scaleWarmStart are no-ops returning false, and
     * the engine built on it must stay inert.
     */
    ScaledQp(QpProblem problem, const OsqpSettings& settings);

    bool ok() const { return validation_.ok(); }
    const ValidationReport& validation() const { return validation_; }

    const QpProblem& original() const { return original_; }
    const QpProblem& scaled() const { return scaled_; }
    const Scaling& scaling() const { return ruiz_; }

    /** Replace q (unscaled, same length). */
    void setLinearCost(const Vector& q);

    /**
     * Replace l and u (unscaled, same length).
     *
     * @return true when any row changed constraintClass.
     */
    bool setBounds(const Vector& l, const Vector& u);

    /**
     * Replace the values of P and/or A in the original CSC order
     * (empty vector = keep).
     *
     * @return true when either vector was given.
     */
    bool setMatrixValues(const std::vector<Real>& p_values,
                         const std::vector<Real>& a_values);

    /**
     * Warm-start map xs = D^{-1} x, ys = c E^{-1} y. A size mismatch is
     * a recoverable client error: warns, leaves xs/ys alone and
     * returns false.
     */
    bool scaleWarmStart(const Vector& x, const Vector& y, Vector& xs,
                        Vector& ys) const;

    void unscaleX(const Vector& xs, Vector& x) const;  ///< x = D xs
    void unscaleY(const Vector& ys, Vector& y) const;  ///< y = c^{-1} E ys
    void unscaleZ(const Vector& zs, Vector& z) const;  ///< z = E^{-1} zs

    /** dx = D (xs - xs_prev), the unscaled primal iterate delta. */
    void unscaleDeltaX(const Vector& xs, const Vector& xs_prev,
                       Vector& dx) const;
    /** dy = c^{-1} E (ys - ys_prev), the unscaled dual iterate delta. */
    void unscaleDeltaY(const Vector& ys, const Vector& ys_prev,
                       Vector& dy) const;

  private:
    QpProblem original_;  ///< caller's data (residuals, objective)
    QpProblem scaled_;    ///< what the engine iterates on
    Scaling ruiz_;
    ValidationReport validation_;
};

} // namespace rsqp

#endif // RSQP_OSQP_SCALING_HPP
