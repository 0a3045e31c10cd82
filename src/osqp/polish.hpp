/**
 * @file
 * Solution polishing (the OSQP post-processing step).
 *
 * After ADMM terminates, the active constraints are guessed from the
 * signs of the dual variables, and the equality-constrained QP on that
 * active set is solved directly:
 *
 *   [ P + delta*I   A_act' ] [ x ]   [ -q    ]
 *   [ A_act        -delta*I ] [ y ] = [ b_act ]
 *
 * with delta = 1e-6 and three steps of iterative refinement against
 * the unregularized system. The polished point is scored on the real
 * QP — z = Pi_[l,u](A x) and active duals clipped to their bound's
 * sign — and adopted only if neither residual gets worse; with a
 * correct guess it satisfies the KKT conditions to near machine
 * precision.
 */

#ifndef RSQP_OSQP_POLISH_HPP
#define RSQP_OSQP_POLISH_HPP

#include "osqp/problem.hpp"
#include "osqp/settings.hpp"
#include "osqp/status.hpp"

namespace rsqp
{

/**
 * Try to polish a solved result in place (unscaled data).
 *
 * @param problem The original (unscaled) problem.
 * @param settings Solver settings (epsAbs/epsRel score the result).
 * @param result Solution to polish; x/y/z and the residual info are
 *        replaced if polishing succeeds.
 * @return report of what happened.
 */
PolishReport polishSolution(const QpProblem& problem,
                            const OsqpSettings& settings,
                            OsqpResult& result);

} // namespace rsqp

#endif // RSQP_OSQP_POLISH_HPP
