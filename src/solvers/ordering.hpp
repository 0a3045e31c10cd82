/**
 * @file
 * The fill-reducing ordering of the direct KKT factorization.
 *
 * The reference OSQP uses AMD; this repo uses reverse Cuthill-McKee
 * everywhere an LDL' factorization is built (ADMM direct backend,
 * polish, the PCG breakdown fallback). RCM keeps the factors compact on
 * the banded/block-structured KKT systems that dominate the benchmark
 * (MPC, lasso, huber, ...).
 */

#ifndef RSQP_SOLVERS_ORDERING_HPP
#define RSQP_SOLVERS_ORDERING_HPP

#include "common/types.hpp"
#include "linalg/csc.hpp"

namespace rsqp
{

/**
 * Compute a reverse Cuthill-McKee ordering of the symmetric pattern
 * whose upper triangle is given.
 *
 * @param upper Upper-triangle CSC pattern of a symmetric matrix.
 * @return perm where perm[i] is the original index at new position i.
 */
IndexVector reverseCuthillMcKee(const CscMatrix& upper);

/**
 * Bandwidth of the symmetric pattern under a permutation — the metric
 * RCM minimizes; exported for tests.
 */
Index symmetricBandwidth(const CscMatrix& upper, const IndexVector& perm);

} // namespace rsqp

#endif // RSQP_SOLVERS_ORDERING_HPP
