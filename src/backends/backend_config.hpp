/**
 * @file
 * Configuration of the pluggable first-order backend subsystem.
 *
 * This header is deliberately leaf-level (it depends only on
 * common/types.hpp) so osqp/settings.hpp can embed the choice without
 * the osqp library depending on the backends library: the setting
 * travels with OsqpSettings, the engines live in src/backends.
 *
 * Two first-order methods share the SolveStatus/OsqpInfo/
 * SolveTelemetry contract:
 *
 *  - Admm  — the OSQP ADMM loop (default);
 *  - Pdhg  — a restarted primal-dual hybrid gradient engine in the
 *            PDLP/PDQP style (arXiv 2311.07710): matrix-free,
 *            adaptive primal-dual step-size balancing, adaptive
 *            restarts to the running average;
 *  - Auto  — a static per-problem pick between the two, made once by
 *            chooseBackend() when the backend is built.
 */

#ifndef RSQP_BACKENDS_BACKEND_CONFIG_HPP
#define RSQP_BACKENDS_BACKEND_CONFIG_HPP

#include "common/types.hpp"

namespace rsqp
{

/** Which first-order engine answers a solve. */
enum class BackendKind
{
    Admm,  ///< OSQP ADMM loop (default)
    Pdhg,  ///< restarted PDHG/PDQP engine
    Auto,  ///< chooseBackend() picks Admm or Pdhg at build time
};

/** Printable backend name ("admm", "pdhg", "auto"). */
// Inline so rsqp_osqp can stringify its telemetry label without
// linking the backends library (settings.hpp pulls this header in).
inline const char*
backendKindName(BackendKind kind)
{
    switch (kind) {
    case BackendKind::Admm: return "admm";
    case BackendKind::Pdhg: return "pdhg";
    case BackendKind::Auto: return "auto";
    }
    return "unknown";
}

/** First-order method selection riding on OsqpSettings. */
struct FirstOrderSettings
{
    /** Which engine (or the Auto pick) answers solve(). */
    BackendKind method = BackendKind::Admm;
};

} // namespace rsqp

#endif // RSQP_BACKENDS_BACKEND_CONFIG_HPP
