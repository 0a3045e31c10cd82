/**
 * @file
 * Per-backend registry counters (`rsqp_backend_*`), shared by every
 * QpBackend implementation. Labels follow the registry's
 * labels-in-name convention: `rsqp_backend_solves_total{backend="pdhg"}`.
 */

#ifndef RSQP_BACKENDS_BACKEND_METRICS_HPP
#define RSQP_BACKENDS_BACKEND_METRICS_HPP

#include "osqp/status.hpp"

namespace rsqp
{

/**
 * Record one completed backend solve in the process-wide registry:
 * bumps `rsqp_backend_solves_total`, `rsqp_backend_iterations_total`
 * and `rsqp_backend_restarts_total` for the given backend label.
 * Called once per solve — a couple of name lookups, invisible next to
 * one KKT step or SpMV.
 */
void recordBackendSolve(const char* backend, const OsqpInfo& info);

} // namespace rsqp

#endif // RSQP_BACKENDS_BACKEND_METRICS_HPP
