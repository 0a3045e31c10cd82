/**
 * @file
 * The unified public API facade of the RSQP library, installed as
 * <rsqp/rsqp.hpp>. This is the single header applications include:
 *
 * @code
 *   #include "rsqp_api.hpp"          // in-tree
 *   #include <rsqp/rsqp.hpp>         // installed
 *
 *   rsqp::QpProblem qp = ...;        // P (upper CSC), q, A, l, u
 *   rsqp::OsqpSettings settings;     // defaults follow OSQP
 *
 *   // Reference CPU solve:
 *   rsqp::OsqpSolver cpu(qp, settings);
 *   auto ref = cpu.solve();          // ref.info.telemetry
 *
 *   // Accelerated solve on a problem-customized architecture:
 *   rsqp::CustomizeSettings custom;  // C = 64, E_p + E_c on
 *   rsqp::RsqpSolver fpga(qp, settings, custom);
 *   auto acc = fpga.solve();         // acc.deviceSeconds, acc.eta
 *
 *   // Multi-client service with cached customizations:
 *   rsqp::SolverService service{rsqp::ServiceConfig{}};
 *   auto session = service.openSession(rsqp::SessionConfig{});
 *   std::puts(service.metricsText().c_str());  // Prometheus scrape
 *
 *   // Async serving: one SubmitOptions struct (admission class,
 *   // deadline, cacheability, warm start) and a callback invoked
 *   // exactly once; cancel() revokes requests still queued.
 *   rsqp::SubmitOptions opts;
 *   opts.admissionClass = rsqp::AdmissionClass::Realtime;
 *   auto token = service.submitAsync(session, qp, opts,
 *                                    [](rsqp::SessionResult r) {});
 *   service.cancel(token);           // true only while still queued
 *   auto fut = service.submit(session, qp, opts);  // future adapter
 * @endcode
 *
 * The facade pulls in the solver umbrella (core/rsqp.hpp), the
 * multi-client service layer, and the telemetry subsystem (metrics
 * registry, trace spans, per-solve telemetry records). Everything
 * else under src/ is implementation detail subject to change.
 */

#ifndef RSQP_RSQP_API_HPP
#define RSQP_RSQP_API_HPP

#include "core/rsqp.hpp"
#include "service/service.hpp"
#include "telemetry/telemetry.hpp"

#endif // RSQP_RSQP_API_HPP
