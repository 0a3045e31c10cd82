#include "backends/backend_metrics.hpp"

#include <string>

#include "telemetry/metrics.hpp"

namespace rsqp
{

void
recordBackendSolve(const char* backend, const OsqpInfo& info)
{
    using telemetry::MetricsRegistry;
    MetricsRegistry& registry = MetricsRegistry::global();
    const std::string label =
        std::string("{backend=\"") + backend + "\"}";
    registry
        .counter("rsqp_backend_solves_total" + label,
                 "Completed solves per first-order backend")
        .increment();
    registry
        .counter("rsqp_backend_iterations_total" + label,
                 "First-order iterations per backend")
        .add(static_cast<std::uint64_t>(info.iterations));
    if (info.telemetry.restarts > 0)
        registry
            .counter("rsqp_backend_restarts_total" + label,
                     "Average restarts per backend")
            .add(static_cast<std::uint64_t>(info.telemetry.restarts));
}

} // namespace rsqp
