/**
 * @file
 * The three workloads, the traced replay through the layer headers,
 * and the per-layer metric catalog shared by every traced run.
 */

#ifndef PERFBENCH_WORKLOADS_HPP
#define PERFBENCH_WORKLOADS_HPP

#include <string>
#include <vector>

#include "harness.hpp"

namespace perfbench
{

/** What one pass of a workload produced. */
struct RunResult
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    MetricSet endToEnd;  ///< the workload's end-to-end metrics
    MetricSet layers;    ///< per-layer metrics (filled when traced)
    /** JSON lines printed before the result: sample counts, per-rate
     *  and per-problem breakdowns, validity notes. */
    std::vector<std::string> details;
};

/**
 * Run one workload for `seconds` of measured time. With a tracer that
 * is enabled, also records spans and fills RunResult::layers (and runs
 * the replay pass on the distinct inputs seen).
 */
RunResult runMpcClosed(const Options& options, double seconds,
                       Tracer& tracer);
RunResult runMixedOpen(const Options& options, double seconds,
                       Tracer& tracer);
RunResult runLargeHost(const Options& options, double seconds,
                       Tracer& tracer);

/** Set-ups per run; setup_s is their median. */
inline constexpr int kSetupRounds = 5;

/** Fleet cores of the service workloads: one per usable CPU, leaving
 *  one for the load generator, at most three. */
unsigned fleetCores();

/** One per-layer metric of the catalog. */
struct LayerMetric
{
    const char* name;
    const char* unit;
    const char* better;  ///< "higher" or "lower"
};

/** Every per-layer metric a traced run prints, on every workload
 *  (metrics of a layer a workload does not reach read 0). */
const std::vector<LayerMetric>& layerCatalog();

/**
 * The end-to-end metric names; every workload reports all of them. On
 * the service workloads solve_s_1t is the summed time-to-tolerance
 * over the workload's structures as served (per structure, the median
 * solve time of its checked results); their device programs are below
 * the simulator's parallel threshold, so every served solve runs on
 * one thread.
 */
const std::vector<std::string>& endToEndNames();

/** Sum over keys (structures) of the median of their solve seconds. */
double servedSolveSum(
    const std::map<std::uint64_t, std::vector<double>>& solves);

/** Layer metrics of the replay pass (service workloads). */
void replayLayers(const std::vector<rsqp::QpProblem>& inputs,
                  const rsqp::SessionConfig& config, MetricSet& layers,
                  Tracer& tracer);

/** Metrics filled from served results: shared by both service
 *  workloads. One entry per completed request. */
struct ServedSample
{
    double latency = 0.0;       ///< seconds (submit or due -> callback)
    double submitSeconds = 0.0; ///< submitAsync call duration
    rsqp::SolveStatus status = rsqp::SolveStatus::Unsolved;
    bool good = false;
    rsqp::SolveRoute route = rsqp::SolveRoute::None;
    double queueWait = 0.0, setup = 0.0, solve = 0.0, device = 0.0;
    rsqp::Index iterations = 0;
};

/** Record one served request's spans: a root over [start, end] (submit
 *  or due time to callback), the submitAsync call, and the queue-wait,
 *  setup and solve intervals the result reports, laid end to end from
 *  the submit; the root's self time is the unexplained remainder. */
void recordServedSpans(Tracer& tracer, std::uint64_t request,
                       const char* name, double start, double submitStart,
                       double end, const ServedSample& sample);

/** Service-side per-layer metrics from served samples. */
void servedLayerMetrics(const std::vector<ServedSample>& samples,
                        MetricSet& layers);

/** Fleet/cache deltas between two snapshots of one service. */
void fleetLayerMetrics(const rsqp::FleetStats& before,
                       const rsqp::FleetStats& after,
                       const rsqp::ServiceStats& statsBefore,
                       const rsqp::ServiceStats& statsAfter,
                       MetricSet& layers);

/** Fill every catalog entry not yet set with 0. */
void completeLayers(MetricSet& layers);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HPP
