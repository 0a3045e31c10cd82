// Per-layer metrics: the catalog every traced run prints, the service
// metrics derived from served results, and the replay pass that sends
// each distinct traced input straight through the layer headers.

#include <algorithm>
#include <numeric>

#include "common/thread_pool.hpp"
#include "workloads.hpp"

namespace perfbench
{

using rsqp::QpProblem;
using rsqp::SolveRoute;

namespace
{

double
median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return nearestRank(v, 0.5);
}

double
mean(const std::vector<double>& v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
            static_cast<double>(v.size());
}

} // namespace

const std::vector<LayerMetric>&
layerCatalog()
{
    static const std::vector<LayerMetric> catalog = {
        // service: admission, fleet, request-latency decomposition
        {"service.queue_wait_ms_p50", "ms", "lower"},
        {"service.queue_wait_ms_p99", "ms", "lower"},
        {"service.submit_us_p50", "us", "lower"},
        {"service.rejected_frac", "frac", "lower"},
        {"service.shed_frac", "frac", "lower"},
        {"service.expired_frac", "frac", "lower"},
        {"service.latency_mean_ms", "ms", "lower"},
        {"service.queue_wait_mean_ms", "ms", "lower"},
        {"service.unexplained_mean_ms", "ms", "lower"},
        {"service.unexplained_frac", "frac", "lower"},
        {"service.generator_late_ms_p50", "ms", "lower"},
        {"service.generator_late_ms_p99", "ms", "lower"},
        {"fleet.utilization_pct.core0", "%", "higher"},
        {"fleet.utilization_pct.core1", "%", "higher"},
        {"fleet.utilization_pct.core2", "%", "higher"},
        {"fleet.interleaved_jobs", "count", "higher"},
        // session routes, customization cache, fingerprint
        {"session.route.parametric_frac", "frac", "higher"},
        {"session.route.thaw_frac", "frac", "higher"},
        {"session.route.cold_frac", "frac", "lower"},
        {"session.setup_ms.parametric", "ms", "lower"},
        {"session.setup_ms.thaw", "ms", "lower"},
        {"session.setup_ms.cold", "ms", "lower"},
        {"session.setup_mean_ms", "ms", "lower"},
        {"session.solve_mean_ms", "ms", "lower"},
        {"cache.hit_ratio", "frac", "higher"},
        {"cache.evictions", "count", "lower"},
        {"fingerprint.us", "us", "lower"},
        // core / encoding / cvb (replay)
        {"core.customize_ms", "ms", "lower"},
        {"core.thaw_ms", "ms", "lower"},
        {"core.freeze_ms", "ms", "lower"},
        {"core.solver_build_ms", "ms", "lower"},
        {"encoding.structure_search_ms", "ms", "lower"},
        {"cvb.compress_ms", "ms", "lower"},
        {"core.ep_total", "count", "lower"},
        {"core.eta", "ratio", "higher"},
        {"core.device_solve_ms", "ms", "lower"},
        // arch: modeled device (exact counts) and the interpreter
        {"arch.cycles", "count", "lower"},
        {"arch.cycles.control", "count", "lower"},
        {"arch.cycles.scalar", "count", "lower"},
        {"arch.cycles.data_transfer", "count", "lower"},
        {"arch.cycles.vector_op", "count", "lower"},
        {"arch.cycles.vector_dup", "count", "lower"},
        {"arch.cycles.spmv", "count", "lower"},
        {"arch.instructions", "count", "lower"},
        {"arch.modeled_device_ms", "ms", "lower"},
        {"arch.interp_slowdown", "ratio", "lower"},
        // osqp / solvers / backends
        {"osqp.admm_iterations", "count", "lower"},
        {"osqp.setup_ms", "ms", "lower"},
        {"pcg.iterations_total", "count", "lower"},
        {"backends.kind", "code", "lower"},
        // linalg hot path (host PCG) and the KKT operator
        {"linalg.spmv_p_ms", "ms", "lower"},
        {"linalg.spmv_a_ms", "ms", "lower"},
        {"linalg.spmv_at_ms", "ms", "lower"},
        {"linalg.fused_vector_ops_ms", "ms", "lower"},
        {"linalg.precond_ms", "ms", "lower"},
        {"linalg.reduction_ms", "ms", "lower"},
        {"linalg.spmv_p_calls", "count", "lower"},
        {"linalg.spmv_a_calls", "count", "lower"},
        {"linalg.spmv_at_calls", "count", "lower"},
        {"linalg.fused_vector_ops_calls", "count", "lower"},
        {"linalg.precond_calls", "count", "lower"},
        {"linalg.reduction_calls", "count", "lower"},
        {"linalg.spmv_p.ops_per_byte", "flop/B", "higher"},
        {"linalg.spmv_a.ops_per_byte", "flop/B", "higher"},
        {"linalg.spmv_at.ops_per_byte", "flop/B", "higher"},
        {"linalg.fused_vector_ops.ops_per_byte", "flop/B", "higher"},
        {"linalg.precond.ops_per_byte", "flop/B", "higher"},
        {"linalg.reduction.ops_per_byte", "flop/B", "higher"},
        {"kkt.apply_us", "us", "lower"},
        {"kkt.bytes_per_apply", "B", "lower"},
        {"kkt.flops_per_apply", "flop", "lower"},
        {"kkt.ops_per_byte", "flop/B", "higher"},
        // common: thread pool
        {"thread_pool.region_us_1t", "us", "lower"},
        {"thread_pool.region_us_nt", "us", "lower"},
        {"thread_pool.solve_s_nproc", "s", "lower"},
        {"thread_pool.scaling", "ratio", "higher"},
        // telemetry: traced-vs-untraced difference per end-to-end metric
        {"telemetry.trace_overhead_pct.setup_s", "%", "lower"},
        {"telemetry.trace_overhead_pct.latency_p50_ms", "%", "lower"},
        {"telemetry.trace_overhead_pct.latency_p90_ms", "%", "lower"},
        {"telemetry.trace_overhead_pct.throughput_rps", "%", "lower"},
        {"telemetry.trace_overhead_pct.goodput_frac", "%", "lower"},
        {"telemetry.trace_overhead_pct.solve_s_1t", "%", "lower"},
    };
    return catalog;
}

const std::vector<std::string>&
endToEndNames()
{
    static const std::vector<std::string> names = {
        "setup_s",        "latency_p50_ms", "latency_p90_ms",
        "throughput_rps", "goodput_frac",   "solve_s_1t"};
    return names;
}

double
servedSolveSum(const std::map<std::uint64_t, std::vector<double>>& solves)
{
    double sum = 0.0;
    for (const auto& [key, seconds] : solves)
        sum += median(seconds);
    return sum;
}

void
completeLayers(MetricSet& layers)
{
    for (const LayerMetric& m : layerCatalog())
        if (!layers.has(m.name))
            layers.set(m.name, 0.0, m.unit);
}

namespace
{

/** Median seconds of `reps` calls of `fn`. */
template <typename Fn>
double
medianSeconds(int reps, Fn&& fn)
{
    std::vector<double> t;
    for (int i = 0; i < reps; ++i) {
        const auto a = Clock::now();
        fn();
        t.push_back(secondsBetween(a, Clock::now()));
    }
    return median(t);
}

} // namespace

void
recordServedSpans(Tracer& tracer, std::uint64_t request, const char* name,
                  double start, double submitStart, double end,
                  const ServedSample& sample)
{
    if (!tracer.enabled())
        return;
    const std::int64_t root = tracer.record(name, start, end, -1, request);
    tracer.record("service.submitAsync", submitStart,
                  submitStart + sample.submitSeconds, root, request);
    double t = submitStart;
    for (const auto& [child, seconds] :
         {std::pair<const char*, double>{"service.queue_wait",
                                         sample.queueWait},
          {"session.setup", sample.setup},
          {"session.solve", sample.solve}}) {
        if (seconds <= 0.0)
            continue;
        tracer.record(child, t, t + seconds, root, request);
        t += seconds;
    }
}

void
servedLayerMetrics(const std::vector<ServedSample>& samples,
                   MetricSet& layers)
{
    std::vector<double> wait, submit, latency, setup, solve;
    std::vector<double> byRoute[3];
    std::size_t routes[3] = {0, 0, 0};
    double device = 0.0, deviceWall = 0.0;
    for (const ServedSample& s : samples) {
        submit.push_back(s.submitSeconds * 1e6);
        if (s.route == SolveRoute::None)
            continue;  // never ran (rejected, shed, expired)
        wait.push_back(s.queueWait * 1e3);
        latency.push_back(s.latency * 1e3);
        setup.push_back(s.setup * 1e3);
        solve.push_back(s.solve * 1e3);
        const int r = s.route == SolveRoute::Parametric ? 0
            : s.route == SolveRoute::CacheThaw         ? 1
                                                       : 2;
        ++routes[r];
        byRoute[r].push_back(s.setup * 1e3);
        device += s.device;
        deviceWall += s.solve;
    }
    std::sort(wait.begin(), wait.end());
    layers.set("service.queue_wait_ms_p50", nearestRank(wait, 0.5), "ms");
    layers.set("service.queue_wait_ms_p99", nearestRank(wait, 0.99), "ms");
    layers.set("service.submit_us_p50", median(submit), "us");
    const double ran = static_cast<double>(latency.size());
    const double latMean = mean(latency);
    const double waitMean = mean(wait);
    const double setupMean = mean(setup);
    const double solveMean = mean(solve);
    // Remainder of request latency that queue wait, setup and solve do
    // not explain: placement, stream hand-off, callback delivery (and,
    // open loop, generator lateness).
    const double unexplained = latMean - waitMean - setupMean - solveMean;
    layers.set("service.latency_mean_ms", latMean, "ms");
    layers.set("service.queue_wait_mean_ms", waitMean, "ms");
    layers.set("session.setup_mean_ms", setupMean, "ms");
    layers.set("session.solve_mean_ms", solveMean, "ms");
    layers.set("service.unexplained_mean_ms", unexplained, "ms");
    layers.set("service.unexplained_frac",
               latMean > 0.0 ? unexplained / latMean : 0.0, "frac");
    if (ran > 0.0) {
        layers.set("session.route.parametric_frac", routes[0] / ran, "frac");
        layers.set("session.route.thaw_frac", routes[1] / ran, "frac");
        layers.set("session.route.cold_frac", routes[2] / ran, "frac");
    }
    layers.set("session.setup_ms.parametric", median(byRoute[0]), "ms");
    layers.set("session.setup_ms.thaw", median(byRoute[1]), "ms");
    layers.set("session.setup_ms.cold", median(byRoute[2]), "ms");
    if (device > 0.0)
        layers.set("arch.interp_slowdown", deviceWall / device, "ratio");
    layers.set("core.device_solve_ms", median(solve), "ms");
}

void
fleetLayerMetrics(const rsqp::FleetStats& before,
                  const rsqp::FleetStats& after,
                  const rsqp::ServiceStats& statsBefore,
                  const rsqp::ServiceStats& statsAfter, MetricSet& layers)
{
    const double wall = after.wallSeconds - before.wallSeconds;
    rsqp::Count interleaved = 0, hits = 0, misses = 0, evictions = 0;
    for (std::size_t c = 0; c < after.cores.size(); ++c) {
        const rsqp::CoreStats& a = after.cores[c];
        const rsqp::CoreStats& b = before.cores[c];
        if (c < 3 && wall > 0.0)
            layers.set("fleet.utilization_pct.core" + std::to_string(c),
                       100.0 * (a.busySeconds - b.busySeconds) / wall, "%");
        interleaved += a.interleavedJobs - b.interleavedJobs;
        hits += a.cache.hits - b.cache.hits;
        misses += a.cache.misses - b.cache.misses;
        evictions += a.cache.evictions - b.cache.evictions;
    }
    layers.set("fleet.interleaved_jobs", static_cast<double>(interleaved),
               "count");
    const double lookups = static_cast<double>(hits + misses);
    layers.set("cache.hit_ratio",
               lookups > 0.0 ? static_cast<double>(hits) / lookups : 0.0,
               "frac");
    layers.set("cache.evictions", static_cast<double>(evictions), "count");
    const double submitted =
        static_cast<double>(statsAfter.submitted - statsBefore.submitted);
    if (submitted > 0.0) {
        layers.set("service.rejected_frac",
                   (statsAfter.rejected - statsBefore.rejected) / submitted,
                   "frac");
        layers.set("service.shed_frac",
                   (statsAfter.shed - statsBefore.shed) / submitted, "frac");
        layers.set("service.expired_frac",
                   (statsAfter.expired - statsBefore.expired) / submitted,
                   "frac");
    }
}

void
replayLayers(const std::vector<QpProblem>& inputs,
             const rsqp::SessionConfig& config, MetricSet& layers,
             Tracer& tracer)
{
    std::vector<double> fingerprint, customize, thaw, freeze, build,
        search, compress, deviceWall, hostSetup;
    rsqp::Count epTotal = 0, instructions = 0, iterations = 0, pcg = 0;
    rsqp::Count cycles = 0;
    std::array<rsqp::Count, 6> classCycles{};
    double eta = 0.0, deviceSeconds = 0.0;
    auto cache = std::make_shared<rsqp::CustomizationCache>(
        inputs.size() + 1);

    for (std::size_t i = 0; i < inputs.size(); ++i) {
        const QpProblem& qp = inputs[i];
        const std::uint64_t request = 1'000'000'000ULL + i;
        ScopedSpan root(tracer, "replay.input", -1, request);
        const std::int64_t parent = root.id();

        rsqp::StructureFingerprint fp;
        fingerprint.push_back(1e6 * medianSeconds(21, [&] {
            fp = rsqp::fingerprintCustomization(qp, config.custom);
        }));
        {
            ScopedSpan span(tracer, "customization_cache.find", parent, request);
            (void)cache->find(fp);
        }

        QpProblem scaled = qp;
        rsqp::ruizEquilibrate(scaled, config.osqp.scalingIterations);

        rsqp::ProblemCustomization custom;
        {
            ScopedSpan span(tracer, "core.customizeProblem", parent,
                            request);
            custom = rsqp::customizeProblem(scaled, config.custom);
            customize.push_back(span.close() * 1e3);
        }
        {
            // The E_p search alone, on the three encoded operators.
            const rsqp::Index c = config.custom.c;
            const rsqp::SparsityString p = rsqp::encodeMatrix(
                rsqp::CsrMatrix::fromCsc(scaled.pUpper.symUpperToFull()), c);
            const rsqp::SparsityString a =
                rsqp::encodeMatrix(rsqp::CsrMatrix::fromCsc(scaled.a), c);
            const rsqp::SparsityString at = rsqp::encodeMatrix(
                rsqp::CsrMatrix::fromCsc(scaled.a.transpose()), c);
            ScopedSpan span(tracer, "encoding.searchStructureSet", parent,
                            request);
            (void)rsqp::searchStructureSet({&p, &a, &at},
                                           config.custom.search);
            search.push_back(span.close() * 1e3);
        }
        {
            // The E_c compression alone, on the customized packings.
            ScopedSpan span(tracer, "cvb.compressFirstFit", parent, request);
            for (const rsqp::MatrixArtifacts* m :
                 {&custom.p, &custom.a, &custom.at, &custom.atSq})
                (void)rsqp::compressFirstFit(
                    rsqp::buildAccessRequirements(m->packed));
            compress.push_back(span.close() * 1e3);
        }
        std::shared_ptr<const rsqp::CustomizationArtifact> artifact;
        {
            ScopedSpan span(tracer, "core.freezeCustomization", parent, request);
            artifact = std::make_shared<rsqp::CustomizationArtifact>(
                rsqp::freezeCustomization(custom));
            freeze.push_back(span.close() * 1e3);
        }
        cache->insert(fp, artifact);
        {
            ScopedSpan span(tracer, "core.thawCustomization", parent, request);
            (void)rsqp::thawCustomization(scaled, *artifact, config.custom);
            thaw.push_back(span.close() * 1e3);
        }
        epTotal += custom.totalEp();

        std::unique_ptr<rsqp::RsqpSolver> solver;
        {
            ScopedSpan span(tracer, "core.RsqpSolver", parent, request);
            solver = std::make_unique<rsqp::RsqpSolver>(
                qp, config.osqp, config.custom, artifact);
            build.push_back(span.close() * 1e3);
        }
        {
            ScopedSpan span(tracer, "core.RsqpSolver.solve", parent, request);
            const rsqp::RsqpResult r = solver->solve();
            deviceWall.push_back(span.close());
            deviceSeconds += r.deviceSeconds;
            cycles += r.machineStats.totalCycles;
            instructions += r.machineStats.instructions;
            for (std::size_t c = 0; c < 6; ++c)
                classCycles[c] += r.machineStats.classCycles[c];
            iterations += r.iterations;
            pcg += r.pcgIterationsTotal;
            eta += r.eta;
        }
        {
            // The session path: thaw route from the replay cache, then
            // the parametric route on the same request.
            rsqp::SolverSession session(config, cache);
            ScopedSpan span(tracer, "session.solve", parent, request);
            (void)session.solve(qp);
            (void)session.solve(qp);
        }
        {
            ScopedSpan span(tracer, "osqp.OsqpSolver", parent, request);
            rsqp::OsqpSolver host(qp, config.osqp);
            hostSetup.push_back(span.close() * 1e3);
        }
    }
    const double n = static_cast<double>(std::max<std::size_t>(1,
                                                               inputs.size()));
    layers.set("fingerprint.us", mean(fingerprint), "us");
    layers.set("core.customize_ms", mean(customize), "ms");
    layers.set("core.thaw_ms", mean(thaw), "ms");
    layers.set("core.freeze_ms", mean(freeze), "ms");
    layers.set("core.solver_build_ms", mean(build), "ms");
    layers.set("encoding.structure_search_ms", mean(search), "ms");
    layers.set("cvb.compress_ms", mean(compress), "ms");
    layers.set("core.ep_total", static_cast<double>(epTotal), "count");
    layers.set("core.eta", eta / n, "ratio");
    layers.set("arch.cycles", static_cast<double>(cycles), "count");
    static const char* kClass[6] = {"control", "scalar", "data_transfer",
                                    "vector_op", "vector_dup", "spmv"};
    for (std::size_t c = 0; c < 6; ++c)
        layers.set(std::string("arch.cycles.") + kClass[c],
                   static_cast<double>(classCycles[c]), "count");
    layers.set("arch.instructions", static_cast<double>(instructions),
               "count");
    layers.set("arch.modeled_device_ms", deviceSeconds * 1e3 / n, "ms");
    layers.set("osqp.setup_ms", mean(hostSetup), "ms");
    // Exact counts over the replayed inputs: sums over served requests
    // would vary with how many requests a window fitted.
    layers.set("osqp.admm_iterations", static_cast<double>(iterations),
               "count");
    layers.set("pcg.iterations_total", static_cast<double>(pcg), "count");
    // The device program runs the plain ADMM loop.
    layers.set("backends.kind",
               static_cast<int>(rsqp::BackendKind::Admm), "code");
    if (!layers.has("arch.interp_slowdown") && deviceSeconds > 0.0)
        layers.set("arch.interp_slowdown",
                   std::accumulate(deviceWall.begin(), deviceWall.end(),
                                   0.0) / deviceSeconds,
                   "ratio");
}

} // namespace perfbench
