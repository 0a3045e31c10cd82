/**
 * @file
 * Million-request traffic-replay soak harness for the async service
 * API and its weighted-fair admission plane.
 *
 * A seeded synthetic trace mixes three client populations:
 *
 *   MPC chains            Realtime    bursty chains of small control
 *                                     QPs re-solved parametrically
 *   lasso sweeps          Interactive regularization-path sweeps
 *   portfolio rebalances  Batch       near-simultaneous bursts sized
 *                                     past the admission queue, the
 *                                     deliberate overload component
 *
 * The trace replays open-loop against a multi-core SolverService:
 * requests are submitted at their scheduled arrival times through
 * submitAsync() regardless of how the service is keeping up, each
 * completion callback stamps a preallocated per-request record, and
 * latency is measured from the *scheduled* arrival — queueing and
 * shedding delays are never hidden by a closed feedback loop.
 *
 * Reported per class: exact p50/p99/p99.9 latency over solved
 * requests, goodput (solved / submitted), shed/rejected/expired
 * counts, and error-budget consumption against per-class SLO targets.
 *
 * The exit code doubles as the CI gate under --check: zero lost
 * completions (every submission resolves its callback exactly once),
 * exactly-once accounting across the terminal counters, Realtime
 * isolation under Batch overload (zero Realtime sheds, Batch sheds
 * observed, Realtime p99 within --p99-bound), and the per-class
 * rsqp_service_class_* series present in the metrics text.
 *
 * Flags:
 *   --quick         small trace (CI smoke; default is >= 1M requests)
 *   --json          JSON object on stdout (schema rsqp-bench-soak-v1)
 *   --check         enforce the gates via the exit code
 *   --seed=N        trace and value-perturbation seed (default 0)
 *   --requests=N    total trace size (default 1000000, quick 8000)
 *   --rate=R        open-loop arrival rate in requests/s
 *                   (default 25000, quick 10000)
 *   --cores=N       fleet size (default: up to 4, never more than
 *                   the machine's CPU count minus one)
 *   --p99-bound=S   Realtime p99 latency gate in seconds (default 0.5)
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "rsqp_api.hpp"

namespace
{

using namespace rsqp;
using Clock = std::chrono::steady_clock;

/** Default fleet size: up to four cores, but never oversubscribing
 *  the machine — modeled cores beyond the physical CPU count would
 *  time-slice each other and the latency isolation the gates assert
 *  would measure scheduler contention instead of admission policy. */
unsigned
defaultCoreCount()
{
    const unsigned hardware =
        std::max(1u, std::thread::hardware_concurrency());
    return std::min(4u, hardware > 1 ? hardware - 1 : 1u);
}

struct Options
{
    bool quick = false;
    bool json = false;
    bool check = false;
    std::uint64_t seed = 0;
    std::size_t requests = 1'000'000;
    double ratePerSecond = 25'000.0;
    unsigned cores = defaultCoreCount();
    double p99BoundSeconds = 0.5;
};

Options
parseOptions(int argc, char** argv)
{
    Options options;
    bool requestsSet = false;
    bool rateSet = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            options.quick = true;
        } else if (arg == "--json") {
            options.json = true;
        } else if (arg == "--check") {
            options.check = true;
        } else if (arg.rfind("--seed=", 0) == 0) {
            options.seed =
                static_cast<std::uint64_t>(std::stoull(arg.substr(7)));
        } else if (arg.rfind("--requests=", 0) == 0) {
            options.requests =
                static_cast<std::size_t>(std::stoull(arg.substr(11)));
            requestsSet = true;
        } else if (arg.rfind("--rate=", 0) == 0) {
            options.ratePerSecond = std::stod(arg.substr(7));
            rateSet = true;
        } else if (arg.rfind("--cores=", 0) == 0) {
            options.cores =
                static_cast<unsigned>(std::stoul(arg.substr(8)));
        } else if (arg.rfind("--p99-bound=", 0) == 0) {
            options.p99BoundSeconds = std::stod(arg.substr(12));
        } else {
            std::cerr << "unknown flag: " << arg << "\n"
                      << "flags: --quick --json --check --seed=N "
                         "--requests=N --rate=R --cores=N "
                         "--p99-bound=S\n";
            std::exit(2);
        }
    }
    if (options.quick && !requestsSet)
        options.requests = 8'000;
    if (options.quick && !rateSet)
        options.ratePerSecond = 2'000.0;
    return options;
}

/** Same structure, new values: request r against one session. */
QpProblem
perturbValues(const QpProblem& base, std::size_t variant)
{
    QpProblem out = base;
    const Real scale = 1.0 + 0.02 * static_cast<Real>(variant);
    const Real shift = 0.05 * static_cast<Real>(variant + 1);
    for (Real& v : out.q)
        v = v * scale + shift;
    return out;
}

/** One scheduled arrival of the synthetic trace. */
struct TraceEvent
{
    double arrivalSeconds = 0.0;
    std::uint32_t session = 0;
    std::uint32_t variant = 0;
    AdmissionClass cls = AdmissionClass::Interactive;
};

/** Completion slot, preallocated one per request: the callback only
 *  ever writes its own slot, so recording is lock- and
 *  allocation-free on the hot path. */
struct Record
{
    Clock::time_point scheduled;
    double latencySeconds = 0.0;
    double queueWaitSeconds = 0.0;
    double serviceSeconds = 0.0;
    SolveStatus status = SolveStatus::Unsolved;
    AdmissionClass cls = AdmissionClass::Interactive;
};

/** Trace shape of one client population. */
struct Population
{
    AdmissionClass cls;
    std::size_t groupSize;     ///< requests per chain/sweep/burst
    double gapFraction;        ///< intra-group gap over mean spacing
    std::vector<std::uint32_t> sessions;  ///< alternated per group
};

/** Exact percentile over a sorted sample (nearest-rank). */
double
sortedPercentile(const std::vector<double>& sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double rank =
        std::ceil(q * static_cast<double>(sorted.size()));
    const std::size_t index = static_cast<std::size_t>(
        std::max(1.0, std::min(rank,
                               static_cast<double>(sorted.size()))));
    return sorted[index - 1];
}

std::string
formatDouble(double value, int precision)
{
    std::ostringstream os;
    os.precision(precision);
    os << std::fixed << value;
    return os.str();
}

/** Per-class SLO targets of the report (goodput fractions). */
double
sloTarget(AdmissionClass cls)
{
    switch (cls) {
    case AdmissionClass::Realtime: return 0.95;
    case AdmissionClass::Interactive: return 0.80;
    case AdmissionClass::Batch: return 0.25;
    }
    return 0.0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options options = parseOptions(argc, argv);

    // One session per problem structure; small structures so the
    // parametric fast path and stream interleaving both engage.
    // Sessions serialize their own requests (per-session FIFO), so
    // Realtime gets four structures: an MPC chain occupies a single
    // session, and more control loops means less head-of-line
    // blocking inside any one of them.
    // Control nx expands to n = 10 * (nx + nx/2) variables over the
    // MPC horizon, so small state counts keep the Realtime QPs tiny.
    std::vector<QpProblem> bases;
    bases.push_back(generateProblem(Domain::Control, 2, options.seed));
    bases.push_back(
        generateProblem(Domain::Control, 3, options.seed + 1));
    bases.push_back(
        generateProblem(Domain::Control, 4, options.seed + 2));
    bases.push_back(
        generateProblem(Domain::Control, 5, options.seed + 3));
    bases.push_back(
        generateProblem(Domain::Lasso, 20, options.seed + 4));
    bases.push_back(
        generateProblem(Domain::Lasso, 24, options.seed + 5));
    bases.push_back(
        generateProblem(Domain::Portfolio, 25, options.seed + 6));
    bases.push_back(
        generateProblem(Domain::Portfolio, 30, options.seed + 7));

    constexpr std::size_t kVariants = 4;
    std::vector<std::vector<QpProblem>> variants(bases.size());
    for (std::size_t s = 0; s < bases.size(); ++s)
        for (std::size_t v = 0; v < kVariants; ++v)
            variants[s].push_back(perturbValues(bases[s], v));

    // Population mix: 30% Realtime MPC chains, 30% Interactive lasso
    // sweeps, 40% Batch portfolio rebalances in bursts sized past the
    // admission queue — the deliberate overload that --check's
    // isolation gates measure Realtime against.
    const std::vector<Population> populations = {
        {AdmissionClass::Realtime, 16, 0.25, {0, 1, 2, 3}},
        {AdmissionClass::Interactive, 25, 0.5, {4, 5}},
        {AdmissionClass::Batch, 160, 0.01, {6, 7}},
    };
    const std::vector<double> shares = {0.3, 0.3, 0.4};

    std::vector<TraceEvent> events;
    events.reserve(options.requests + 256);
    const double duration = static_cast<double>(options.requests) /
                            options.ratePerSecond;
    Rng rng(options.seed);
    for (std::size_t p = 0; p < populations.size(); ++p) {
        const Population& pop = populations[p];
        const std::size_t target = static_cast<std::size_t>(
            std::ceil(shares[p] *
                      static_cast<double>(options.requests)));
        const std::size_t groups = std::max<std::size_t>(
            1, (target + pop.groupSize - 1) / pop.groupSize);
        const std::size_t count = groups * pop.groupSize;
        const double meanSpacing =
            duration / static_cast<double>(count);
        const double gap = meanSpacing * pop.gapFraction;
        const double groupSpacing =
            duration / static_cast<double>(groups);
        for (std::size_t g = 0; g < groups; ++g) {
            // Jittered group starts keep bursts from phase-locking
            // across populations while staying fully seeded.
            const double start =
                (static_cast<double>(g) + rng.uniform() * 0.9) *
                groupSpacing;
            const std::uint32_t session =
                pop.sessions[g % pop.sessions.size()];
            for (std::size_t r = 0; r < pop.groupSize; ++r) {
                TraceEvent event;
                event.arrivalSeconds =
                    start + gap * static_cast<double>(r);
                event.session = session;
                event.variant = static_cast<std::uint32_t>(
                    rng.uniformIndex(kVariants));
                event.cls = pop.cls;
                events.push_back(event);
            }
        }
    }
    std::sort(events.begin(), events.end(),
              [](const TraceEvent& a, const TraceEvent& b) {
                  return a.arrivalSeconds < b.arrivalSeconds;
              });
    const std::size_t total = events.size();

    ServiceConfig serviceConfig;
    serviceConfig.maxQueueDepth = 64;
    serviceConfig.fleet.coreCount = options.cores;
    serviceConfig.fleet.slotsPerCore = 1;
    serviceConfig.fleet.affinityQueueBound = 2;
    // Narrow streams: a launched stream runs to completion, so its
    // width is unpreemptible head-of-line latency for every Realtime
    // arrival behind it.
    serviceConfig.fleet.interleaveWidth = 2;
    // The isolation story is structural, not deadline-driven: a short
    // Realtime queue bounds how much backlog a solved Realtime request
    // can ever have waited behind, a dominant Realtime weight bounds
    // how much other-class work interleaves ahead of it, and Batch is
    // left bounded only by the global queue — its bursts fill the
    // queue end to end, and higher classes keep their admission
    // headroom by shedding the newest Batch job on arrival.
    auto& classes = serviceConfig.admission.classes;
    classes[static_cast<std::size_t>(AdmissionClass::Realtime)]
        .weight = 32;
    classes[static_cast<std::size_t>(AdmissionClass::Realtime)]
        .maxQueueDepth = 5;
    classes[static_cast<std::size_t>(AdmissionClass::Interactive)]
        .maxQueueDepth = 16;
    classes[static_cast<std::size_t>(AdmissionClass::Batch)]
        .maxQueueDepth = 0;
    SolverService service(serviceConfig);

    SessionConfig sessionConfig;
    sessionConfig.custom.c = 16;
    sessionConfig.osqp.maxIter = 300;
    std::vector<SessionId> sessions;
    for (std::size_t s = 0; s < bases.size(); ++s)
        sessions.push_back(service.openSession(sessionConfig));

    // Warmup outside the measured window: one synchronous solve per
    // (session, variant) populates the customization cache and the
    // parametric fast path, so the replay measures steady-state
    // serving latency rather than one-time compilation. The handful
    // of warmup solves stay in the service counters (the accounting
    // gate still balances); harness-side gates use the callback
    // counter, which only the replay touches.
    for (std::size_t s = 0; s < sessions.size(); ++s)
        for (std::size_t v = 0; v < kVariants; ++v)
            service.solve(sessions[s], variants[s][v]);

    // Open-loop replay: one pacing thread submits every event at its
    // scheduled wall time; falling behind shortens the next sleep
    // instead of stretching the trace.
    std::vector<Record> records(total);
    std::atomic<std::size_t> callbacks{0};
    const Clock::time_point start = Clock::now();
    Timer wall;
    for (std::size_t i = 0; i < total; ++i) {
        const TraceEvent& event = events[i];
        Record& record = records[i];
        record.cls = event.cls;
        record.scheduled =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            event.arrivalSeconds));
        if (record.scheduled - Clock::now() >
            std::chrono::microseconds(200))
            std::this_thread::sleep_until(record.scheduled);
        SubmitOptions submitOptions;
        submitOptions.admissionClass = event.cls;
        Record* slot = &record;
        service.submitAsync(
            sessions[event.session],
            variants[event.session][event.variant], submitOptions,
            [slot, &callbacks](SessionResult result) {
                slot->latencySeconds =
                    std::chrono::duration<double>(Clock::now() -
                                                  slot->scheduled)
                        .count();
                slot->queueWaitSeconds =
                    result.telemetry.queueWaitSeconds;
                slot->serviceSeconds = result.telemetry.setupSeconds +
                                       result.telemetry.solveSeconds;
                slot->status = result.status;
                callbacks.fetch_add(1, std::memory_order_relaxed);
            });
    }
    service.waitIdle();
    const double wallSeconds = wall.seconds();

    const ServiceStats stats = service.stats();
    const std::string metricsText = service.metricsText();

    // Exact per-class latency distributions over solved requests,
    // plus the queue-wait / service-time decomposition that tells an
    // overloaded class apart from a slow one.
    struct ClassReport
    {
        std::vector<double> solvedLatencies;
        double queueWaitSum = 0.0;
        double serviceSum = 0.0;
        std::size_t recordedSolved = 0;

        double meanQueueWait() const
        {
            return recordedSolved > 0
                       ? queueWaitSum /
                             static_cast<double>(recordedSolved)
                       : 0.0;
        }
        double meanService() const
        {
            return recordedSolved > 0
                       ? serviceSum /
                             static_cast<double>(recordedSolved)
                       : 0.0;
        }
    };
    std::vector<ClassReport> reports(kAdmissionClassCount);
    for (const Record& record : records) {
        if (record.status != SolveStatus::Solved)
            continue;
        ClassReport& report =
            reports[static_cast<std::size_t>(record.cls)];
        report.solvedLatencies.push_back(record.latencySeconds);
        report.queueWaitSum += record.queueWaitSeconds;
        report.serviceSum += record.serviceSeconds;
        ++report.recordedSolved;
    }
    for (ClassReport& report : reports)
        std::sort(report.solvedLatencies.begin(),
                  report.solvedLatencies.end());

    const std::size_t lost = total - callbacks.load();
    const Count accounted = stats.completed + stats.rejected +
                            stats.cancelled + stats.shed +
                            stats.expired + stats.shutdownDrained;
    const ClassStats& realtime = stats.of(AdmissionClass::Realtime);
    const ClassStats& batch = stats.of(AdmissionClass::Batch);
    const double realtimeP99 = sortedPercentile(
        reports[static_cast<std::size_t>(AdmissionClass::Realtime)]
            .solvedLatencies,
        0.99);

    const bool gateZeroLost = lost == 0;
    const bool gateAccounted = accounted == stats.submitted;
    const bool gateRealtimeNeverShed = realtime.shed == 0;
    const bool gateBatchShedUnderOverload = batch.shed > 0;
    const bool gateRealtimeP99 =
        realtime.solved > 0 && realtimeP99 <= options.p99BoundSeconds;
    const bool gateClassSeries =
        metricsText.find("rsqp_service_class_solved_total{"
                         "class=\"realtime\"}") != std::string::npos &&
        metricsText.find("rsqp_service_class_solved_total{"
                         "class=\"batch\"}") != std::string::npos &&
        metricsText.find("rsqp_service_class_queue_depth{"
                         "class=\"interactive\"}") !=
            std::string::npos &&
        metricsText.find("rsqp_service_class_retry_after_us") !=
            std::string::npos;

    auto classRow = [&](AdmissionClass cls) {
        struct Row
        {
            const char* name;
            const ClassStats* stats;
            double goodput;
            double p50;
            double p99;
            double p999;
            double meanQueueWait;
            double meanService;
            double target;
            double budgetUsed;
        };
        const ClassStats& slice = stats.of(cls);
        const ClassReport& report =
            reports[static_cast<std::size_t>(cls)];
        Row row;
        row.name = admissionClassName(cls);
        row.stats = &slice;
        row.goodput =
            slice.submitted > 0
                ? static_cast<double>(slice.solved) /
                      static_cast<double>(slice.submitted)
                : 0.0;
        row.p50 = sortedPercentile(report.solvedLatencies, 0.5);
        row.p99 = sortedPercentile(report.solvedLatencies, 0.99);
        row.p999 = sortedPercentile(report.solvedLatencies, 0.999);
        row.meanQueueWait = report.meanQueueWait();
        row.meanService = report.meanService();
        row.target = sloTarget(cls);
        // Error budget: the fraction of the allowed miss rate
        // (1 - target) this run consumed.
        row.budgetUsed =
            row.target < 1.0
                ? (1.0 - row.goodput) / (1.0 - row.target)
                : 0.0;
        return row;
    };

    if (options.json) {
        std::cout << "{\n  \"schema\": \"rsqp-bench-soak-v1\",\n"
                  << "  \"config\": {\"seed\": " << options.seed
                  << ", \"requests\": " << total
                  << ", \"rate_per_s\": "
                  << formatDouble(options.ratePerSecond, 1)
                  << ", \"cores\": " << options.cores
                  << ", \"quick\": "
                  << (options.quick ? "true" : "false")
                  << ", \"p99_bound_seconds\": "
                  << formatDouble(options.p99BoundSeconds, 4)
                  << "},\n"
                  << "  \"trace\": {\"structures\": " << bases.size()
                  << ", \"duration_seconds\": "
                  << formatDouble(duration, 4) << "},\n"
                  << "  \"totals\": {\"submitted\": "
                  << stats.submitted
                  << ", \"callbacks\": " << callbacks.load()
                  << ", \"lost\": " << lost
                  << ", \"completed\": " << stats.completed
                  << ", \"rejected\": " << stats.rejected
                  << ", \"shed\": " << stats.shed
                  << ", \"cancelled\": " << stats.cancelled
                  << ", \"expired\": " << stats.expired
                  << ", \"wall_seconds\": "
                  << formatDouble(wallSeconds, 4) << "},\n"
                  << "  \"classes\": [";
        bool first = true;
        for (AdmissionClass cls :
             {AdmissionClass::Realtime, AdmissionClass::Interactive,
              AdmissionClass::Batch}) {
            const auto row = classRow(cls);
            std::cout << (first ? "\n" : ",\n")
                      << "    {\"class\": \"" << row.name
                      << "\", \"submitted\": " << row.stats->submitted
                      << ", \"solved\": " << row.stats->solved
                      << ", \"rejected\": " << row.stats->rejected
                      << ", \"shed\": " << row.stats->shed
                      << ", \"expired\": " << row.stats->expired
                      << ", \"goodput\": "
                      << formatDouble(row.goodput, 4)
                      << ", \"p50_ms\": "
                      << formatDouble(row.p50 * 1e3, 3)
                      << ", \"p99_ms\": "
                      << formatDouble(row.p99 * 1e3, 3)
                      << ", \"p999_ms\": "
                      << formatDouble(row.p999 * 1e3, 3)
                      << ", \"mean_queue_wait_ms\": "
                      << formatDouble(row.meanQueueWait * 1e3, 3)
                      << ", \"mean_service_ms\": "
                      << formatDouble(row.meanService * 1e3, 3)
                      << ", \"slo_target\": "
                      << formatDouble(row.target, 2)
                      << ", \"error_budget_used\": "
                      << formatDouble(row.budgetUsed, 4) << "}";
            first = false;
        }
        std::cout << "\n  ],\n  \"gates\": {\"zero_lost\": "
                  << (gateZeroLost ? "true" : "false")
                  << ", \"accounted\": "
                  << (gateAccounted ? "true" : "false")
                  << ", \"realtime_never_shed\": "
                  << (gateRealtimeNeverShed ? "true" : "false")
                  << ", \"batch_shed_under_overload\": "
                  << (gateBatchShedUnderOverload ? "true" : "false")
                  << ", \"realtime_p99_within_bound\": "
                  << (gateRealtimeP99 ? "true" : "false")
                  << ", \"realtime_p99_seconds\": "
                  << formatDouble(realtimeP99, 4)
                  << ", \"class_series_exposed\": "
                  << (gateClassSeries ? "true" : "false")
                  << "}\n}\n";
    } else {
        std::cout << "# soak: " << total << " requests open-loop at "
                  << formatDouble(options.ratePerSecond, 0)
                  << " req/s, " << options.cores << " cores, seed "
                  << options.seed << ", wall "
                  << formatDouble(wallSeconds, 2) << " s\n";
        TextTable table({"class", "submitted", "solved", "goodput",
                         "shed", "rejected", "p50_ms", "p99_ms",
                         "p999_ms", "qwait_ms", "svc_ms",
                         "budget_used"});
        for (AdmissionClass cls :
             {AdmissionClass::Realtime, AdmissionClass::Interactive,
              AdmissionClass::Batch}) {
            const auto row = classRow(cls);
            table.addRow({row.name,
                          std::to_string(row.stats->submitted),
                          std::to_string(row.stats->solved),
                          formatDouble(row.goodput, 3),
                          std::to_string(row.stats->shed),
                          std::to_string(row.stats->rejected),
                          formatDouble(row.p50 * 1e3, 2),
                          formatDouble(row.p99 * 1e3, 2),
                          formatDouble(row.p999 * 1e3, 2),
                          formatDouble(row.meanQueueWait * 1e3, 2),
                          formatDouble(row.meanService * 1e3, 2),
                          formatDouble(row.budgetUsed, 3)});
        }
        table.print(std::cout);
        std::cout << "lost " << lost << "  realtime_shed "
                  << realtime.shed << "  batch_shed " << batch.shed
                  << "  realtime_p99_s "
                  << formatDouble(realtimeP99, 4) << " (bound "
                  << formatDouble(options.p99BoundSeconds, 2)
                  << ")\n";
    }

    if (!options.check)
        return 0;
    int failures = 0;
    if (!gateZeroLost)
        ++failures;
    if (!gateAccounted)
        ++failures;
    if (!gateRealtimeNeverShed)
        ++failures;
    if (!gateBatchShedUnderOverload)
        ++failures;
    if (!gateRealtimeP99)
        ++failures;
    if (!gateClassSeries)
        ++failures;
    return failures;
}
