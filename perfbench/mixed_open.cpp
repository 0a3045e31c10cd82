// mixed-open: open-loop traffic on a seeded schedule at the benchmark's
// fixed rates. Realtime MPC chains, Interactive lasso sweeps over a
// structure pool larger than a core's cache partition, Batch portfolio
// bursts sized past the admission queue, and a small share of valid
// but primal-infeasible requests in their own sessions. Latency runs
// from each request's due time, so a stall charges every request
// queued behind it.

#include <algorithm>
#include <atomic>
#include <iostream>
#include <thread>

#include "streams.hpp"
#include "workloads.hpp"

namespace perfbench
{

namespace
{

using rsqp::AdmissionClass;

/** Rate ladder (multiples of MixedRates) and each rung's share of the
 *  window. The first rung is the nominal load the end-to-end latency
 *  and goodput metrics are read at. */
/// With a 30 s window the rungs last 24, 3 and 3 s: whole multiples of
/// every class period at their scale, so each rung holds a fixed number
/// of bursts and sweeps whatever the seeded phase. The upper rungs are
/// short: they only have to show whether the service keeps up.
constexpr double kScales[] = {1.0, 4.0, 8.0};
constexpr double kShares[] = {0.8, 0.1, 0.1};

/** A rung sustains its rate when the p99 of checked requests stays
 *  within this limit, goodput at or above the target, and the backlog
 *  does not grow. */
constexpr double kLatencyLimitMs = 1500.0;
constexpr double kGoodputTarget = 0.85;

/** A run whose generator sent its p99 request later than this is
 *  invalid: the lateness would read as service latency. */
constexpr double kLateBoundMs = 25.0;

struct Record
{
    Clock::time_point due;
    Clock::time_point submitted;
    double submitSeconds = 0.0;
    Clock::time_point done;
    rsqp::SessionResult result;
};

struct Rung
{
    double scale = 0.0;
    double duration = 0.0;
    std::vector<Arrival> arrivals;
    std::vector<rsqp::QpProblem> requests;
};

struct RungOutcome
{
    LatencySummary all, realtime, interactive, batch;
    LatencySummary late;  ///< generator lateness (ms)
    std::size_t attempted = 0, good = 0;
    bool wrong = false;
    bool backlogGrowing = false;
    double goodput = 0.0;
    double goodRps = 0.0;
    bool sustained = false;
    std::vector<ServedSample> samples;
    /** Solve seconds of checked results, per structure. */
    std::map<std::uint64_t, std::vector<double>> solves;
};

rsqp::SubmitOptions
optionsFor(AdmissionClass cls)
{
    rsqp::SubmitOptions o;
    o.admissionClass = cls;
    return o;
}

/** Set-up: a fresh service, every session, and the first solve of every
 *  structure of the pool (cold customize and program build), all
 *  submitted at once and waited for. */
std::unique_ptr<rsqp::SolverService>
setUp(const rsqp::ServiceConfig& config, const rsqp::SessionConfig& sc,
      const MixedPool& pool, std::vector<rsqp::SessionId>& sessions,
      bool& wrong)
{
    auto service = std::make_unique<rsqp::SolverService>(config);
    sessions.clear();
    for (std::uint32_t s = 0; s < pool.sessionCount; ++s)
        sessions.push_back(service->openSession(sc));
    struct First
    {
        std::uint32_t structure;
        std::future<rsqp::SessionResult> result;
    };
    std::vector<First> firsts;
    auto firstSolve = [&](const std::vector<std::uint32_t>& ids,
                          const std::vector<std::uint32_t>& slots,
                          AdmissionClass cls) {
        for (std::size_t i = 0; i < ids.size(); ++i)
            firsts.push_back(
                {ids[i],
                 service->submit(sessions[slots[i % slots.size()]],
                                 pool.structures[ids[i]], optionsFor(cls))});
    };
    firstSolve(pool.control, pool.realtimeSessions, AdmissionClass::Realtime);
    firstSolve(pool.lasso, pool.interactiveSessions,
               AdmissionClass::Interactive);
    firstSolve(pool.portfolio, pool.batchSessions,
               AdmissionClass::Interactive);
    firstSolve(pool.infeasible, pool.infeasibleSessions,
               AdmissionClass::Interactive);
    for (First& f : firsts) {
        const rsqp::SessionResult r = f.result.get();
        const Expect e = pool.family[f.structure] == Family::Infeasible
            ? Expect::PrimalInfeasible
            : Expect::Solved;
        wrong = wrong ||
            judge(pool.structures[f.structure], e, r.status, r.x, r.y,
                  sc.osqp)
                .wrong;
    }
    return service;
}

RungOutcome
runRung(rsqp::SolverService& service,
        const std::vector<rsqp::SessionId>& sessions, const Rung& rung,
        const rsqp::SessionConfig& sc, Tracer& tracer)
{
    const std::size_t n = rung.arrivals.size();
    std::vector<Record> recs(n);
    std::atomic<std::size_t> completed{0};
    std::vector<double> inflight(n, 0.0);

    const auto c0 = Clock::now() + std::chrono::milliseconds(5);
    const double tr0 = tracer.now() + 0.005;
    // Generator lateness counts only the generator's own delay: time a
    // request waited behind the previous submitAsync call is the
    // service's, and stays in that request's latency.
    std::vector<double> ownLate(n, 0.0);
    Clock::time_point prevReturn = c0;
    for (std::size_t i = 0; i < n; ++i) {
        const Arrival& a = rung.arrivals[i];
        Record& rec = recs[i];
        rec.due = c0 + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(a.due));
        std::this_thread::sleep_until(rec.due);
        rsqp::QpProblem qp = rung.requests[i];
        rec.submitted = Clock::now();
        ownLate[i] =
            secondsBetween(std::max(rec.due, prevReturn), rec.submitted);
        service.submitAsync(sessions[a.session], std::move(qp),
                            optionsFor(a.cls),
                            [&recs, &completed, i](rsqp::SessionResult r) {
                                recs[i].done = Clock::now();
                                recs[i].result = std::move(r);
                                completed.fetch_add(
                                    1, std::memory_order_release);
                            });
        prevReturn = Clock::now();
        rec.submitSeconds = secondsBetween(rec.submitted, prevReturn);
        inflight[i] = static_cast<double>(
            i + 1 - completed.load(std::memory_order_relaxed));
    }
    service.waitIdle();
    while (completed.load(std::memory_order_acquire) < n)
        std::this_thread::sleep_for(std::chrono::microseconds(200));

    RungOutcome o;
    std::vector<double> lat, rt, ia, bt, late;
    for (std::size_t i = 0; i < n; ++i) {
        const Arrival& a = rung.arrivals[i];
        const Record& rec = recs[i];
        const rsqp::SessionResult& r = rec.result;
        const Verdict v = judge(rung.requests[i], a.expect, r.status, r.x,
                                r.y, sc.osqp);
        o.wrong = o.wrong || v.wrong;
        ++o.attempted;
        late.push_back(ownLate[i] * 1e3);
        ServedSample s;
        s.latency = secondsBetween(rec.due, rec.done);
        s.submitSeconds = rec.submitSeconds;
        s.status = r.status;
        s.good = v.good;
        s.route = r.telemetry.route;
        s.queueWait = r.telemetry.queueWaitSeconds;
        s.setup = r.setupSeconds;
        s.solve = r.solveSeconds;
        s.device = r.deviceSeconds;
        s.iterations = r.iterations;
        if (v.good) {
            ++o.good;
            lat.push_back(s.latency * 1e3);
            o.solves[a.structure].push_back(s.solve);
            if (a.cls == AdmissionClass::Realtime)
                rt.push_back(s.latency * 1e3);
            else if (a.cls == AdmissionClass::Interactive)
                ia.push_back(s.latency * 1e3);
            else
                bt.push_back(s.latency * 1e3);
        }
        if (tracer.enabled()) {
            const double due = tr0 + a.due;
            const double sub =
                tr0 + secondsBetween(c0, rec.submitted);
            recordServedSpans(tracer, i + 1, "mixed.request", due, sub,
                              due + s.latency, s);
        }
        o.samples.push_back(s);
    }
    o.all = summarize(lat);
    o.realtime = summarize(rt);
    o.interactive = summarize(ia);
    o.batch = summarize(bt);
    o.late = summarize(late);
    o.goodput = n ? static_cast<double>(o.good) / static_cast<double>(n)
                  : 0.0;
    o.goodRps = static_cast<double>(o.good) / rung.duration;
    // Backlog growth: requests in flight over the last third of the
    // rung against the first third (bursts make single samples noisy).
    const std::size_t third = n / 3;
    if (third > 0) {
        double head = 0.0, tail = 0.0;
        for (std::size_t i = 0; i < third; ++i) {
            head += inflight[i];
            tail += inflight[n - 1 - i];
        }
        head /= static_cast<double>(third);
        tail /= static_cast<double>(third);
        o.backlogGrowing = tail > 2.0 * head + 16.0;
    }
    o.sustained = o.all.p99 <= kLatencyLimitMs &&
        o.goodput >= kGoodputTarget && !o.backlogGrowing;
    return o;
}

} // namespace

RunResult
runMixedOpen(const Options& options, double seconds, Tracer& tracer)
{
    RunResult out;
    // Input generation (not set-up): the pool, every rung's schedule and
    // every request it carries.
    const MixedPool pool = mixedPool();
    const MixedRates rates;
    std::vector<Rung> rungs;
    for (std::size_t k = 0; k < std::size(kScales); ++k) {
        Rung rung;
        rung.scale = kScales[k];
        rung.duration = seconds * kShares[k];
        rung.arrivals = mixedSchedule(options.seed, k, rung.scale,
                                      rung.duration, pool, rates);
        for (const Arrival& a : rung.arrivals)
            rung.requests.push_back(materialize(pool, a, options.seed));
        rungs.push_back(std::move(rung));
    }

    rsqp::ServiceConfig config;
    config.fleet.coreCount = fleetCores();
    const rsqp::SessionConfig sessionConfig;

    std::unique_ptr<rsqp::SolverService> service;
    std::vector<rsqp::SessionId> sessions;
    std::vector<double> setups;
    bool wrong = false;
    for (int round = 0; round < kSetupRounds; ++round) {
        service.reset();
        const auto t0 = Clock::now();
        service = setUp(config, sessionConfig, pool, sessions, wrong);
        setups.push_back(secondsBetween(t0, Clock::now()));
    }
    std::sort(setups.begin(), setups.end());
    out.endToEnd.set("setup_s", nearestRank(setups, 0.5), "s");

    const rsqp::FleetStats fleetBefore = service->fleetStats();
    const rsqp::ServiceStats statsBefore = service->stats();
    std::vector<RungOutcome> outcomes;
    for (const Rung& rung : rungs)
        outcomes.push_back(
            runRung(*service, sessions, rung, sessionConfig, tracer));

    bool valid = true;
    double sustained = 0.0;
    std::string perRate = "[";
    for (std::size_t k = 0; k < outcomes.size(); ++k) {
        const RungOutcome& o = outcomes[k];
        wrong = wrong || o.wrong;
        out.attempted += o.attempted;
        out.failed += o.attempted - o.good;
        valid = valid && o.late.p99 <= kLateBoundMs;
        if (o.sustained)
            sustained = o.goodRps;
        perRate += std::string(k ? ", " : "") +
            jsonObject(
                {{"scale", jsonNumber(rungs[k].scale)},
                 {"offered_rps",
                  jsonNumber(static_cast<double>(o.attempted) /
                             rungs[k].duration)},
                 {"duration_s", jsonNumber(rungs[k].duration)},
                 {"attempted", std::to_string(o.attempted)},
                 {"good", std::to_string(o.good)},
                 {"goodput_frac", jsonNumber(o.goodput)},
                 {"good_rps", jsonNumber(o.goodRps)},
                 {"latency_samples", std::to_string(o.all.count)},
                 {"latency_p50_ms", jsonNumber(o.all.p50)},
                 {"latency_p90_ms", jsonNumber(o.all.p90)},
                 {"latency_p99_ms", jsonNumber(o.all.p99)},
                 {"p99_supported", o.all.p99Supported ? "true" : "false"},
                 {"realtime_samples", std::to_string(o.realtime.count)},
                 {"realtime_p99_ms", jsonNumber(o.realtime.p99)},
                 {"realtime_p99_supported",
                  o.realtime.p99Supported ? "true" : "false"},
                 {"interactive_p50_ms", jsonNumber(o.interactive.p50)},
                 {"interactive_p99_ms", jsonNumber(o.interactive.p99)},
                 {"batch_p50_ms", jsonNumber(o.batch.p50)},
                 {"batch_p99_ms", jsonNumber(o.batch.p99)},
                 {"generator_late_p50_ms", jsonNumber(o.late.p50)},
                 {"generator_late_p99_ms", jsonNumber(o.late.p99)},
                 {"backlog_growing", o.backlogGrowing ? "true" : "false"},
                 {"sustained", o.sustained ? "true" : "false"}});
    }
    perRate += "]";
    const RungOutcome& nominal = outcomes.front();
    out.endToEnd.set("latency_p50_ms", nominal.all.p50, "ms");
    out.endToEnd.set("latency_p90_ms", nominal.all.p90, "ms");
    out.endToEnd.set("goodput_frac", nominal.goodput, "frac");
    out.endToEnd.set("throughput_rps", nominal.goodRps, "1/s");
    const double solve = servedSolveSum(nominal.solves);
    out.endToEnd.set("solve_s_1t", solve, "s");
    // Failure share by cause at the nominal rate (the seed's Device
    // engine answers the infeasible share with an iteration cap).
    std::size_t byStatus[16] = {};
    for (const ServedSample& s : nominal.samples)
        if (!s.good)
            ++byStatus[static_cast<std::size_t>(s.status) % 16];
    std::string failures = "{";
    bool first = true;
    for (std::size_t st = 0; st < 16; ++st) {
        if (byStatus[st] == 0)
            continue;
        failures += std::string(first ? "" : ", ") +
            jsonString(rsqp::statusToString(
                static_cast<rsqp::SolveStatus>(st))) +
            ": " + std::to_string(byStatus[st]);
        first = false;
    }
    failures += "}";
    out.details.push_back(jsonObject(
        {{"detail", jsonString("mixed-open")},
         {"fleet_cores", std::to_string(config.fleet.coreCount)},
         {"latency_limit_ms", jsonNumber(kLatencyLimitMs)},
         {"goodput_target", jsonNumber(kGoodputTarget)},
         {"generator_late_bound_ms", jsonNumber(kLateBoundMs)},
         {"realtime_p99_ms", jsonNumber(nominal.realtime.p99)},
         {"realtime_samples", std::to_string(nominal.realtime.count)},
         {"sustained_rps", jsonNumber(sustained)},
         {"valid", valid ? "true" : "false"},
         {"nominal_failures_by_status", failures},
         {"setup_rounds_s", jsonArray(setups)},
         {"rates", perRate}}));
    if (!valid)
        std::cerr << "perfbench: generator fell behind (p99 lateness over "
                  << kLateBoundMs << " ms); run invalid\n";
    out.correct = !wrong && valid;

    if (tracer.enabled()) {
        fleetLayerMetrics(fleetBefore, service->fleetStats(), statsBefore,
                          service->stats(), out.layers);
        servedLayerMetrics(nominal.samples, out.layers);
        out.layers.set("service.generator_late_ms_p50", nominal.late.p50,
                       "ms");
        out.layers.set("service.generator_late_ms_p99", nominal.late.p99,
                       "ms");
        service.reset();
        // Replay: the first request of every Realtime structure and of
        // a bounded sample of the other families.
        std::vector<rsqp::QpProblem> inputs;
        std::vector<int> perFamily(4, 0);
        const int limit[4] = {4, 3, 3, 1};
        std::vector<bool> seen(pool.structures.size(), false);
        for (std::size_t i = 0; i < rungs.front().arrivals.size(); ++i) {
            const std::uint32_t id = rungs.front().arrivals[i].structure;
            const auto f = static_cast<std::size_t>(pool.family[id]);
            if (seen[id] || perFamily[f] >= limit[f])
                continue;
            seen[id] = true;
            ++perFamily[f];
            inputs.push_back(rungs.front().requests[i]);
        }
        replayLayers(inputs, sessionConfig, out.layers, tracer);
    }
    return out;
}

} // namespace perfbench
