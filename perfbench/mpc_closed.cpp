// mpc-closed: one closed-loop MPC controller per fleet core. Each
// controller owns a session over its own control structure and sends
// the next step only after the previous reply, so after warm-up every
// request takes the parametric route and the per-request cost is the
// device interpreter plus service overhead.

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <thread>

#include "streams.hpp"
#include "workloads.hpp"

namespace perfbench
{

unsigned
fleetCores()
{
    const unsigned cpus = usableCpus();
    return std::clamp(cpus > 1 ? cpus - 1 : 1u, 1u, 3u);
}

namespace
{

/** Control period of every controller (1 Hz). Without it the fastest
 *  controller sends most requests and the median sits on the edge
 *  between its latencies and the others'. The controllers tick out of
 *  phase, each with a share of the period to itself that grows with
 *  its state size (see tickOffsets): 0.22 / 0.33 / 0.44 s for
 *  nx = 10 / 20 / 30, against median Device solves of about 0.12 /
 *  0.19 / 0.28 s on a 4-vCPU Xeon. Solves then do not overlap,
 *  whichever cores the sessions land on, and no request queues behind
 *  another. Overlapping Device solves slow each other down (2x at
 *  three nx = 10 solves) and a request queues behind another on a
 *  shared core, so a schedule that let them overlap moved every
 *  latency from run to run. */
constexpr std::chrono::milliseconds kControlPeriod{1000};

/** Tick offset of each controller within the control period: the
 *  period split in proportion to nx + 10, in client order. */
std::vector<Clock::duration>
tickOffsets(const std::vector<MpcClient>& clients)
{
    double total = 0.0;
    for (const MpcClient& client : clients)
        total += static_cast<double>(client.nx + 10);
    std::vector<Clock::duration> offsets;
    double before = 0.0;
    for (const MpcClient& client : clients) {
        offsets.push_back(std::chrono::duration_cast<Clock::duration>(
            kControlPeriod * (before / total)));
        before += static_cast<double>(client.nx + 10);
    }
    return offsets;
}

/** A reply slot one client thread waits on. */
struct Reply
{
    std::mutex mutex;
    std::condition_variable cv;
    bool ready = false;
    rsqp::SessionResult result;
    Clock::time_point done;
};

/** Served sample + verdict of one closed-loop request. */
struct ClientLog
{
    std::vector<ServedSample> samples;
    std::vector<double> submitStart, doneAt;
    std::vector<rsqp::QpProblem> firstInputs;
    bool wrong = false;
    std::uint64_t attempted = 0, good = 0;
};

} // namespace

RunResult
runMpcClosed(const Options& options, double seconds, Tracer& tracer)
{
    RunResult out;
    const unsigned cores = fleetCores();
    // Input generation (not set-up): one structure per controller.
    const std::vector<MpcClient> clients = mpcClients(options.seed, cores);

    rsqp::ServiceConfig config;
    config.fleet.coreCount = cores;
    const rsqp::SessionConfig sessionConfig;
    rsqp::SubmitOptions submit;
    submit.admissionClass = rsqp::AdmissionClass::Realtime;

    // Set-up, three times (median reported): service and sessions, then
    // each controller's first step — cold customize, program build and
    // first device solve of every structure.
    std::unique_ptr<rsqp::SolverService> service;
    std::vector<rsqp::SessionId> sessions;
    std::vector<double> setups;
    for (int round = 0; round < kSetupRounds; ++round) {
        service.reset();
        sessions.clear();
        const auto t0 = Clock::now();
        service = std::make_unique<rsqp::SolverService>(config);
        for (std::size_t c = 0; c < clients.size(); ++c)
            sessions.push_back(service->openSession(sessionConfig));
        std::vector<std::future<rsqp::SessionResult>> first;
        for (std::size_t c = 0; c < clients.size(); ++c)
            first.push_back(service->submit(sessions[c],
                                            mpcStep(clients[c], 0), submit));
        for (std::size_t c = 0; c < clients.size(); ++c) {
            const rsqp::SessionResult r = first[c].get();
            const Verdict v = judge(mpcStep(clients[c], 0), Expect::Solved,
                                    r.status, r.x, r.y, sessionConfig.osqp);
            out.correct = out.correct && !v.wrong;
        }
        setups.push_back(secondsBetween(t0, Clock::now()));
    }
    std::sort(setups.begin(), setups.end());
    out.endToEnd.set("setup_s", nearestRank(setups, 0.5), "s");

    const rsqp::FleetStats fleetBefore = service->fleetStats();
    const rsqp::ServiceStats statsBefore = service->stats();
    const auto start = Clock::now();
    const auto stop = start + std::chrono::duration_cast<Clock::duration>(
                                  std::chrono::duration<double>(seconds));
    const std::vector<Clock::duration> offsets = tickOffsets(clients);
    std::vector<ClientLog> logs(clients.size());
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < clients.size(); ++c) {
        threads.emplace_back([&, c] {
            ClientLog& log = logs[c];
            Reply reply;
            for (std::uint64_t k = 1;; ++k) {
                // A controller samples once per control period, the
                // controllers out of phase: step k goes out on its
                // tick, or as soon as the reply to step k - 1 is in
                // when the solve overran its period. Only ticks inside
                // the window run, so every seed sends the same count.
                const auto tick = start + offsets[c] +
                    (k - 1) * kControlPeriod;
                if (tick >= stop)
                    break;
                std::this_thread::sleep_until(tick);
                const rsqp::QpProblem qp = mpcStep(clients[c], k);
                if (log.firstInputs.empty())
                    log.firstInputs.push_back(qp);
                {
                    std::lock_guard<std::mutex> lock(reply.mutex);
                    reply.ready = false;
                }
                const double traceStart = tracer.now();
                const auto t0 = Clock::now();
                service->submitAsync(
                    sessions[c], qp, submit,
                    [&reply](rsqp::SessionResult r) {
                        const auto done = Clock::now();
                        std::lock_guard<std::mutex> lock(reply.mutex);
                        reply.result = std::move(r);
                        reply.done = done;
                        reply.ready = true;
                        reply.cv.notify_one();
                    });
                const double submitSeconds =
                    secondsBetween(t0, Clock::now());
                std::unique_lock<std::mutex> lock(reply.mutex);
                reply.cv.wait(lock, [&] { return reply.ready; });
                const rsqp::SessionResult& r = reply.result;
                ServedSample s;
                s.latency = secondsBetween(t0, reply.done);
                s.submitSeconds = submitSeconds;
                s.status = r.status;
                s.route = r.telemetry.route;
                s.queueWait = r.telemetry.queueWaitSeconds;
                s.setup = r.setupSeconds;
                s.solve = r.solveSeconds;
                s.device = r.deviceSeconds;
                s.iterations = r.iterations;
                const Verdict v = judge(qp, Expect::Solved, r.status, r.x,
                                        r.y, sessionConfig.osqp);
                s.good = v.good;
                log.wrong = log.wrong || v.wrong;
                ++log.attempted;
                log.good += v.good ? 1 : 0;
                recordServedSpans(tracer, (c << 40) | k, "mpc.request",
                                  traceStart, traceStart,
                                  traceStart + s.latency, s);
                log.samples.push_back(s);
            }
        });
    }
    for (std::thread& t : threads)
        t.join();
    const double elapsed = secondsBetween(start, Clock::now());

    std::vector<double> latencies;
    std::map<std::uint64_t, std::vector<double>> solves;  // per client
    std::vector<ServedSample> all;
    std::vector<rsqp::QpProblem> replayInputs;
    std::string perClient = "[";
    for (std::size_t c = 0; c < logs.size(); ++c) {
        const ClientLog& log = logs[c];
        out.correct = out.correct && !log.wrong;
        out.attempted += log.attempted;
        out.failed += log.attempted - log.good;
        std::vector<double> mine;
        double iterations = 0.0, solveMs = 0.0;
        for (const ServedSample& s : log.samples) {
            if (s.good) {
                latencies.push_back(s.latency * 1e3);
                mine.push_back(s.latency * 1e3);
                solves[c].push_back(s.solve);
            }
            iterations += static_cast<double>(s.iterations);
            solveMs += s.solve * 1e3;
            all.push_back(s);
        }
        const LatencySummary cs = summarize(mine);
        const double n = std::max<double>(1.0, log.samples.size());
        perClient += std::string(c ? ", " : "") +
            jsonObject({{"nx", std::to_string(clients[c].nx)},
                        {"requests", std::to_string(log.attempted)},
                        {"p50_ms", jsonNumber(cs.p50)},
                        {"p90_ms", jsonNumber(cs.p90)},
                        {"mean_iterations", jsonNumber(iterations / n)},
                        {"mean_solve_ms", jsonNumber(solveMs / n)}});
        replayInputs.insert(replayInputs.end(), log.firstInputs.begin(),
                            log.firstInputs.end());
    }
    perClient += "]";
    const LatencySummary lat = summarize(latencies);
    out.endToEnd.set("latency_p50_ms", lat.p50, "ms");
    out.endToEnd.set("latency_p90_ms", lat.p90, "ms");
    const double throughput = static_cast<double>(lat.count) / elapsed;
    out.endToEnd.set("throughput_rps", throughput, "1/s");
    const double solve = servedSolveSum(solves);
    out.endToEnd.set("solve_s_1t", solve, "s");
    out.endToEnd.set("goodput_frac",
                     out.attempted ? static_cast<double>(out.attempted -
                                                         out.failed) /
                             static_cast<double>(out.attempted)
                                   : 0.0,
                     "frac");
    out.details.push_back(jsonObject(
        {{"detail", jsonString("mpc-closed")},
         {"fleet_cores", std::to_string(cores)},
         {"window_s", jsonNumber(elapsed)},
         {"latency_samples", std::to_string(lat.count)},
         {"p90_supported", lat.p90Supported ? "true" : "false"},
         {"setup_rounds_s", jsonArray(setups)},
         {"clients", perClient}}));

    if (tracer.enabled()) {
        fleetLayerMetrics(fleetBefore, service->fleetStats(), statsBefore,
                          service->stats(), out.layers);
        servedLayerMetrics(all, out.layers);
        service.reset();
        replayLayers(replayInputs, sessionConfig, out.layers, tracer);
    }
    return out;
}

} // namespace perfbench
