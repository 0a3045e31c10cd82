/**
 * @file
 * Admission-plane and async-API tests. The Admission suite pins the
 * weighted-fair contract — per-class depth bounds, shed order (Batch
 * before Realtime), class-aware retry-after hints, weighted drain
 * order — and the AsyncSubmit suite pins the submitAsync/cancel
 * surface: exactly-once callbacks off the service lock, cancellation
 * windows, and a submit/cancel/drain race run under TSan in CI.
 */

#include <atomic>
#include <future>
#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "problems/suite.hpp"
#include "service/service.hpp"

namespace rsqp
{
namespace
{

SessionConfig
deviceConfig()
{
    SessionConfig config;
    config.custom.c = 16;
    return config;
}

SubmitOptions
classOptions(AdmissionClass cls)
{
    SubmitOptions options;
    options.admissionClass = cls;
    return options;
}

/**
 * Freezes the admission queue deterministically: submits one head
 * request whose completion callback blocks the worker until
 * release(). A request's callback runs before its job releases the
 * core slot, so with slotsPerCore = 1 nothing else can dispatch
 * while the gate is held — every request submitted in between sits
 * in a queue in a fully observable state.
 */
class SlotGate
{
  public:
    SlotGate(SolverService& service, SessionId id, const QpProblem& qp)
    {
        // Both futures are taken before the worker can run: once it
        // signals `started_`, the gate may be released and destroyed
        // while the worker still waits, so it waits on its own copy.
        std::future<void> started = started_.get_future();
        std::shared_future<void> released = released_.get_future().share();
        service.submitAsync(id, qp, SubmitOptions{},
                            [this, released](SessionResult) {
                                started_.set_value();
                                released.wait();
                            });
        started.wait();
    }

    ~SlotGate() { release(); }

    void
    release()
    {
        if (!released)
            released_.set_value();
        released = true;
    }

  private:
    std::promise<void> started_;
    std::promise<void> released_;
    bool released = false;
};

TEST(Admission, PerClassBoundRejectsBeyondDepth)
{
    ServiceConfig config;
    config.fleet.slotsPerCore = 1;
    config.maxQueueDepth = 64;
    config.admission.classes[static_cast<std::size_t>(
                                 AdmissionClass::Batch)]
        .maxQueueDepth = 1;
    SolverService service(config);
    const SessionId head = service.openSession(deviceConfig());
    const SessionId batch = service.openSession(deviceConfig());
    const SessionId realtime = service.openSession(deviceConfig());
    const QpProblem qp = generateProblem(Domain::Control, 12, 3);

    SlotGate gate(service, head, qp);
    std::vector<std::future<SessionResult>> futures;
    for (int i = 0; i < 3; ++i)
        futures.push_back(service.submit(
            batch, qp, classOptions(AdmissionClass::Batch)));
    futures.push_back(service.submit(
        realtime, qp, classOptions(AdmissionClass::Realtime)));

    // The class bound holds one Batch request; the global queue still
    // has plenty of room, so Realtime is untouched by Batch pressure.
    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.of(AdmissionClass::Batch).queueDepth, 1u);
    EXPECT_EQ(stats.of(AdmissionClass::Batch).rejected, 2);
    EXPECT_EQ(stats.of(AdmissionClass::Realtime).queueDepth, 1u);
    EXPECT_EQ(stats.of(AdmissionClass::Realtime).rejected, 0);
    EXPECT_EQ(stats.queueDepth, 2u);

    gate.release();
    Count rejected = 0;
    Count solved = 0;
    for (std::future<SessionResult>& future : futures) {
        const SessionResult result = future.get();
        if (result.status == SolveStatus::Rejected) {
            ++rejected;
            EXPECT_GE(result.retryAfterSeconds,
                      config.retryAfterFloorSeconds);
        } else if (result.status == SolveStatus::Solved) {
            ++solved;
        }
    }
    EXPECT_EQ(rejected, 2);
    EXPECT_EQ(solved, 2);
    stats = service.stats();
    EXPECT_EQ(stats.of(AdmissionClass::Batch).submitted, 3);
    EXPECT_EQ(stats.of(AdmissionClass::Batch).solved, 1);
    EXPECT_EQ(stats.of(AdmissionClass::Realtime).solved, 1);
}

TEST(Admission, ShedsBatchBeforeRealtimeAtFullQueue)
{
    ServiceConfig config;
    config.fleet.slotsPerCore = 1;
    config.maxQueueDepth = 2;
    SolverService service(config);
    const SessionId head = service.openSession(deviceConfig());
    const SessionId batch = service.openSession(deviceConfig());
    const SessionId realtime = service.openSession(deviceConfig());
    const QpProblem qp = generateProblem(Domain::Control, 12, 5);

    SlotGate gate(service, head, qp);
    std::vector<std::future<SessionResult>> batchFutures;
    batchFutures.push_back(service.submit(
        batch, qp, classOptions(AdmissionClass::Batch)));
    batchFutures.push_back(service.submit(
        batch, qp, classOptions(AdmissionClass::Batch)));
    EXPECT_EQ(service.stats().queueDepth, 2u);

    // The queue is full. Each Realtime arrival evicts the newest
    // queued Batch request and takes its place; once no Batch work is
    // left, Realtime overflows like anyone else — and a Batch arrival
    // can never shed at all (nothing ranks below it).
    std::vector<std::future<SessionResult>> realtimeFutures;
    realtimeFutures.push_back(service.submit(
        realtime, qp, classOptions(AdmissionClass::Realtime)));
    realtimeFutures.push_back(service.submit(
        realtime, qp, classOptions(AdmissionClass::Realtime)));
    std::future<SessionResult> realtimeOverflow = service.submit(
        realtime, qp, classOptions(AdmissionClass::Realtime));
    std::future<SessionResult> batchOverflow = service.submit(
        batch, qp, classOptions(AdmissionClass::Batch));

    ServiceStats stats = service.stats();
    EXPECT_EQ(stats.shed, 2);
    EXPECT_EQ(stats.of(AdmissionClass::Batch).shed, 2);
    EXPECT_EQ(stats.of(AdmissionClass::Realtime).shed, 0);
    EXPECT_EQ(stats.of(AdmissionClass::Realtime).rejected, 1);
    EXPECT_EQ(stats.of(AdmissionClass::Batch).rejected, 1);
    EXPECT_EQ(stats.of(AdmissionClass::Realtime).queueDepth, 2u);
    EXPECT_EQ(stats.of(AdmissionClass::Batch).queueDepth, 0u);

    // Both shed victims resolved Rejected with a back-off hint.
    for (std::future<SessionResult>& future : batchFutures) {
        const SessionResult result = future.get();
        EXPECT_EQ(result.status, SolveStatus::Rejected);
        EXPECT_GE(result.retryAfterSeconds,
                  config.retryAfterFloorSeconds);
    }
    EXPECT_EQ(realtimeOverflow.get().status, SolveStatus::Rejected);
    EXPECT_EQ(batchOverflow.get().status, SolveStatus::Rejected);

    gate.release();
    for (std::future<SessionResult>& future : realtimeFutures)
        EXPECT_EQ(future.get().status, SolveStatus::Solved);
    EXPECT_EQ(service.stats().of(AdmissionClass::Realtime).solved, 2);
}

TEST(Admission, RetryHintGrowsWithClassBacklog)
{
    // Two services, identical up to the Batch depth bound, each primed
    // by one identical head solve (the device-seconds average feeding
    // the hint is a deterministic function of the problem). The
    // service carrying the deeper Batch backlog must suggest the
    // longer back-off.
    const QpProblem qp = generateProblem(Domain::Control, 12, 7);
    auto rejectedHintAtBacklog = [&qp](std::size_t bound) {
        ServiceConfig config;
        config.fleet.slotsPerCore = 1;
        config.retryAfterFloorSeconds = 1e-12;
        config.admission.classes[static_cast<std::size_t>(
                                     AdmissionClass::Batch)]
            .maxQueueDepth = bound;
        SolverService service(config);
        const SessionId head = service.openSession(deviceConfig());
        const SessionId batch = service.openSession(deviceConfig());
        SlotGate gate(service, head, qp);
        std::vector<std::future<SessionResult>> queued;
        for (std::size_t i = 0; i < bound; ++i)
            queued.push_back(service.submit(
                batch, qp, classOptions(AdmissionClass::Batch)));
        const SessionResult rejected = service.solve(
            batch, qp, classOptions(AdmissionClass::Batch));
        EXPECT_EQ(rejected.status, SolveStatus::Rejected);
        gate.release();
        for (std::future<SessionResult>& future : queued)
            future.get();
        return rejected.retryAfterSeconds;
    };

    const Real shallow = rejectedHintAtBacklog(1);
    const Real deep = rejectedHintAtBacklog(2);
    EXPECT_GT(shallow, 0.0);
    EXPECT_GT(deep, shallow);
}

TEST(Admission, LowerClassHintNeverSmallerAtEqualBacklog)
{
    // One service, one queued request per class, one rejection per
    // class at the same backlog: Batch's hint must dominate
    // Realtime's, because its weighted share of the drain is smaller.
    ServiceConfig config;
    config.fleet.slotsPerCore = 1;
    config.retryAfterFloorSeconds = 1e-12;
    config.admission.classes[static_cast<std::size_t>(
                                 AdmissionClass::Batch)]
        .maxQueueDepth = 1;
    config.admission.classes[static_cast<std::size_t>(
                                 AdmissionClass::Realtime)]
        .maxQueueDepth = 1;
    SolverService service(config);
    const SessionId head = service.openSession(deviceConfig());
    const SessionId client = service.openSession(deviceConfig());
    const QpProblem qp = generateProblem(Domain::Control, 12, 9);

    SlotGate gate(service, head, qp);
    std::vector<std::future<SessionResult>> queued;
    queued.push_back(service.submit(
        client, qp, classOptions(AdmissionClass::Batch)));
    queued.push_back(service.submit(
        client, qp, classOptions(AdmissionClass::Realtime)));
    const SessionResult batchRejected = service.solve(
        client, qp, classOptions(AdmissionClass::Batch));
    const SessionResult realtimeRejected = service.solve(
        client, qp, classOptions(AdmissionClass::Realtime));
    gate.release();
    for (std::future<SessionResult>& future : queued)
        future.get();

    EXPECT_EQ(batchRejected.status, SolveStatus::Rejected);
    EXPECT_EQ(realtimeRejected.status, SolveStatus::Rejected);
    EXPECT_GT(realtimeRejected.retryAfterSeconds, 0.0);
    EXPECT_GT(batchRejected.retryAfterSeconds,
              realtimeRejected.retryAfterSeconds);
}

TEST(Admission, WeightedDrainRunsRealtimeBeforeBatch)
{
    // A Batch and a Realtime request from different sessions wait on
    // the same core; when the slot frees, smooth WRR must dispatch
    // the Realtime one first even though Batch arrived earlier.
    ServiceConfig config;
    config.fleet.slotsPerCore = 1;
    SolverService service(config);
    const SessionId head = service.openSession(deviceConfig());
    const SessionId batch = service.openSession(deviceConfig());
    const SessionId realtime = service.openSession(deviceConfig());
    const QpProblem qp = generateProblem(Domain::Control, 12, 11);

    std::mutex orderMutex;
    std::vector<std::string> order;
    auto record = [&orderMutex, &order](const char* tag) {
        return [&orderMutex, &order, tag](SessionResult result) {
            EXPECT_EQ(result.status, SolveStatus::Solved);
            std::lock_guard<std::mutex> lock(orderMutex);
            order.emplace_back(tag);
        };
    };

    {
        SlotGate gate(service, head, qp);
        service.submitAsync(batch, qp,
                            classOptions(AdmissionClass::Batch),
                            record("batch"));
        service.submitAsync(realtime, qp,
                            classOptions(AdmissionClass::Realtime),
                            record("realtime"));
        gate.release();
    }
    service.waitIdle();

    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "realtime");
    EXPECT_EQ(order[1], "batch");
}

TEST(Admission, PerClassSeriesExposedInMetricsText)
{
    ServiceConfig config;
    config.fleet.slotsPerCore = 1;
    SolverService service(config);
    const SessionId id = service.openSession(deviceConfig());
    const QpProblem qp = generateProblem(Domain::Control, 12, 13);
    EXPECT_EQ(service
                  .solve(id, qp,
                         classOptions(AdmissionClass::Realtime))
                  .status,
              SolveStatus::Solved);

    const std::string text = service.metricsText();
    EXPECT_NE(text.find("rsqp_service_class_submitted_total{"
                        "class=\"realtime\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("rsqp_service_class_solved_total{"
                        "class=\"realtime\"} 1"),
              std::string::npos);
    EXPECT_NE(text.find("rsqp_service_class_submitted_total{"
                        "class=\"batch\"} 0"),
              std::string::npos);
    EXPECT_NE(text.find("rsqp_service_class_queue_depth{"
                        "class=\"interactive\"}"),
              std::string::npos);
}

TEST(Admission, RejectsOptionsOutsideTheirDomain)
{
    // A class outside the enum must not index the per-class state,
    // and a deadline that is negative or not finite must not pass as
    // "unlimited": each resolves Rejected with a diagnostic before
    // admission, and the service keeps serving valid requests.
    SolverService service;
    const SessionId id = service.openSession(deviceConfig());
    const QpProblem qp = generateProblem(Domain::Control, 12, 21);

    std::vector<SubmitOptions> bad(6);
    bad[0].admissionClass = static_cast<AdmissionClass>(3);
    bad[1].admissionClass = static_cast<AdmissionClass>(-1);
    bad[2].deadlineSeconds = -1.0;
    bad[3].deadlineSeconds = std::numeric_limits<Real>::quiet_NaN();
    bad[4].deadlineSeconds = std::numeric_limits<Real>::infinity();
    bad[5].deadlineSeconds = -std::numeric_limits<Real>::infinity();
    for (const SubmitOptions& options : bad) {
        int calls = 0;
        const RequestToken token = service.submitAsync(
            id, qp, options, [&](SessionResult result) {
                ++calls;
                EXPECT_EQ(result.status, SolveStatus::Rejected);
                EXPECT_TRUE(
                    result.validation.has(ValidationCode::InvalidSetting));
                EXPECT_EQ(result.retryAfterSeconds, 0.0);
            });
        EXPECT_EQ(calls, 1);  // resolved before submitAsync returned
        EXPECT_FALSE(token.valid());
    }

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, 6);
    EXPECT_EQ(stats.rejected, 6);
    EXPECT_EQ(stats.queueDepth, 0u);
    for (std::size_t c = 0; c < kAdmissionClassCount; ++c)
        EXPECT_EQ(stats.perClass[c].submitted, 0);

    EXPECT_EQ(service.solve(id, qp, classOptions(AdmissionClass::Realtime))
                  .status,
              SolveStatus::Solved);
}

TEST(AsyncSubmit, CallbackRunsExactlyOnceOffTheServiceLock)
{
    SolverService service;
    const SessionId id = service.openSession(deviceConfig());
    const QpProblem qp = generateProblem(Domain::Control, 12, 15);

    std::atomic<int> calls{0};
    std::promise<SessionResult> done;
    service.submitAsync(id, qp, SubmitOptions{},
                        [&](SessionResult result) {
                            ++calls;
                            // stats() takes the service mutex: this
                            // would deadlock if callbacks ever ran
                            // under the lock.
                            EXPECT_GE(service.stats().submitted, 1);
                            done.set_value(std::move(result));
                        });
    const SessionResult result = done.get_future().get();
    EXPECT_EQ(result.status, SolveStatus::Solved);
    service.waitIdle();
    EXPECT_EQ(calls.load(), 1);
}

TEST(AsyncSubmit, ImmediateRejectionInvokesCallbackOffLock)
{
    SolverService service;
    const QpProblem qp = generateProblem(Domain::Control, 12, 17);
    std::atomic<int> calls{0};
    service.submitAsync(/*unknown session*/ 9999, qp, SubmitOptions{},
                        [&](SessionResult result) {
                            ++calls;
                            EXPECT_EQ(result.status,
                                      SolveStatus::Rejected);
                            EXPECT_EQ(service.stats().rejected, 1);
                        });
    // Unknown-session rejections resolve before submitAsync returns.
    EXPECT_EQ(calls.load(), 1);
}

TEST(AsyncSubmit, CancelBeforeLaunchResolvesExactlyOnce)
{
    ServiceConfig config;
    config.fleet.slotsPerCore = 1;
    SolverService service(config);
    const SessionId head = service.openSession(deviceConfig());
    const SessionId id = service.openSession(deviceConfig());
    const QpProblem qp = generateProblem(Domain::Control, 12, 19);

    std::atomic<int> calls{0};
    SessionResult cancelled;
    {
        SlotGate gate(service, head, qp);
        const RequestToken token = service.submitAsync(
            id, qp, SubmitOptions{}, [&](SessionResult result) {
                ++calls;
                cancelled = std::move(result);
            });
        EXPECT_TRUE(token.valid());
        EXPECT_TRUE(service.cancel(token));
        EXPECT_EQ(calls.load(), 1);
        // The request is resolved: a second cancel finds nothing and
        // the token no longer points at a live request.
        EXPECT_FALSE(service.cancel(token));
        EXPECT_FALSE(token.valid());
        gate.release();
    }
    service.waitIdle();

    EXPECT_EQ(calls.load(), 1);
    EXPECT_EQ(cancelled.status, SolveStatus::Cancelled);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.cancelled, 1);
    EXPECT_EQ(stats.of(AdmissionClass::Interactive).cancelled, 1);
    // The cancelled request never touched the session's solver state.
    EXPECT_EQ(service.sessionStats(id).solves, 0);
}

TEST(AsyncSubmit, CancelAfterCompletionReturnsFalse)
{
    SolverService service;
    const SessionId id = service.openSession(deviceConfig());
    const QpProblem qp = generateProblem(Domain::Control, 12, 21);
    std::promise<SessionResult> done;
    const RequestToken token = service.submitAsync(
        id, qp, SubmitOptions{}, [&done](SessionResult result) {
            done.set_value(std::move(result));
        });
    EXPECT_EQ(done.get_future().get().status, SolveStatus::Solved);
    EXPECT_FALSE(service.cancel(token));
    EXPECT_EQ(service.stats().cancelled, 0);
}

TEST(AsyncSubmit, DefaultOptionsMatchLegacyDefaultPathBitwise)
{
    // A default SubmitOptions solve is the old submit(id, qp) path:
    // Interactive class, no per-class bound, no deadline — asserted
    // bitwise against the future adapter and the async callback path.
    const QpProblem qp = generateProblem(Domain::Lasso, 24, 25);
    SolverService service;
    const SessionId id = service.openSession(deviceConfig());
    const SessionResult viaSolve = service.solve(id, qp);

    SolverService asyncService;
    const SessionId asyncId = asyncService.openSession(deviceConfig());
    std::promise<SessionResult> done;
    asyncService.submitAsync(asyncId, qp, SubmitOptions{},
                             [&done](SessionResult result) {
                                 done.set_value(std::move(result));
                             });
    const SessionResult viaAsync = done.get_future().get();

    ASSERT_EQ(viaSolve.status, SolveStatus::Solved);
    ASSERT_EQ(viaAsync.status, SolveStatus::Solved);
    ASSERT_EQ(viaSolve.x.size(), viaAsync.x.size());
    for (std::size_t i = 0; i < viaSolve.x.size(); ++i)
        EXPECT_EQ(viaSolve.x[i], viaAsync.x[i]);
    for (std::size_t i = 0; i < viaSolve.y.size(); ++i)
        EXPECT_EQ(viaSolve.y[i], viaAsync.y[i]);
    EXPECT_EQ(viaSolve.iterations, viaAsync.iterations);
}

TEST(AsyncSubmit, ConcurrentSubmitCancelDrainNeverLosesACallback)
{
    // Raced under TSan in CI: submitters, a canceller, and the worker
    // drain all contend on the admission plane. Every submission must
    // resolve its callback exactly once, whatever the interleaving,
    // and the admission counters must account for every request.
    constexpr int kThreads = 3;
    constexpr int kJobsPerThread = 12;
    ServiceConfig config;
    config.fleet.slotsPerCore = 2;
    config.maxQueueDepth = 8;
    SolverService service(config);
    std::vector<SessionId> sessions;
    for (int t = 0; t < kThreads; ++t)
        sessions.push_back(service.openSession(deviceConfig()));
    const QpProblem qp = generateProblem(Domain::Control, 10, 27);

    std::atomic<int> callbacks{0};
    std::mutex tokenMutex;
    std::vector<RequestToken> tokens;
    std::atomic<bool> submitting{true};

    std::vector<std::thread> submitters;
    for (int t = 0; t < kThreads; ++t) {
        submitters.emplace_back([&, t] {
            for (int i = 0; i < kJobsPerThread; ++i) {
                const auto cls = static_cast<AdmissionClass>(
                    (t + i) % static_cast<int>(kAdmissionClassCount));
                RequestToken token = service.submitAsync(
                    sessions[static_cast<std::size_t>(t)], qp,
                    classOptions(cls),
                    [&callbacks](SessionResult) { ++callbacks; });
                std::lock_guard<std::mutex> lock(tokenMutex);
                tokens.push_back(std::move(token));
            }
        });
    }
    std::thread canceller([&] {
        while (submitting.load()) {
            RequestToken token;
            {
                std::lock_guard<std::mutex> lock(tokenMutex);
                if (!tokens.empty()) {
                    token = std::move(tokens.back());
                    tokens.pop_back();
                }
            }
            service.cancel(token);
        }
    });
    for (std::thread& thread : submitters)
        thread.join();
    submitting.store(false);
    canceller.join();
    service.waitIdle();

    EXPECT_EQ(callbacks.load(), kThreads * kJobsPerThread);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.submitted, kThreads * kJobsPerThread);
    // Every submission ended in exactly one terminal bucket.
    EXPECT_EQ(stats.completed + stats.rejected + stats.cancelled +
                  stats.shed + stats.expired + stats.shutdownDrained,
              stats.submitted);
    EXPECT_EQ(stats.queueDepth, 0u);
}

} // namespace
} // namespace rsqp
