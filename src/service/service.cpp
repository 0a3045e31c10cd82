#include "service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "common/thread_pool.hpp"
#include "telemetry/trace.hpp"

namespace rsqp
{

namespace
{

double
secondsSince(std::chrono::steady_clock::time_point start)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - start)
        .count();
}

/** The per-session label series name ("...{session=\"7\"}"). */
std::string
sessionSeriesName(SessionId id)
{
    return "rsqp_service_session_solves_total{session=\"" +
           std::to_string(id) + "\"}";
}

/** One rsqp_service_class_* series name for `cls`. */
std::string
classSeries(const char* family, AdmissionClass cls)
{
    return telemetry::labeledName(family, "class",
                                  admissionClassName(cls));
}

} // namespace

SolverService::SolverService(ServiceConfig config)
    : config_(config),
      fleet_(config.fleet, config.cacheCapacity, config.admission,
             registry_),
      cache_(fleet_.coreCache(0)),
      submitted_(registry_.counter("rsqp_service_submitted_total",
                                   "Requests handed to submitAsync()")),
      completed_(registry_.counter("rsqp_service_completed_total",
                                   "Requests that ran to a status")),
      rejected_(registry_.counter("rsqp_service_rejected_total",
                                  "Queue overflow or closed session")),
      expired_(registry_.counter("rsqp_service_deadline_expired_total",
                                 "Deadline passed while queued")),
      cancelled_(registry_.counter(
          "rsqp_service_cancelled_total",
          "Requests revoked via their token before launch")),
      shedTotal_(registry_.counter(
          "rsqp_service_shed_total",
          "Queued requests evicted by a higher admission class")),
      shutdownDrained_(registry_.counter(
          "rsqp_service_shutdown_drained_total",
          "Queued requests resolved ShuttingDown by the destructor")),
      retryAfterHints_(registry_.counter(
          "rsqp_service_retry_after_hints_total",
          "Overflow rejections that carried a retry-after hint")),
      retiredSessionSolves_(registry_.counter(
          "rsqp_service_session_solves_retired_total",
          "Solves of sessions whose label series was retired")),
      queueDepth_(registry_.gauge("rsqp_service_queue_depth",
                                  "Requests waiting right now")),
      peakQueueDepth_(registry_.gauge("rsqp_service_queue_depth_peak",
                                      "Queue-depth high-water mark")),
      openSessions_(registry_.gauge("rsqp_service_open_sessions",
                                    "Sessions currently open")),
      cacheHits_(registry_.gauge("rsqp_service_cache_hits",
                                 "Customization-cache hits")),
      cacheMisses_(registry_.gauge("rsqp_service_cache_misses",
                                   "Customization-cache misses")),
      cacheEvictions_(registry_.gauge("rsqp_service_cache_evictions",
                                      "Customization-cache evictions")),
      cacheSize_(registry_.gauge("rsqp_service_cache_size",
                                 "Artifacts resident in the cache")),
      queueWaitNs_(registry_.histogram(
          "rsqp_service_queue_wait_ns",
          "Nanoseconds between admission and execution")),
      executeNs_(registry_.histogram(
          "rsqp_service_execute_ns",
          "Nanoseconds a request held a worker")),
      retryAfterUs_(registry_.histogram(
          "rsqp_service_retry_after_us",
          "Microseconds of back-off suggested to rejected clients"))
{
    for (std::size_t c = 0; c < kAdmissionClassCount; ++c) {
        const AdmissionClass cls = static_cast<AdmissionClass>(c);
        ClassMetrics& m = classMetrics_[c];
        m.submitted = &registry_.counter(
            classSeries("rsqp_service_class_submitted_total", cls),
            "Requests submitted in this admission class");
        m.completed = &registry_.counter(
            classSeries("rsqp_service_class_completed_total", cls),
            "Requests of this class that ran to a status");
        m.solved = &registry_.counter(
            classSeries("rsqp_service_class_solved_total", cls),
            "Requests of this class that completed Solved (goodput)");
        m.rejected = &registry_.counter(
            classSeries("rsqp_service_class_rejected_total", cls),
            "Requests of this class turned away at admission");
        m.shed = &registry_.counter(
            classSeries("rsqp_service_class_shed_total", cls),
            "Queued requests of this class evicted by a higher class");
        m.cancelled = &registry_.counter(
            classSeries("rsqp_service_class_cancelled_total", cls),
            "Requests of this class revoked via their token");
        m.expired = &registry_.counter(
            classSeries("rsqp_service_class_expired_total", cls),
            "Requests of this class whose deadline passed queued");
        m.queueDepth = &registry_.gauge(
            classSeries("rsqp_service_class_queue_depth", cls),
            "Requests of this class waiting right now");
        m.retryAfterUs = &registry_.histogram(
            classSeries("rsqp_service_class_retry_after_us", cls),
            "Microseconds of back-off suggested to this class");
    }
}

SolverService::~SolverService()
{
    // Shed, then drain (contract documented on the declaration):
    // queued-but-unstarted requests resolve ShuttingDown immediately;
    // launched streams run to their real status. Nothing new can be
    // admitted because the owner is destroying the only handle.
    std::vector<std::shared_ptr<Job>> shed;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        shuttingDown_ = true;
        for (auto& item : sessions_) {
            SessionState& state = *item.second;
            for (const std::shared_ptr<Job>& job : state.pending)
                shed.push_back(job);
            queuedJobs_ -= state.pending.size();
            state.pending.clear();
        }
        unplaced_.clear();
        classQueued_.fill(0);
        for (const ClassMetrics& m : classMetrics_)
            m.queueDepth->set(0);
        shutdownDrained_.add(shed.size());
        queueDepth_.set(static_cast<std::int64_t>(queuedJobs_));
        if (activeRuns_ == 0 && queuedJobs_ == 0)
            idleCv_.notify_all();
    }
    for (const std::shared_ptr<Job>& job : shed) {
        SessionResult result;
        result.status = SolveStatus::ShuttingDown;
        job->callback(std::move(result));
    }
    waitIdle();
}

SessionId
SolverService::openSession(SessionConfig config)
{
    auto state = std::make_unique<SessionState>();
    state->session = std::make_unique<SolverSession>(
        std::move(config), fleet_.coreCache(0));
    std::lock_guard<std::mutex> lock(mutex_);
    const SessionId id = nextId_++;
    state->solvesCounter = &registry_.counter(
        sessionSeriesName(id),
        "Solves executed on behalf of one session");
    sessions_.emplace(id, std::move(state));
    openSessions_.set(static_cast<std::int64_t>(sessions_.size()));
    return id;
}

void
SolverService::retireSessionSeriesLocked(SessionId id,
                                         SessionState& state)
{
    if (state.solvesCounter == nullptr)
        return;
    // The per-session series would otherwise accumulate forever as
    // sessions churn; its total survives in the aggregate counter.
    retiredSessionSolves_.add(state.solvesCounter->value());
    state.solvesCounter = nullptr;
    registry_.removeCounter(sessionSeriesName(id));
}

void
SolverService::closeSession(SessionId id)
{
    std::vector<std::shared_ptr<Job>> dropped;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = sessions_.find(id);
        if (it == sessions_.end())
            return;
        SessionState& state = *it->second;
        state.open = false;
        for (const std::shared_ptr<Job>& job : state.pending) {
            unqueueLocked(job);
            rejected_.increment();
            classMetrics_[classIndex(job->options.admissionClass)]
                .rejected->increment();
            dropped.push_back(job);
        }
        state.pending.clear();
        // A running job still owns the session; its completion handler
        // erases the closed state.
        if (!state.running) {
            retireSessionSeriesLocked(id, state);
            sessions_.erase(it);
        }
        openSessions_.set(static_cast<std::int64_t>(sessions_.size()));
        if (activeRuns_ == 0 && queuedJobs_ == 0)
            idleCv_.notify_all();
    }
    for (const std::shared_ptr<Job>& job : dropped) {
        SessionResult result;
        result.status = SolveStatus::Rejected;
        job->callback(std::move(result));
    }
}

void
SolverService::unqueueLocked(const std::shared_ptr<Job>& job)
{
    --queuedJobs_;
    const std::size_t cls = classIndex(job->options.admissionClass);
    --classQueued_[cls];
    classMetrics_[cls].queueDepth->set(
        static_cast<std::int64_t>(classQueued_[cls]));
    queueDepth_.set(static_cast<std::int64_t>(queuedJobs_));
}

std::shared_ptr<SolverService::Job>
SolverService::shedLowerClassLocked(AdmissionClass cls)
{
    // Lowest-priority populated class strictly below the arrival:
    // Batch is evicted before Interactive, and nothing below Batch
    // exists, so a Batch arrival can never shed.
    for (std::size_t c = kAdmissionClassCount; c-- > 0;) {
        if (c <= classIndex(cls) || classQueued_[c] == 0)
            continue;
        // Evict the *newest* queued job of that class: it has waited
        // the least, so the eviction wastes the least queue progress
        // and FIFO fairness within the class is preserved.
        SessionState* victimState = nullptr;
        std::deque<std::shared_ptr<Job>>::iterator victimIt;
        for (auto& item : sessions_) {
            auto& pending = item.second->pending;
            for (auto jt = pending.rbegin(); jt != pending.rend();
                 ++jt) {
                if (classIndex((*jt)->options.admissionClass) != c)
                    continue;
                if (victimState == nullptr ||
                    (*jt)->enqueued > (*victimIt)->enqueued) {
                    victimState = item.second.get();
                    victimIt = std::prev(jt.base());
                }
                break; // older same-class jobs of this session lose
            }
        }
        if (victimState == nullptr)
            continue;
        std::shared_ptr<Job> victim = *victimIt;
        victimState->pending.erase(victimIt);
        unqueueLocked(victim);
        shedTotal_.increment();
        classMetrics_[c].shed->increment();
        return victim;
    }
    return nullptr;
}

Real
SolverService::retryAfterEstimateLocked(AdmissionClass cls) const
{
    // Expected time for this class's backlog plus the new request to
    // drain through its weighted-fair share of the slots still taking
    // work; with every core fenced, nothing drains until the next
    // readmission probe can land. The share assumes every class is
    // contending (conservative), which keeps the hint monotone in the
    // class backlog and never smaller for a lower class.
    const double average = fleet_.averageJobDeviceSeconds();
    const std::size_t available = fleet_.availableCoreCount();
    const double slotCapacity = static_cast<double>(
        std::max<std::size_t>(std::size_t{1}, available) *
        fleet_.slotsPerCore());
    double totalWeight = 0.0;
    for (const AdmissionClassConfig& entry :
         config_.admission.classes)
        totalWeight += std::max(1u, entry.weight);
    const double share =
        std::max(1u, config_.admission.of(cls).weight) / totalWeight;
    double estimate =
        average *
        static_cast<double>(classQueued_[classIndex(cls)] + 1) /
        (slotCapacity * share);
    if (available == 0)
        estimate += fleet_.secondsToNextProbe();
    return std::max(config_.retryAfterFloorSeconds,
                    static_cast<Real>(estimate));
}

void
SolverService::recordRetryHintLocked(AdmissionClass cls, Real hint)
{
    lastRetryAfterSeconds_ = static_cast<double>(hint);
    retryAfterHints_.increment();
    const std::uint64_t us = static_cast<std::uint64_t>(
        static_cast<double>(hint) * 1e6);
    retryAfterUs_.observe(us);
    classMetrics_[classIndex(cls)].retryAfterUs->observe(us);
}

RequestToken
SolverService::submitAsync(SessionId id, QpProblem problem,
                           SubmitOptions options,
                           SolveCallback callback)
{
    // Options are checked before anything indexes the per-class
    // arrays: a class outside the enum or a deadline that is negative
    // or not finite is a client error, resolved on the caller's thread.
    const bool knownClass =
        classIndex(options.admissionClass) < kAdmissionClassCount;
    if (!knownClass || !std::isfinite(options.deadlineSeconds) ||
        options.deadlineSeconds < 0.0) {
        submitted_.increment();
        rejected_.increment();
        SessionResult result;
        result.status = SolveStatus::Rejected;
        result.validation.issues.push_back(
            {ValidationCode::InvalidSetting,
             knownClass ? "deadlineSeconds must be finite and >= 0"
                        : "admissionClass is not a known class"});
        callback(std::move(result));
        return RequestToken();
    }

    auto job = std::make_shared<Job>();
    job->problem = std::move(problem);
    job->options = options;
    job->session = id;
    job->enqueued = std::chrono::steady_clock::now();
    job->callback = std::move(callback);
    // Placement key, computed on the caller's thread: value-blind, so
    // every job of one structure carries the identical fingerprint.
    job->fp = fingerprintStructure(job->problem);
    job->small = job->problem.numVariables() +
                     job->problem.numConstraints() <=
                 config_.fleet.smallJobThreshold;
    RequestToken token;
    token.handle = job;

    const std::size_t cls = classIndex(options.admissionClass);
    bool admitted = false;
    Real retryAfter = 0.0;
    std::shared_ptr<Job> victim;
    Real victimRetryAfter = 0.0;
    std::vector<Launch> launches;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        submitted_.increment();
        classMetrics_[cls].submitted->increment();
        auto it = sessions_.find(id);
        const bool known =
            it != sessions_.end() && it->second->open;
        const std::size_t classBound =
            config_.admission.classes[cls].maxQueueDepth;
        const bool classRoom =
            classBound == 0 || classQueued_[cls] < classBound;
        bool globalRoom = queuedJobs_ < config_.maxQueueDepth;
        if (known && classRoom && !globalRoom) {
            // The global queue is full: make room by shedding the
            // newest queued job of a lower class, if one exists.
            victim = shedLowerClassLocked(options.admissionClass);
            if (victim != nullptr) {
                victimRetryAfter = retryAfterEstimateLocked(
                    victim->options.admissionClass);
                recordRetryHintLocked(
                    victim->options.admissionClass,
                    victimRetryAfter);
                globalRoom = true;
            }
        }
        if (known && classRoom && globalRoom) {
            SessionState& state = *it->second;
            const bool wasIdle =
                !state.running && state.pending.empty();
            state.pending.push_back(job);
            ++queuedJobs_;
            ++classQueued_[cls];
            classMetrics_[cls].queueDepth->set(
                static_cast<std::int64_t>(classQueued_[cls]));
            queueDepth_.set(static_cast<std::int64_t>(queuedJobs_));
            peakQueueDepth_.updateMax(
                static_cast<std::int64_t>(queuedJobs_));
            if (wasIdle)
                placeReadyLocked(id, state);
            admitted = true;
            pumpLocked(launches);
        } else {
            rejected_.increment();
            classMetrics_[cls].rejected->increment();
            if (known) {
                // Overflow (not a client error): tell the client how
                // long this class's backlog should take to clear.
                retryAfter =
                    retryAfterEstimateLocked(options.admissionClass);
                recordRetryHintLocked(options.admissionClass,
                                      retryAfter);
            }
        }
    }
    if (victim != nullptr) {
        SessionResult result;
        result.status = SolveStatus::Rejected;
        result.retryAfterSeconds = victimRetryAfter;
        victim->callback(std::move(result));
    }
    if (!admitted) {
        SessionResult result;
        result.status = SolveStatus::Rejected;
        result.retryAfterSeconds = retryAfter;
        job->callback(std::move(result));
        return token;
    }
    launch(launches);
    return token;
}

bool
SolverService::cancel(const RequestToken& token)
{
    auto job = std::static_pointer_cast<Job>(token.handle.lock());
    if (job == nullptr)
        return false;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = sessions_.find(job->session);
        if (it == sessions_.end())
            return false;
        std::deque<std::shared_ptr<Job>>& pending =
            it->second->pending;
        auto pos = std::find(pending.begin(), pending.end(), job);
        if (pos == pending.end())
            return false; // launched or already resolved: too late
        // Still queued: this path now owns the job exclusively (the
        // same discipline dispatch uses), so the callback below fires
        // exactly once. Any stale ready-queue entry for the session
        // is dropped harmlessly at dispatch.
        pending.erase(pos);
        unqueueLocked(job);
        cancelled_.increment();
        classMetrics_[classIndex(job->options.admissionClass)]
            .cancelled->increment();
        if (activeRuns_ == 0 && queuedJobs_ == 0)
            idleCv_.notify_all();
    }
    SessionResult result;
    result.status = SolveStatus::Cancelled;
    job->callback(std::move(result));
    return true;
}

std::future<SessionResult>
SolverService::submit(SessionId id, QpProblem problem,
                      SubmitOptions options)
{
    auto promise = std::make_shared<std::promise<SessionResult>>();
    std::future<SessionResult> future = promise->get_future();
    submitAsync(id, std::move(problem), options,
                [promise](SessionResult result) {
                    promise->set_value(std::move(result));
                });
    return future;
}

SessionResult
SolverService::solve(SessionId id, QpProblem problem,
                     SubmitOptions options)
{
    return submit(id, std::move(problem), options).get();
}

void
SolverService::placeReadyLocked(SessionId id, SessionState& state)
{
    if (fleet_.availableCoreCount() == 0) {
        // Never park work on a fenced core: it could sit out the
        // whole quarantine. The pump re-places it after readmission.
        unplaced_.push_back(id);
        return;
    }
    const std::shared_ptr<Job>& head = state.pending.front();
    const std::size_t core = fleet_.placeSession(head->fp);
    fleet_.enqueueReady(core, id, head->options.admissionClass,
                        head->small);
}

void
SolverService::drainUnplacedLocked()
{
    if (fleet_.availableCoreCount() == 0)
        return;
    std::deque<SessionId> parked;
    parked.swap(unplaced_);
    for (SessionId id : parked) {
        auto it = sessions_.find(id);
        // Sessions closed or drained while parked hold no job.
        if (it == sessions_.end() || it->second->running ||
            it->second->pending.empty())
            continue;
        placeReadyLocked(id, *it->second);
    }
}

void
SolverService::pumpLocked(std::vector<Launch>& launches)
{
    fleet_.runReadmissionProbes();
    // Bounded retry: each pass either dispatches, or fast-forwards
    // the virtual clock to the next probe of an all-quarantined
    // fleet (probe backoff grows exponentially, so a core with
    // finitely many failing probes readmits within few passes).
    for (int pass = 0; pass < 64; ++pass) {
        drainUnplacedLocked();
        dispatchLocked(launches);
        const bool stuck = launches.empty() && activeRuns_ == 0 &&
                           queuedJobs_ > 0 &&
                           fleet_.availableCoreCount() == 0;
        if (!stuck)
            return;
        if (!fleet_.advanceVirtualToNextProbe())
            return;
        fleet_.runReadmissionProbes();
    }
}

void
SolverService::dispatchLocked(std::vector<Launch>& launches)
{
    for (std::size_t core = 0; core < fleet_.coreCount(); ++core) {
        while (fleet_.canDispatch(core) &&
               fleet_.readyDepth(core) > 0) {
            Launch stream;
            stream.core = core;
            for (SessionId id : fleet_.popStream(core)) {
                auto it = sessions_.find(id);
                // Stale entries (session closed or drained while
                // queued) are dropped; they hold no job.
                if (it == sessions_.end() || it->second->running ||
                    it->second->pending.empty())
                    continue;
                SessionState& state = *it->second;
                state.running = true;
                stream.entries.push_back(
                    {id, &state, state.pending.front()});
                state.pending.pop_front();
                unqueueLocked(stream.entries.back().job);
            }
            if (stream.entries.empty())
                continue;
            fleet_.onStreamLaunched(core, stream.entries.size());
            ++activeRuns_;
            launches.push_back(std::move(stream));
        }
    }
}

void
SolverService::launch(std::vector<Launch>& launches)
{
    // Submitted outside the service lock: with a degenerate zero-worker
    // pool submit() runs the task inline, which would deadlock under
    // the lock.
    for (Launch& item : launches) {
        Launch stream = std::move(item);
        ThreadPool::global().submit(
            [this, stream] { runStream(stream); });
    }
}

void
SolverService::failOverStreamLocked(
    Launch& stream, std::size_t from_index, bool hang,
    std::vector<Launch>& launches,
    std::vector<std::pair<std::shared_ptr<Job>, SolveStatus>>& shed)
{
    const double stall =
        hang ? fleet_.stallWatchdogSeconds() : 0.0;
    Count failedOver = 0;
    for (std::size_t i = from_index; i < stream.entries.size(); ++i) {
        Launch::Entry& entry = stream.entries[i];
        // None of these jobs started solving: session state is
        // untouched, so the re-run is bitwise identical to an
        // undisturbed one.
        entry.state->running = false;
        entry.job->stallSeconds += stall;
        ++entry.job->failovers;
        ++failedOver;
        if (shuttingDown_ || !entry.state->open) {
            shed.emplace_back(entry.job,
                              shuttingDown_ ? SolveStatus::ShuttingDown
                                            : SolveStatus::Rejected);
            if (!entry.state->open && entry.state->pending.empty()) {
                retireSessionSeriesLocked(entry.id, *entry.state);
                sessions_.erase(entry.id);
                openSessions_.set(
                    static_cast<std::int64_t>(sessions_.size()));
            }
            continue;
        }
        entry.state->pending.push_front(entry.job);
        ++queuedJobs_;
        const std::size_t cls =
            classIndex(entry.job->options.admissionClass);
        ++classQueued_[cls];
        classMetrics_[cls].queueDepth->set(
            static_cast<std::int64_t>(classQueued_[cls]));
        placeReadyLocked(entry.id, *entry.state);
    }
    fleet_.recordFailover(stream.core, failedOver);
    queueDepth_.set(static_cast<std::int64_t>(queuedJobs_));
    // Sessions still waiting on the now-fenced core follow the jobs
    // back to the scheduler.
    for (const ReadyEntry& ready : fleet_.drainReady(stream.core)) {
        auto it = sessions_.find(ready.id);
        if (it == sessions_.end() || it->second->running ||
            it->second->pending.empty())
            continue;
        placeReadyLocked(ready.id, *it->second);
    }
    pumpLocked(launches);
}

void
SolverService::runStream(Launch stream)
{
    Timer busy;
    for (std::size_t index = 0; index < stream.entries.size();
         ++index) {
        Launch::Entry& entry = stream.entries[index];
        SessionResult result;
        std::vector<Launch> launches;
        std::vector<std::pair<std::shared_ptr<Job>, SolveStatus>>
            shed;
        bool failedOver = false;
        FleetFaultAction action;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            action = fleet_.onJobStarting(stream.core);
            if (action.kind == FleetFaultAction::Kind::FailStream) {
                failOverStreamLocked(stream, index, action.hang,
                                     launches, shed);
                failedOver = true;
            }
        }
        if (failedOver) {
            for (auto& item : shed) {
                SessionResult dropped;
                dropped.status = item.second;
                item.first->callback(std::move(dropped));
            }
            if (!launches.empty())
                launch(launches);
            break; // the stream tail still releases this core's slot
        }
        {
            // Scoped so the span is recorded *before* the callback is
            // invoked: a client that solves then immediately drains
            // the trace always sees its own request's span.
            TELEMETRY_SPAN("service.run_job");
            // Stall-watchdog charges from earlier failovers count
            // against the budget as if the client had really waited
            // them out on the hung core.
            const double waited = secondsSince(entry.job->enqueued) +
                                  entry.job->stallSeconds;
            const Real deadline = entry.job->options.deadlineSeconds;
            const bool expired = deadline > 0.0 && waited >= deadline;
            const auto executeStart = std::chrono::steady_clock::now();
            if (expired) {
                // Too late to start: report the deadline without
                // touching the session (its warm state and diff base
                // stay intact).
                result.status = SolveStatus::TimeLimitReached;
            } else {
                const Real budget =
                    deadline > 0.0 ? deadline - static_cast<Real>(waited)
                                   : 0.0;
                // The session consults the placed core's cache
                // partition, so affinity-routed structures find their
                // artifact hot.
                entry.state->session->bindCache(
                    fleet_.coreCache(stream.core));
                result = entry.state->session->solve(
                    entry.job->problem, budget);
            }
            const bool degraded =
                action.kind == FleetFaultAction::Kind::Degrade;
            if (degraded)
                // Modeled slowdown: the device held the job longer.
                result.deviceSeconds *=
                    static_cast<Real>(action.slowdown);
            result.failovers = entry.job->failovers;
            result.telemetry.queueWaitSeconds = waited;
            queueWaitNs_.observe(
                static_cast<std::uint64_t>(waited * 1e9));
            executeNs_.observe(static_cast<std::uint64_t>(
                secondsSince(executeStart) * 1e9));

            {
                std::lock_guard<std::mutex> lock(mutex_);
                const std::size_t cls =
                    classIndex(entry.job->options.admissionClass);
                entry.state->statsSnapshot =
                    entry.state->session->stats();
                if (expired) {
                    expired_.increment();
                    classMetrics_[cls].expired->increment();
                } else {
                    completed_.increment();
                    classMetrics_[cls].completed->increment();
                    if (result.status == SolveStatus::Solved)
                        classMetrics_[cls].solved->increment();
                    entry.state->solvesCounter->increment();
                }
                fleet_.onJobExecuted(
                    stream.core,
                    static_cast<double>(result.deviceSeconds), degraded);
                entry.state->running = false;
                if (!entry.state->open &&
                    entry.state->pending.empty()) {
                    // Deferred from closeSession.
                    retireSessionSeriesLocked(entry.id, *entry.state);
                    sessions_.erase(entry.id);
                    openSessions_.set(
                        static_cast<std::int64_t>(sessions_.size()));
                } else if (!entry.state->pending.empty()) {
                    placeReadyLocked(entry.id, *entry.state);
                }
                // Other cores may have gained work (the session was
                // re-placed); this core's slot stays held until the
                // stream ends.
                pumpLocked(launches);
            }
        }
        if (!launches.empty())
            launch(launches);
        entry.job->callback(std::move(result));
    }

    std::vector<Launch> launches;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        fleet_.onStreamFinished(stream.core, busy.seconds());
        --activeRuns_;
        pumpLocked(launches);
        // The idle check runs after pumpLocked so follow-on work keeps
        // activeRuns_ nonzero: once a drain observes idle, no code
        // path of this stream touches the service again, making
        // destruction race-free.
        if (activeRuns_ == 0 && queuedJobs_ == 0)
            idleCv_.notify_all();
    }
    if (!launches.empty())  // non-empty: the drain is still held
        launch(launches);
}

void
SolverService::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock,
                 [this] { return activeRuns_ == 0 && queuedJobs_ == 0; });
}

ServiceStats
SolverService::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    ServiceStats stats;
    stats.submitted = static_cast<Count>(submitted_.value());
    stats.completed = static_cast<Count>(completed_.value());
    stats.rejected = static_cast<Count>(rejected_.value());
    stats.expired = static_cast<Count>(expired_.value());
    stats.cancelled = static_cast<Count>(cancelled_.value());
    stats.shed = static_cast<Count>(shedTotal_.value());
    stats.shutdownDrained =
        static_cast<Count>(shutdownDrained_.value());
    stats.retryAfterHints =
        static_cast<Count>(retryAfterHints_.value());
    stats.lastRetryAfterSeconds = lastRetryAfterSeconds_;
    const FleetStats fleet = fleet_.stats();
    stats.failovers = fleet.failovers;
    stats.quarantines = fleet.quarantines;
    stats.readmissions = fleet.readmissions;
    stats.queueDepth = queuedJobs_;
    stats.peakQueueDepth =
        static_cast<std::size_t>(peakQueueDepth_.value());
    stats.openSessions = sessions_.size();
    stats.cache = fleet_.aggregateCacheStats();
    for (std::size_t c = 0; c < kAdmissionClassCount; ++c) {
        const ClassMetrics& m = classMetrics_[c];
        ClassStats& slice = stats.perClass[c];
        slice.submitted = static_cast<Count>(m.submitted->value());
        slice.completed = static_cast<Count>(m.completed->value());
        slice.solved = static_cast<Count>(m.solved->value());
        slice.rejected = static_cast<Count>(m.rejected->value());
        slice.shed = static_cast<Count>(m.shed->value());
        slice.cancelled = static_cast<Count>(m.cancelled->value());
        slice.expired = static_cast<Count>(m.expired->value());
        slice.queueDepth = classQueued_[c];
    }
    return stats;
}

FleetStats
SolverService::fleetStats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return fleet_.stats();
}

void
SolverService::syncGaugesLocked() const
{
    const CustomizationCacheStats cache = fleet_.aggregateCacheStats();
    cacheHits_.set(cache.hits);
    cacheMisses_.set(cache.misses);
    cacheEvictions_.set(cache.evictions);
    cacheSize_.set(static_cast<std::int64_t>(cache.size));
    openSessions_.set(static_cast<std::int64_t>(sessions_.size()));
    fleet_.syncGauges();
}

telemetry::MetricsSnapshot
SolverService::metricsSnapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    syncGaugesLocked();
    return registry_.snapshot();
}

std::string
SolverService::metricsText() const
{
    return metricsSnapshot().toPrometheusText();
}

SessionStats
SolverService::sessionStats(SessionId id) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = sessions_.find(id);
    return it != sessions_.end() ? it->second->statsSnapshot
                                 : SessionStats();
}

} // namespace rsqp
