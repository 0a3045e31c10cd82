#include "service/fleet/fleet.hpp"

#include <algorithm>
#include <string>

#include "common/thread_pool.hpp"

namespace rsqp
{

namespace
{

std::string
coreSeries(const char* family, std::size_t core)
{
    return std::string(family) + "{core=\"" + std::to_string(core) +
           "\"}";
}

/** Run slots per core (see FleetConfig::slotsPerCore). */
unsigned
resolveSlots(const FleetConfig& config)
{
    if (config.slotsPerCore != 0)
        return config.slotsPerCore;
    if (config.coreCount > 1)
        return 1;
    return std::max(1u, static_cast<unsigned>(effectiveNumThreads()));
}

} // namespace

SolverFleet::SolverFleet(const FleetConfig& config,
                         std::size_t cache_capacity,
                         const AdmissionConfig& admission,
                         telemetry::MetricsRegistry& registry)
    : config_(config),
      slots_(resolveSlots(config)),
      scheduler_(std::max(1u, config.coreCount), config.affinityQueueBound),
      cores_(std::max(1u, config.coreCount))
{
    for (std::size_t c = 0; c < kAdmissionClassCount; ++c)
        classWeights_[c] = std::max<std::int64_t>(
            1, static_cast<std::int64_t>(admission.classes[c].weight));
    registry
        .gauge("rsqp_fleet_cores",
               "Simulated solver cores behind the service")
        .set(static_cast<std::int64_t>(cores_.size()));
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        Core& core = cores_[i];
        core.cache =
            std::make_shared<CustomizationCache>(cache_capacity);
        core.jobsTotal = &registry.counter(
            coreSeries("rsqp_fleet_core_jobs_total", i),
            "Jobs executed on this core");
        core.streamsTotal = &registry.counter(
            coreSeries("rsqp_fleet_core_streams_total", i),
            "Instruction streams dispatched to this core");
        core.busyNsTotal = &registry.counter(
            coreSeries("rsqp_fleet_core_busy_ns_total", i),
            "Nanoseconds streams held this core");
        core.queueDepth = &registry.gauge(
            coreSeries("rsqp_fleet_core_queue_depth", i),
            "Ready sessions placed on this core");
        core.utilization = &registry.gauge(
            coreSeries("rsqp_fleet_core_utilization_percent", i),
            "Busy time over wall time per run slot");
        core.cacheHits = &registry.gauge(
            coreSeries("rsqp_fleet_core_cache_hits", i),
            "Customization-cache hits in this core's partition");
        core.health = CoreHealthMachine(config_.faultDomain);
        core.faultsTotal = &registry.counter(
            coreSeries("rsqp_fleet_core_faults_total", i),
            "Injected faults delivered to this core");
        core.stateGauge = &registry.gauge(
            coreSeries("rsqp_fleet_core_state", i),
            "Core health (0 healthy, 1 degraded, 2 quarantined, "
            "3 recovering)");
    }
    failoversTotal_ = &registry.counter(
        "rsqp_fleet_failovers_total",
        "Jobs re-placed onto another core after a core fault");
    quarantinesTotal_ = &registry.counter(
        "rsqp_fleet_quarantines_total",
        "Times a core was fenced off the fleet");
    readmissionsTotal_ = &registry.counter(
        "rsqp_fleet_readmissions_total",
        "Quarantined cores readmitted by a successful probe");
    probesTotal_ =
        &registry.counter("rsqp_fleet_probes_total",
                          "Readmission probes attempted");
    invalidationsTotal_ = &registry.counter(
        "rsqp_fleet_partition_invalidations_total",
        "Cache partitions cleared on quarantine");
}

std::vector<CoreLoad>
SolverFleet::loads() const
{
    std::vector<CoreLoad> loads(cores_.size());
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        loads[i].queuedSessions = readyDepth(i);
        loads[i].runningStreams = cores_[i].running;
        loads[i].available = cores_[i].health.dispatchable();
    }
    return loads;
}

std::size_t
SolverFleet::availableCoreCount() const
{
    std::size_t available = 0;
    for (const Core& core : cores_)
        if (core.health.dispatchable())
            ++available;
    return available;
}

std::size_t
SolverFleet::placeSession(const StructureFingerprint& fp) const
{
    return scheduler_.place(fp, loads());
}

void
SolverFleet::enqueueReady(std::size_t core, SessionId id,
                          AdmissionClass cls)
{
    cores_[core].ready[static_cast<std::size_t>(cls)].push_back(id);
}

std::size_t
SolverFleet::readyDepth(std::size_t core) const
{
    std::size_t depth = 0;
    for (const auto& queue : cores_[core].ready)
        depth += queue.size();
    return depth;
}

std::optional<SessionId>
SolverFleet::popReady(std::size_t core)
{
    Core& state = cores_[core];
    // Smooth weighted round-robin across the classes that actually
    // have work: every waiting class earns its weight, the richest
    // class dispatches and pays back the total earned this round.
    // Over a contended stretch each class receives weight/sum of the
    // dispatch decisions; an idle class accrues nothing, so it cannot
    // bank credit and burst-starve the others later.
    std::int64_t earned = 0;
    std::size_t chosen = kAdmissionClassCount;
    for (std::size_t c = 0; c < kAdmissionClassCount; ++c) {
        if (state.ready[c].empty())
            continue;
        state.wrrCredit[c] += classWeights_[c];
        earned += classWeights_[c];
        // Strictly-greater keeps ties on the most urgent class.
        if (chosen == kAdmissionClassCount ||
            state.wrrCredit[c] > state.wrrCredit[chosen])
            chosen = c;
    }
    if (chosen == kAdmissionClassCount)
        return std::nullopt;
    state.wrrCredit[chosen] -= earned;
    std::deque<SessionId>& queue = state.ready[chosen];
    const SessionId id = queue.front();
    queue.pop_front();
    return id;
}

void
SolverFleet::onStreamLaunched(std::size_t core)
{
    Core& state = cores_[core];
    ++state.running;
    state.streamsTotal->increment();
}

void
SolverFleet::quarantineSideEffects(std::size_t core)
{
    Core& state = cores_[core];
    // A failed core's resident artifacts are suspect; drop the whole
    // partition so readmitted traffic re-customizes from scratch, and
    // so the re-spilled traffic's working set lives on one failover
    // core instead of straddling a dead partition.
    state.cache->clear();
    state.degradeJobsLeft = 0;
    state.slowdown = 1.0;
    invalidationsTotal_->increment();
    quarantinesTotal_->increment();
    syncStateGauge(core);
}

FleetFaultAction
SolverFleet::onJobStarting(std::size_t core)
{
    Core& state = cores_[core];
    const Count coreSeq = state.jobsStarted++;
    const Count fleetSeq = fleetJobsStarted_++;
    FleetFaultAction action;
    const FleetFaultEvent* event =
        config_.faultInjector
            ? config_.faultInjector->onJobStart(core, coreSeq,
                                                fleetSeq)
            : nullptr;
    if (event != nullptr) {
        state.faultsTotal->increment();
        switch (event->kind) {
        case FleetFaultKind::KillCore:
            state.health.onFatalFault(virtualNow_);
            quarantineSideEffects(core);
            action.kind = FleetFaultAction::Kind::FailStream;
            return action;
        case FleetFaultKind::HangCore:
            // The job sat on the stalled core until the watchdog
            // fired: that time passed for the whole fleet.
            virtualNow_ += config_.faultDomain.stallWatchdogSeconds;
            state.health.onFatalFault(virtualNow_);
            quarantineSideEffects(core);
            action.kind = FleetFaultAction::Kind::FailStream;
            action.hang = true;
            return action;
        case FleetFaultKind::DegradeCore:
            if (state.health.onDegradeFault(virtualNow_)) {
                // Circuit breaker: enough consecutive degrades reads
                // as a failing device, not a noisy neighbor.
                quarantineSideEffects(core);
                action.kind = FleetFaultAction::Kind::FailStream;
                return action;
            }
            syncStateGauge(core);
            state.degradeJobsLeft = std::max<Count>(
                static_cast<Count>(1), event->durationJobs);
            state.slowdown = std::max<Real>(1.0,
                                            event->slowdownFactor);
            break;
        }
    }
    if (state.degradeJobsLeft > 0) {
        --state.degradeJobsLeft;
        ++state.degradedJobs;
        action.kind = FleetFaultAction::Kind::Degrade;
        action.slowdown = state.slowdown;
    }
    return action;
}

void
SolverFleet::onJobExecuted(std::size_t core, double device_seconds,
                           bool degraded)
{
    Core& state = cores_[core];
    state.deviceSeconds += device_seconds;
    virtualNow_ += device_seconds;
    state.jobsTotal->increment();
    if (!degraded) {
        const CoreHealth before = state.health.health();
        state.health.onCleanJob();
        if (state.health.health() != before)
            syncStateGauge(core);
    }
}

std::vector<SessionId>
SolverFleet::drainReady(std::size_t core)
{
    std::vector<SessionId> drained;
    for (auto& queue : cores_[core].ready) {
        drained.insert(drained.end(), queue.begin(), queue.end());
        queue.clear();
    }
    return drained;
}

void
SolverFleet::recordFailover(std::size_t core)
{
    ++cores_[core].failedOverJobs;
    failoversTotal_->increment();
}

std::size_t
SolverFleet::runReadmissionProbes()
{
    std::size_t readmitted = 0;
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        Core& state = cores_[i];
        if (!state.health.probeDue(virtualNow_))
            continue;
        state.health.recordProbe();
        probesTotal_->increment();
        const bool success =
            !config_.faultInjector ||
            config_.faultInjector->probeSucceeds(
                i, state.health.probeIndex());
        if (success) {
            state.health.onProbeSucceeded();
            readmissionsTotal_->increment();
            ++readmitted;
        } else {
            state.health.onProbeFailed(virtualNow_);
        }
        syncStateGauge(i);
    }
    return readmitted;
}

bool
SolverFleet::advanceVirtualToNextProbe()
{
    bool any = false;
    Real earliest = 0.0;
    for (const Core& core : cores_) {
        if (core.health.health() != CoreHealth::Quarantined)
            continue;
        if (!any || core.health.nextProbeAt() < earliest)
            earliest = core.health.nextProbeAt();
        any = true;
    }
    if (!any)
        return false;
    if (earliest > virtualNow_)
        virtualNow_ = earliest;
    return true;
}

double
SolverFleet::secondsToNextProbe() const
{
    bool any = false;
    Real earliest = 0.0;
    for (const Core& core : cores_) {
        if (core.health.health() != CoreHealth::Quarantined)
            continue;
        if (!any || core.health.nextProbeAt() < earliest)
            earliest = core.health.nextProbeAt();
        any = true;
    }
    if (!any || earliest <= virtualNow_)
        return 0.0;
    return earliest - virtualNow_;
}

double
SolverFleet::averageJobDeviceSeconds() const
{
    std::uint64_t jobs = 0;
    double device = 0.0;
    for (const Core& core : cores_) {
        jobs += core.jobsTotal->value();
        device += core.deviceSeconds;
    }
    return jobs == 0 ? 0.0 : device / static_cast<double>(jobs);
}

void
SolverFleet::onStreamFinished(std::size_t core, double busy_seconds)
{
    Core& state = cores_[core];
    --state.running;
    state.busySeconds += busy_seconds;
    state.busyNsTotal->add(
        static_cast<std::uint64_t>(busy_seconds * 1e9));
}

CustomizationCacheStats
SolverFleet::aggregateCacheStats() const
{
    CustomizationCacheStats total;
    for (const Core& core : cores_) {
        const CustomizationCacheStats part = core.cache->stats();
        total.hits += part.hits;
        total.misses += part.misses;
        total.evictions += part.evictions;
        total.insertions += part.insertions;
        total.size += part.size;
        total.capacity += part.capacity;
        total.footprintBytes += part.footprintBytes;
    }
    return total;
}

FleetStats
SolverFleet::stats() const
{
    FleetStats stats;
    stats.wallSeconds = wall_.seconds();
    stats.virtualSeconds = virtualNow_;
    stats.failovers = static_cast<Count>(failoversTotal_->value());
    stats.partitionInvalidations =
        static_cast<Count>(invalidationsTotal_->value());
    stats.cores.reserve(cores_.size());
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const Core& core = cores_[i];
        CoreStats entry;
        entry.core = i;
        entry.jobs = static_cast<Count>(core.jobsTotal->value());
        entry.streams = static_cast<Count>(core.streamsTotal->value());
        entry.busySeconds = core.busySeconds;
        entry.deviceSeconds = core.deviceSeconds;
        const double denominator = stats.wallSeconds * slots_;
        entry.utilizationPercent =
            denominator > 0.0 ? 100.0 * core.busySeconds / denominator
                              : 0.0;
        entry.readySessions = readyDepth(i);
        entry.runningStreams = core.running;
        entry.cache = core.cache->stats();
        entry.health = core.health.health();
        entry.faults = static_cast<Count>(core.faultsTotal->value());
        entry.quarantines = core.health.quarantines();
        entry.probes = core.health.probesAttempted();
        entry.readmissions = core.health.readmissions();
        entry.failedOverJobs = core.failedOverJobs;
        entry.degradedJobs = core.degradedJobs;
        stats.quarantines += entry.quarantines;
        stats.probes += entry.probes;
        stats.readmissions += entry.readmissions;
        stats.cores.push_back(entry);
    }
    return stats;
}

void
SolverFleet::syncGauges() const
{
    const double wall = wall_.seconds();
    for (std::size_t i = 0; i < cores_.size(); ++i) {
        const Core& core = cores_[i];
        core.queueDepth->set(
            static_cast<std::int64_t>(readyDepth(i)));
        const double denominator = wall * slots_;
        core.utilization->set(static_cast<std::int64_t>(
            denominator > 0.0
                ? 100.0 * core.busySeconds / denominator + 0.5
                : 0.0));
        core.cacheHits->set(core.cache->stats().hits);
        syncStateGauge(i);
    }
}

void
SolverFleet::syncStateGauge(std::size_t core) const
{
    cores_[core].stateGauge->set(static_cast<std::int64_t>(
        cores_[core].health.health()));
}

} // namespace rsqp
