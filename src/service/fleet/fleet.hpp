/**
 * @file
 * The multi-core device fleet: N simulated solver cores behind one
 * service front-end, mirroring the 16-56 solver-core FPGA deployments
 * the paper's economics assume.
 *
 * Each core owns its slice of the serving state: a private
 * customization-cache partition of ServiceConfig::cacheCapacity
 * artifacts (an artifact is hot on exactly the core its structures
 * route to — placement is structure affinity, see placement.hpp),
 * bounded run slots (FleetConfig::slotsPerCore; a core of a multi-core
 * fleet is one device running one instruction stream at a time, and a
 * one-core fleet defaults to one stream per worker thread),
 * per-admission-class ready queues drained by smooth weighted
 * round-robin (so Realtime traffic keeps its configured share of the
 * core even while Batch work is backed up behind it), and per-core
 * metrics (jobs, streams, busy time, utilization, queue depth, cache
 * hits) registered as labeled series in the service's metrics
 * registry.
 *
 * Co-scheduling models `mib_sched.py`'s temporal instruction
 * interleaving: when several *small* QPs are queued on one core, the
 * fleet fuses up to `interleaveWidth` of them into one instruction
 * stream — one dispatch, one run-slot occupancy window — instead of
 * cycling the core per tiny job.
 *
 * The fleet is a passive component: every method must be called under
 * the owning SolverService's lock. Execution still happens on the
 * shared thread pool; cores model placement and occupancy, not
 * threads.
 */

#ifndef RSQP_SERVICE_FLEET_FLEET_HPP
#define RSQP_SERVICE_FLEET_FLEET_HPP

#include <array>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/fault_injection.hpp"
#include "common/timer.hpp"
#include "service/admission.hpp"
#include "service/customization_cache.hpp"
#include "service/fleet/health.hpp"
#include "service/fleet/placement.hpp"
#include "telemetry/metrics.hpp"

namespace rsqp
{

/** Handle of one open session (never reused within a service). */
using SessionId = Count;

/** One placed session waiting in a core's ready queue. */
struct ReadyEntry
{
    SessionId id = 0;
    /** Admission class of the session's head job — the weighted-fair
     *  dispatch key. */
    AdmissionClass cls = AdmissionClass::Interactive;
    /** Head job's n + m is under the interleaving threshold. */
    bool small = false;
};

/** Fleet shape and placement behavior, fixed at service construction. */
struct FleetConfig
{
    /** Simulated solver cores (>= 1). */
    unsigned coreCount = 1;
    /**
     * Concurrent instruction streams per core. 0 = auto: with one
     * core, the host's worker-thread count (effectiveNumThreads());
     * with more, 1 — a core is one device.
     */
    unsigned slotsPerCore = 0;
    /** Ready-queue depth beyond which affinity spills to least-loaded. */
    std::size_t affinityQueueBound = 4;
    /** Max small QPs fused into one interleaved instruction stream
     *  (effective only with coreCount > 1; 1 disables fusing). */
    unsigned interleaveWidth = 4;
    /** A job with n + m <= this counts as small (interleavable). */
    Index smallJobThreshold = 128;
    /** Health-model knobs: stall watchdog, breaker, probe backoff. */
    FaultDomainConfig faultDomain;
    /**
     * Whole-core fault schedule (chaos tests / bench_chaos). Null =
     * no injected faults; the health model still tracks state. The
     * injector is consulted only under the service lock — give every
     * concurrently running service its own instance.
     */
    std::shared_ptr<FleetFaultInjector> faultInjector;
};

/** What the fault domain decided as a job was about to start. */
struct FleetFaultAction
{
    enum class Kind
    {
        None,       ///< run the job normally
        Degrade,    ///< run it, but inflate its modeled device time
        FailStream, ///< core failed: fail over the rest of the stream
    };
    Kind kind = Kind::None;
    /** FailStream: the core hung and the stall watchdog fired; the
     *  watchdog charge applies to every failed-over job's budget. */
    bool hang = false;
    /** Degrade: modeled-device-time multiplier. */
    Real slowdown = 1.0;
};

/** Point-in-time counters of one solver core. */
struct CoreStats
{
    std::size_t core = 0;
    Count jobs = 0;            ///< jobs executed to completion
    Count streams = 0;         ///< instruction streams dispatched
    Count interleavedJobs = 0; ///< jobs that ran fused with others
    double busySeconds = 0.0;  ///< wall time streams held this core
    /** Simulated device occupancy: sum of the jobs' modeled on-device
     *  run times. Host-load independent, so scaling benches gate on
     *  it instead of wall clock. */
    double deviceSeconds = 0.0;
    double utilizationPercent = 0.0; ///< busy / (wall * slots)
    std::size_t readySessions = 0;   ///< placed, waiting for a slot
    unsigned runningStreams = 0;
    CustomizationCacheStats cache;   ///< this core's partition

    CoreHealth health = CoreHealth::Healthy;
    Count faults = 0;         ///< injected faults delivered here
    Count quarantines = 0;    ///< times this core was fenced off
    Count probes = 0;         ///< readmission probes attempted
    Count readmissions = 0;   ///< probes that succeeded
    Count failedOverJobs = 0; ///< jobs this core lost to failover
    Count degradedJobs = 0;   ///< jobs run at an inflated device time
};

/** Fleet-wide snapshot: one entry per core. */
struct FleetStats
{
    double wallSeconds = 0.0;    ///< since fleet construction
    /** Virtual clock: accumulated modeled device-seconds plus
     *  stall-watchdog charges. Drives probe backoff; deterministic. */
    double virtualSeconds = 0.0;
    Count failovers = 0;         ///< jobs re-placed off failed cores
    Count quarantines = 0;
    Count readmissions = 0;
    Count probes = 0;
    Count partitionInvalidations = 0;
    std::vector<CoreStats> cores;
};

/** The core array + placement state (externally locked; see file
 *  comment). */
class SolverFleet
{
  public:
    /**
     * @param cache_capacity Capacity of every core's cache partition
     *        (ServiceConfig::cacheCapacity).
     * @param admission Class weights driving each core's weighted-fair
     *        ready-queue dispatch.
     * @param registry Receives the per-core labeled series; must
     *        outlive the fleet.
     */
    SolverFleet(const FleetConfig& config, std::size_t cache_capacity,
                const AdmissionConfig& admission,
                telemetry::MetricsRegistry& registry);

    std::size_t coreCount() const { return cores_.size(); }
    unsigned slotsPerCore() const { return slots_; }

    /** This core's customization-cache partition (never null). */
    const std::shared_ptr<CustomizationCache>&
    coreCache(std::size_t core) const
    {
        return cores_[core].cache;
    }

    /** Route a ready session by its head job's fingerprint. */
    std::size_t placeSession(const StructureFingerprint& fp) const;

    /** Append a placed session to its core's ready queue, under the
     *  head job's admission class. */
    void enqueueReady(std::size_t core, SessionId id,
                      AdmissionClass cls, bool small_job);

    bool
    hasCapacity(std::size_t core) const
    {
        return cores_[core].running < slots_;
    }

    /** Free slot *and* not quarantined — the pump's dispatch gate. */
    bool
    canDispatch(std::size_t core) const
    {
        return hasCapacity(core) && dispatchable(core);
    }

    /** Health gate only (any state but Quarantined). */
    bool
    dispatchable(std::size_t core) const
    {
        return cores_[core].health.dispatchable();
    }

    /** Cores currently allowed to take work. */
    std::size_t availableCoreCount() const;

    std::size_t readyDepth(std::size_t core) const;

    /**
     * Pop the sessions forming the next instruction stream of `core`.
     * Which admission class supplies the stream is decided by smooth
     * weighted round-robin over the core's non-empty class queues
     * (every waiting class earns its weight in credit per decision;
     * the highest credit dispatches, ties going to the more urgent
     * class), so under contention each class drains in proportion to
     * its configured weight instead of strict FIFO. Within the chosen
     * class: one session, or — when the head and its successors are
     * small jobs on a multi-core fleet — up to interleaveWidth of
     * them.
     */
    std::vector<SessionId> popStream(std::size_t core);

    /** A stream of `jobs` jobs took a run slot on `core`. */
    void onStreamLaunched(std::size_t core, std::size_t jobs);

    /**
     * Consult the fault domain as a job is about to start on `core`.
     * Counts the start, delivers any scheduled fault, and drives the
     * health machine: a kill/hang (or a breaker trip) quarantines the
     * core — its cache partition is invalidated and the first
     * readmission probe is armed — and returns FailStream, telling the
     * caller to fail the stream's remaining jobs over instead of
     * running them. A hang additionally advances the virtual clock by
     * the stall-watchdog charge.
     */
    FleetFaultAction onJobStarting(std::size_t core);

    /**
     * One job of a stream on `core` ran to a status, occupying the
     * simulated device for `device_seconds` of modeled time (already
     * inflated if the job ran degraded). Advances the virtual clock;
     * a clean (non-degraded) job also feeds the health machine's
     * recovery count.
     */
    void onJobExecuted(std::size_t core, double device_seconds,
                       bool degraded = false);

    /**
     * Take the whole ready queue of a (newly quarantined) core, in
     * class-priority order. The service re-places each entry; none may
     * stay parked on a fenced core or it could wait out the entire
     * quarantine.
     */
    std::vector<ReadyEntry> drainReady(std::size_t core);

    /** `jobs` jobs were pulled off `core` by a failover. */
    void recordFailover(std::size_t core, Count jobs);

    /**
     * Attempt the readmission probe of every quarantined core whose
     * backoff has elapsed on the virtual clock. Probe outcomes come
     * from the fault injector (no injector: probes always succeed).
     * Returns the number of cores readmitted.
     */
    std::size_t runReadmissionProbes();

    /**
     * Jump the virtual clock to the earliest pending probe deadline —
     * the escape hatch when every core is quarantined and nothing is
     * running, so no device time would otherwise accrue. Returns false
     * if no core is quarantined.
     */
    bool advanceVirtualToNextProbe();

    /** Virtual seconds until the earliest pending readmission probe
     *  (0 when none is pending or one is already due). */
    double secondsToNextProbe() const;

    /** Stall charge per hung stream (config passthrough). */
    double
    stallWatchdogSeconds() const
    {
        return config_.faultDomain.stallWatchdogSeconds;
    }

    /** Mean modeled device time per executed job (0 before the first
     *  job) — the service's retry-after estimator. */
    double averageJobDeviceSeconds() const;

    /** The stream released its slot after `busy_seconds` of wall time. */
    void onStreamFinished(std::size_t core, double busy_seconds);

    /** Sum of every partition's counters (capacity sums too). */
    CustomizationCacheStats aggregateCacheStats() const;

    FleetStats stats() const;

    /** Refresh utilization / queue-depth / cache-hit gauges. */
    void syncGauges() const;

  private:
    struct Core
    {
        /** Ready sessions, one queue per admission class; FIFO within
         *  a class, weighted round-robin across classes. */
        std::array<std::deque<ReadyEntry>, kAdmissionClassCount> ready;
        /** Smooth-WRR credit per class (see popStream). */
        std::array<std::int64_t, kAdmissionClassCount> wrrCredit{};
        unsigned running = 0;    ///< streams holding a slot
        Count jobs = 0;
        Count streams = 0;
        Count interleavedJobs = 0;
        double busySeconds = 0.0;
        double deviceSeconds = 0.0;
        std::shared_ptr<CustomizationCache> cache;

        CoreHealthMachine health;
        Count jobsStarted = 0;    ///< fault-injection sequence number
        Count faults = 0;         ///< injected faults delivered here
        Count failedOverJobs = 0; ///< jobs lost to failover
        Count degradedJobs = 0;
        Count degradeJobsLeft = 0; ///< remaining slowed jobs
        Real slowdown = 1.0;       ///< while degradeJobsLeft > 0

        telemetry::Counter* jobsTotal = nullptr;
        telemetry::Counter* streamsTotal = nullptr;
        telemetry::Counter* interleavedTotal = nullptr;
        telemetry::Counter* busyNsTotal = nullptr;
        telemetry::Counter* faultsTotal = nullptr;
        telemetry::Gauge* queueDepth = nullptr;
        telemetry::Gauge* utilization = nullptr;
        telemetry::Gauge* cacheHits = nullptr;
        telemetry::Gauge* stateGauge = nullptr;
    };

    std::vector<CoreLoad> loads() const;

    /** Fence `core` off: clear its cache partition (stale artifacts
     *  must not survive a failed core), count, update the gauge. The
     *  health machine is already Quarantined when this runs. */
    void quarantineSideEffects(std::size_t core);

    void syncStateGauge(std::size_t core) const;

    FleetConfig config_;
    unsigned slots_;
    unsigned interleave_;
    /** Dispatch weight per admission class (>= 1 each). */
    std::array<std::int64_t, kAdmissionClassCount> classWeights_;
    PlacementScheduler scheduler_;
    std::vector<Core> cores_;
    Timer wall_; ///< utilization denominator

    Real virtualNow_ = 0.0;   ///< see FleetStats::virtualSeconds
    Count fleetJobsStarted_ = 0;
    Count jobsExecuted_ = 0;
    Count failovers_ = 0;
    Count partitionInvalidations_ = 0;

    telemetry::Counter* failoversTotal_ = nullptr;
    telemetry::Counter* quarantinesTotal_ = nullptr;
    telemetry::Counter* readmissionsTotal_ = nullptr;
    telemetry::Counter* probesTotal_ = nullptr;
    telemetry::Counter* invalidationsTotal_ = nullptr;
};

} // namespace rsqp

#endif // RSQP_SERVICE_FLEET_FLEET_HPP
