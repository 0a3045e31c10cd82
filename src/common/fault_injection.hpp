/**
 * @file
 * Deterministic soft-error fault injection for the simulated
 * accelerator and the software PCG path.
 *
 * The model follows the FPGA soft-error literature: a streamed memory
 * word (HBM burst, MAC-tree output register) occasionally arrives with
 * a flipped bit or as a poisoned NaN. Injection decisions are a *pure
 * function* of (seed, epoch, stream tag, word index), so a run is
 * exactly reproducible.
 *
 * The injector never aborts a computation — its whole purpose is to
 * exercise the detection and recovery machinery (problem validation,
 * divergence watchdog, PCG breakdown fallback) end to end.
 */

#ifndef RSQP_COMMON_FAULT_INJECTION_HPP
#define RSQP_COMMON_FAULT_INJECTION_HPP

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace rsqp
{

/** Knobs of the seeded soft-error model. */
struct FaultInjectionConfig
{
    /** Master switch; everything below is ignored when false. */
    bool enabled = false;
    /** Seed of the deterministic fault stream. */
    std::uint64_t seed = 0;
    /** Probability that one streamed word is corrupted. */
    Real ratePerWord = 1e-4;
    /** Fraction of faults injected as quiet NaN (rest are bit flips). */
    Real nanFraction = 0.25;
};

/**
 * Seeded fault injector. Cheap to query: one 64-bit hash per word.
 *
 * Counters are atomic so concurrent victims (e.g. batch solves each
 * owning an injector, or future parallel hooks) stay well-defined.
 */
class FaultInjector
{
  public:
    explicit FaultInjector(FaultInjectionConfig config);

    bool enabled() const { return config_.enabled; }
    const FaultInjectionConfig& config() const { return config_; }

    /**
     * Advance the fault epoch: the next run/solve sees a fresh,
     * still-deterministic fault pattern. Without this a retry would
     * deterministically replay the exact faults that broke the first
     * attempt and recovery could never succeed.
     */
    void advanceEpoch()
    {
        ++epoch_;
        nonce_.store(0);
    }
    std::uint64_t epoch() const { return epoch_; }

    /**
     * Fresh per-call stream offset for hook sites that re-execute with
     * the same word indices (e.g. one PCG solve per ADMM iteration).
     * Without it a single unlucky hash draw would deterministically
     * poison the same word of *every* re-execution and recovery could
     * never make progress. Resets with the epoch; calls arrive in a
     * deterministic order (the ADMM loop is sequential), so runs stay
     * reproducible.
     */
    std::uint64_t acquireNonce() { return nonce_.fetch_add(1); }

    /**
     * Possibly corrupt one streamed word. Pure in (seed, epoch,
     * stream, index) apart from the statistics counters.
     */
    Real corruptWord(Real value, std::uint64_t stream,
                     std::uint64_t index);

    /** Corrupt a whole vector stream (index = element position). */
    void corruptVector(Vector& v, std::uint64_t stream);

    // --- Statistics ----------------------------------------------------

    Count faultsInjected() const { return faults_.load(); }
    Count bitFlipsInjected() const { return bitFlips_.load(); }
    Count nansInjected() const { return nans_.load(); }
    void resetCounters();

  private:
    std::uint64_t wordHash(std::uint64_t stream,
                           std::uint64_t index) const;

    FaultInjectionConfig config_;
    std::uint64_t epoch_ = 0;
    std::atomic<std::uint64_t> nonce_{0};
    std::atomic<Count> faults_{0};
    std::atomic<Count> bitFlips_{0};
    std::atomic<Count> nans_{0};
};

/**
 * RAII installation of a thread-local "active" injector, used to reach
 * hook points (the software PCG operator stream) without widening
 * every call signature. Passing nullptr is a no-op scope.
 */
class FaultScope
{
  public:
    explicit FaultScope(FaultInjector* injector);
    ~FaultScope();

    FaultScope(const FaultScope&) = delete;
    FaultScope& operator=(const FaultScope&) = delete;

  private:
    FaultInjector* prev_;
};

/** The calling thread's active injector (nullptr if none). */
FaultInjector* activeFaultInjector();

// --- Fleet-level (whole-core) fault injection ------------------------

/** What happens to a solver core when a fleet fault fires. */
enum class FleetFaultKind
{
    KillCore,    ///< core dies mid-stream; in-flight work is lost
    HangCore,    ///< core stalls until the stall watchdog fires
    DegradeCore, ///< core keeps answering, but modeled time inflates
};

/** Printable kind name ("kill", "hang", "degrade"). */
const char* toString(FleetFaultKind kind);

/** Special core index: "whichever core starts the matching job". */
inline constexpr std::size_t kAnyCore = ~static_cast<std::size_t>(0);

/**
 * One scheduled fleet fault. Triggers are expressed in *job starts*
 * (deterministic under a fixed submission order), not wall time, so a
 * chaos run replays identically on any host:
 *
 *  - core == kAnyCore: fires on the first job start once the
 *    fleet-wide start counter reaches `atFleetJob` (guaranteed to hit
 *    as long as the workload is long enough — a quarantined core
 *    never starts jobs, so a later event lands on a surviving core);
 *  - core == i: fires on core i's own `atCoreJob`-th start (targeted
 *    tests that want to kill a specific affinity core).
 */
struct FleetFaultEvent
{
    FleetFaultKind kind = FleetFaultKind::KillCore;
    std::size_t core = kAnyCore;
    Count atFleetJob = 0; ///< fleet-wide start threshold (kAnyCore)
    Count atCoreJob = 0;  ///< per-core start threshold (targeted core)
    /** DegradeCore: modeled-time multiplier for the affected jobs. */
    Real slowdownFactor = 4.0;
    /** DegradeCore: number of consecutive jobs slowed. */
    Count durationJobs = 1;
    /** Readmission probes that fail before the core heals. */
    Count failProbes = 0;
};

/**
 * Seeded whole-core fault injector for the solver fleet: a determinis-
 * tic schedule of kill/hang/degrade events plus the oracle readmission
 * probes consult. Each event fires at most once. All methods are
 * called under the owning service's lock — one injector per service;
 * never share an instance between concurrently running fleets.
 */
class FleetFaultInjector
{
  public:
    /** Empty schedule: never faults (health tracking still runs). */
    FleetFaultInjector() = default;

    explicit FleetFaultInjector(std::vector<FleetFaultEvent> schedule);

    /**
     * The canonical chaos schedule used by bench_chaos and the
     * chaos-smoke CI gate: one KillCore and one HangCore event (each
     * kAnyCore, so both are guaranteed to land on live cores), with
     * seeded trigger points inside [1, horizon_jobs) and one failed
     * readmission probe on the kill to exercise the backoff ladder.
     */
    static std::vector<FleetFaultEvent>
    standardSchedule(std::uint64_t seed, Count horizon_jobs);

    bool enabled() const { return !schedule_.empty(); }
    std::vector<FleetFaultEvent> schedule() const
    {
        std::vector<FleetFaultEvent> events;
        events.reserve(schedule_.size());
        for (const Scheduled& entry : schedule_)
            events.push_back(entry.event);
        return events;
    }

    /**
     * The fault (if any) firing as `core` starts a job, given its own
     * start count and the fleet-wide start count (both *before* this
     * job). Marks the event delivered and remembers it as the core's
     * latest fault so probeSucceeds can consult its failProbes.
     */
    const FleetFaultEvent* onJobStart(std::size_t core,
                                      Count core_jobs_started,
                                      Count fleet_jobs_started);

    /**
     * Whether readmission probe number `probe_index` (0-based within
     * the current quarantine) of `core` finds the core healthy again.
     * Cores with no recorded fault always probe healthy.
     */
    bool probeSucceeds(std::size_t core, Count probe_index) const;

    Count killsDelivered() const { return kills_; }
    Count hangsDelivered() const { return hangs_; }
    Count degradesDelivered() const { return degrades_; }

  private:
    struct Scheduled
    {
        FleetFaultEvent event;
        bool delivered = false;
    };

    std::vector<Scheduled> schedule_;
    /** core -> failProbes of the latest fault delivered to it. */
    std::unordered_map<std::size_t, Count> probeGates_;
    Count kills_ = 0;
    Count hangs_ = 0;
    Count degrades_ = 0;
};

/**
 * Stream tags naming each injection site. Distinct tags decorrelate
 * the fault patterns of different hardware structures under one seed;
 * hook sites may add a per-call offset (e.g. the PCG iteration) so a
 * word position is not deterministically faulty across calls.
 */
namespace fault_streams
{
constexpr std::uint64_t kHbmLoad = 0x48424d4cULL;    ///< 'HBML'
constexpr std::uint64_t kHbmStore = 0x48424d53ULL;   ///< 'HBMS'
constexpr std::uint64_t kSpmvValues = 0x53505656ULL; ///< 'SPVV' matrix stream
constexpr std::uint64_t kMacOutput = 0x4d414343ULL;  ///< 'MACC' accumulation
constexpr std::uint64_t kPcgOperator = 0x50434f50ULL; ///< 'PCOP' software K·p
constexpr std::uint64_t kPdhgOperator = 0x50444f50ULL; ///< 'PDOP' PDHG A·x̄
} // namespace fault_streams

} // namespace rsqp

#endif // RSQP_COMMON_FAULT_INJECTION_HPP
