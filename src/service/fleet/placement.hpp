/**
 * @file
 * Placement scheduler of the multi-core device fleet: which solver
 * core gets the next ready session.
 *
 * The real deployment packs 16-56 solver cores per FPGA; which core a
 * job lands on decides whether the per-structure customization
 * artifact is already resident. Placement is therefore affinity only:
 * a structure fingerprint maps to a *stable* preferred core — a pure
 * function of the fingerprint, so identical structures route
 * identically across service restarts — and spills to the least-loaded
 * core only when the preferred core's queue exceeds its bound (hot
 * structure, saturated core: better a cold customization than an idle
 * fleet) or when the structure can have no hot artifact at all.
 */

#ifndef RSQP_SERVICE_FLEET_PLACEMENT_HPP
#define RSQP_SERVICE_FLEET_PLACEMENT_HPP

#include <cstddef>
#include <vector>

#include "service/fingerprint.hpp"

namespace rsqp
{

/** Load summary of one core, as seen by the placement decision. */
struct CoreLoad
{
    std::size_t queuedSessions = 0; ///< ready sessions waiting
    unsigned runningStreams = 0;    ///< instruction streams in flight
    /** Quarantined cores are unavailable: placement never picks them.
     *  (When *no* core is available the caller must hold the work
     *  back; place() then falls back to the affinity target so its
     *  return value stays total.) */
    bool available = true;
};

/**
 * The placement decision. Pure: the same (fingerprint, loads) always
 * yields the same core, which the determinism tests — and
 * restart-stable affinity — rely on.
 */
class PlacementScheduler
{
  public:
    PlacementScheduler(std::size_t core_count,
                       std::size_t affinity_queue_bound);

    /** Pick the core for a session whose head job has fingerprint
     *  `fp`, given the current per-core loads (size == coreCount). */
    std::size_t place(const StructureFingerprint& fp,
                      const std::vector<CoreLoad>& loads) const;

    /**
     * The affinity target: a pure function of the fingerprint digest,
     * identical across processes and restarts. Non-cacheable
     * fingerprints have no artifact to be hot and get no preference.
     */
    static std::size_t preferredCore(const StructureFingerprint& fp,
                                     std::size_t core_count);

    /**
     * The affinity target restricted to an explicit candidate set —
     * the deterministic *re-spill* used when the preferred core is
     * quarantined: the same fingerprint maps to the same failover
     * core for as long as the survivor set is the same, so a hot
     * structure's traffic re-warms one partition instead of smearing
     * across the fleet. `candidates` must be non-empty and sorted
     * ascending (the order the fleet naturally produces).
     */
    static std::size_t
    preferredAmong(const StructureFingerprint& fp,
                   const std::vector<std::size_t>& candidates);

  private:
    /** The affinity spill: lowest-index available core among those
     *  with minimal queued + running load. */
    static std::size_t leastLoaded(const std::vector<CoreLoad>& loads);

    std::size_t coreCount_;
    std::size_t bound_;
};

} // namespace rsqp

#endif // RSQP_SERVICE_FLEET_PLACEMENT_HPP
