#include "service/fleet/placement.hpp"

namespace rsqp
{

PlacementScheduler::PlacementScheduler(std::size_t core_count,
                                       std::size_t affinity_queue_bound)
    : coreCount_(core_count == 0 ? 1 : core_count),
      bound_(affinity_queue_bound)
{
}

std::size_t
PlacementScheduler::preferredCore(const StructureFingerprint& fp,
                                  std::size_t core_count)
{
    if (core_count <= 1)
        return 0;
    // Final avalanche over both digest lanes: the modulo must not
    // expose lane structure, or neighboring structures would pile
    // onto neighboring cores.
    std::uint64_t mixed = fp.hi ^ (fp.lo + 0x9e3779b97f4a7c15ULL +
                                   (fp.hi << 6) + (fp.hi >> 2));
    mixed ^= mixed >> 33;
    mixed *= 0xff51afd7ed558ccdULL;
    mixed ^= mixed >> 33;
    return static_cast<std::size_t>(mixed % core_count);
}

std::size_t
PlacementScheduler::preferredAmong(
    const StructureFingerprint& fp,
    const std::vector<std::size_t>& candidates)
{
    if (candidates.size() <= 1)
        return candidates.empty() ? 0 : candidates.front();
    // Re-run the full avalanche over the candidate count rather than
    // re-ranking the original target: the failover core must be as
    // uniformly distributed over the survivors as the primary target
    // is over the whole fleet.
    return candidates[preferredCore(fp, candidates.size())];
}

std::size_t
PlacementScheduler::leastLoaded(const std::vector<CoreLoad>& loads)
{
    std::size_t best = 0;
    std::size_t bestLoad = ~static_cast<std::size_t>(0);
    for (std::size_t core = 0; core < loads.size(); ++core) {
        if (!loads[core].available)
            continue;
        const std::size_t load =
            loads[core].queuedSessions + loads[core].runningStreams;
        // Strict comparison: ties resolve to the lowest index.
        if (load < bestLoad) {
            bestLoad = load;
            best = core;
        }
    }
    return best;
}

std::size_t
PlacementScheduler::place(const StructureFingerprint& fp,
                          const std::vector<CoreLoad>& loads) const
{
    if (coreCount_ <= 1 || loads.size() <= 1)
        return 0;
    std::vector<std::size_t> available;
    available.reserve(loads.size());
    for (std::size_t core = 0; core < loads.size(); ++core)
        if (loads[core].available)
            available.push_back(core);
    // Nothing dispatchable: keep the return total with the affinity
    // target; callers park the work until a readmission probe lands.
    if (available.empty())
        return preferredCore(fp, coreCount_);

    if (!fp.cacheable)  // no artifact can ever be hot for it
        return leastLoaded(loads);
    const std::size_t preferred = preferredCore(fp, coreCount_);
    if (!loads[preferred].available)
        // Deterministic re-spill (see preferredAmong): the same
        // structure keeps landing on the same failover core while its
        // home core sits in quarantine.
        return preferredAmong(fp, available);
    if (loads[preferred].queuedSessions > bound_)
        return leastLoaded(loads);
    return preferred;
}

} // namespace rsqp
