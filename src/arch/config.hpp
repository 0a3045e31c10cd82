/**
 * @file
 * Static configuration of a generated RSQP architecture instance:
 * datapath width C, the MAC structure set S, the CVB mode and the
 * micro-architectural latency constants of the cycle model.
 */

#ifndef RSQP_ARCH_CONFIG_HPP
#define RSQP_ARCH_CONFIG_HPP

#include <string>

#include "common/fault_injection.hpp"
#include "common/types.hpp"
#include "encoding/mac_structure.hpp"

namespace rsqp
{

/** Pipeline/latency constants of the cycle model (in clock cycles). */
struct ArchTimings
{
    Index decodeOverhead = 4;   ///< fetch/decode per instruction
    Index controlLatency = 2;   ///< branch resolution
    Index scalarLatency = 6;    ///< scalar FP op latency
    Index vectorLatency = 24;   ///< vector-engine pipeline fill
    Index dotExtraLatency = 32; ///< reduction drain of dot/amax
    Index spmvLatency = 64;     ///< SpMV pipeline fill + alignment drain
    Index dupLatency = 16;      ///< duplication-control startup
    Index hbmLatency = 128;     ///< HBM first-word latency
};

/** One generated accelerator configuration. */
struct ArchConfig
{
    /** Datapath width C (power of two, <= 64 in this implementation). */
    Index c = 16;
    /** MAC tree structure set S. */
    StructureSet structures = StructureSet::baseline(16);
    /** Compressed (customized) CVB, or baseline full duplication. */
    bool compressedCvb = true;
    /** Evaluate the datapath in FP32 like the physical MAC trees. */
    bool fp32Datapath = false;
    /** Cycle-model constants. */
    ArchTimings timings;
    /**
     * Seeded soft-error injection into the simulated HBM streams and
     * MAC-tree outputs (fault-tolerance testing only; off by default).
     * Fault positions are a pure function of (seed, run, stream,
     * word), so an injected run is reproducible.
     */
    FaultInjectionConfig faultInjection;

    /** "C{...}" plus a CVB tag, e.g. "16{16a1e}+cvb". */
    std::string
    name() const
    {
        return structures.name() + (compressedCvb ? "+cvb" : "+dup");
    }

    /** The paper's generic baseline design at width c. */
    static ArchConfig
    baseline(Index c_width)
    {
        ArchConfig config;
        config.c = c_width;
        config.structures = StructureSet::baseline(c_width);
        config.compressedCvb = false;
        return config;
    }
};

} // namespace rsqp

#endif // RSQP_ARCH_CONFIG_HPP
