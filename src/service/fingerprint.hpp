/**
 * @file
 * Structure fingerprints: canonical, value-blind hashes of a QP's
 * sparsity pattern (and of the customization knobs that shape the
 * generated architecture).
 *
 * Two problems with identical dimensions and identical P/A sparsity
 * structures produce identical fingerprints regardless of their
 * numeric values — the equivalence classes over which one frozen
 * CustomizationArtifact (MAC structures, schedules, CVB layouts) is
 * exactly reusable. The digest is 128 bits (two independently mixed
 * 64-bit lanes) plus the raw dimensions and non-zero counts, so an
 * accidental collision additionally requires matching shapes.
 */

#ifndef RSQP_SERVICE_FINGERPRINT_HPP
#define RSQP_SERVICE_FINGERPRINT_HPP

#include <cstdint>
#include <string>

#include "common/types.hpp"

namespace rsqp
{

struct QpProblem;
struct CustomizeSettings;

/** Canonical identity of one sparsity structure (+ design knobs). */
struct StructureFingerprint
{
    std::uint64_t hi = 0;  ///< first hash lane
    std::uint64_t lo = 0;  ///< second (independent) hash lane
    Index n = 0;           ///< variables
    Index m = 0;           ///< constraints
    Count pNnz = 0;        ///< nnz of P (upper triangle)
    Count aNnz = 0;        ///< nnz of A
    /**
     * False when the customization depends on state the fingerprint
     * cannot capture (a user-supplied search objective closure); such
     * customizations must never be cached.
     */
    bool cacheable = true;

    bool
    operator==(const StructureFingerprint& other) const
    {
        return hi == other.hi && lo == other.lo && n == other.n &&
            m == other.m && pNnz == other.pNnz && aNnz == other.aNnz;
    }

    /** 32-hex-digit digest, e.g. for log lines and JSON reports. */
    std::string toHex() const;
};

/** Hash functor for unordered containers keyed by fingerprint. */
struct StructureFingerprintHash
{
    std::size_t
    operator()(const StructureFingerprint& fp) const
    {
        return static_cast<std::size_t>(fp.hi ^ (fp.lo >> 1));
    }
};

/**
 * Fingerprint the sparsity structure alone: dimensions plus the
 * colPtr/rowIdx arrays of P (upper CSC) and A. Value-blind.
 */
StructureFingerprint fingerprintStructure(const QpProblem& problem);

/**
 * Fingerprint the structure *and* the customization knobs that change
 * the generated architecture (c, E_p/E_c switches, FP32 datapath,
 * forced patterns, search budgets) — the key of the customization
 * cache. The per-instance fault-injection knob is deliberately
 * excluded: it does not alter the frozen artifact.
 */
StructureFingerprint
fingerprintCustomization(const QpProblem& problem,
                         const CustomizeSettings& settings);

} // namespace rsqp

#endif // RSQP_SERVICE_FINGERPRINT_HPP
