#include "fingerprint.hpp"

#include <sstream>

#include "core/customization.hpp"
#include "osqp/problem.hpp"

namespace rsqp
{

namespace
{

/** splitmix64 finalizer — the word mixer of both hash lanes. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

/**
 * Two-lane streaming hash: each absorbed word perturbs both lanes
 * through independent mixes, so a collision needs to fool 128 bits.
 */
class Digest
{
  public:
    void
    word(std::uint64_t w)
    {
        hi_ = mix64(hi_ ^ w);
        lo_ = mix64(lo_ + (w ^ 0xa5a5a5a5a5a5a5a5ull)) ^ (lo_ >> 3);
    }

    void
    indices(const IndexVector& values)
    {
        word(static_cast<std::uint64_t>(values.size()));
        for (Index v : values)
            word(static_cast<std::uint64_t>(
                static_cast<std::int64_t>(v)));
    }

    void
    text(const std::string& s)
    {
        word(static_cast<std::uint64_t>(s.size()));
        std::uint64_t acc = 0;
        int shift = 0;
        for (char ch : s) {
            acc |= static_cast<std::uint64_t>(
                       static_cast<unsigned char>(ch))
                << shift;
            shift += 8;
            if (shift == 64) {
                word(acc);
                acc = 0;
                shift = 0;
            }
        }
        if (shift != 0)
            word(acc);
    }

    std::uint64_t hi() const { return hi_; }
    std::uint64_t lo() const { return lo_; }

  private:
    std::uint64_t hi_ = 0x243f6a8885a308d3ull;  ///< pi fraction bits
    std::uint64_t lo_ = 0x13198a2e03707344ull;
};

/** Absorb the value-blind identity of one CSC matrix. */
void
absorbStructure(Digest& digest, const CscMatrix& matrix)
{
    digest.word(static_cast<std::uint64_t>(matrix.rows()));
    digest.word(static_cast<std::uint64_t>(matrix.cols()));
    digest.indices(matrix.colPtr());
    digest.indices(matrix.rowIdx());
}

} // namespace

std::string
StructureFingerprint::toHex() const
{
    std::ostringstream os;
    os << std::hex;
    os.width(16);
    os.fill('0');
    os << hi;
    os.width(16);
    os << lo;
    return os.str();
}

StructureFingerprint
fingerprintStructure(const QpProblem& problem)
{
    Digest digest;
    absorbStructure(digest, problem.pUpper);
    absorbStructure(digest, problem.a);

    StructureFingerprint fp;
    fp.hi = digest.hi();
    fp.lo = digest.lo();
    fp.n = problem.numVariables();
    fp.m = problem.numConstraints();
    fp.pNnz = problem.pUpper.nnz();
    fp.aNnz = problem.a.nnz();
    return fp;
}

StructureFingerprint
fingerprintCustomization(const QpProblem& problem,
                         const CustomizeSettings& settings)
{
    Digest digest;
    absorbStructure(digest, problem.pUpper);
    absorbStructure(digest, problem.a);

    // Design knobs that change the frozen artifact. faultInjection is
    // a per-instance host concern, overridden at thaw time, so it
    // stays out of the key.
    digest.word(static_cast<std::uint64_t>(settings.c));
    digest.word((settings.customizeStructures ? 1u : 0u) |
                (settings.compressCvb ? 2u : 0u) |
                (settings.fp32Datapath ? 4u : 0u));
    digest.word(static_cast<std::uint64_t>(settings.search.targetSize));
    digest.word(
        static_cast<std::uint64_t>(settings.search.maxCandidates));
    digest.word(
        static_cast<std::uint64_t>(settings.search.evalSampleLength));
    digest.word(
        static_cast<std::uint64_t>(settings.forcedPatterns.size()));
    for (const std::string& pattern : settings.forcedPatterns)
        digest.text(pattern);

    StructureFingerprint fp;
    fp.hi = digest.hi();
    fp.lo = digest.lo();
    fp.n = problem.numVariables();
    fp.m = problem.numConstraints();
    fp.pNnz = problem.pUpper.nnz();
    fp.aNnz = problem.a.nnz();
    // A user-supplied objective closure is opaque to the hash: two
    // settings with different closures would collide, so artifacts
    // built under one must never be served for the other.
    fp.cacheable = settings.search.objective == nullptr;
    return fp;
}

} // namespace rsqp
