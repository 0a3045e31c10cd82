#include "customization.hpp"

#include <algorithm>

#include "common/logging.hpp"
#include "encoding/match_score.hpp"
#include "hwmodel/resources.hpp"

namespace rsqp
{

Real
MatrixArtifacts::eta() const
{
    return matchScore(schedule.nnz, static_cast<Count>(csr.cols()),
                      schedule.ep, std::max(Real(1.0), plan.ec()));
}

Count
ProblemCustomization::totalEp() const
{
    return p.schedule.ep + a.schedule.ep + at.schedule.ep;
}

Real
ProblemCustomization::eta() const
{
    const MatrixArtifacts* mats[] = {&p, &a, &at};
    Count nnz = 0, length = 0;
    Real real_cost = 0.0;
    for (const MatrixArtifacts* m : mats) {
        nnz += m->schedule.nnz;
        length += m->csr.cols();
        real_cost += static_cast<Real>(m->schedule.nnz) +
            static_cast<Real>(m->schedule.ep) +
            std::max(Real(1.0), m->plan.ec()) *
                static_cast<Real>(m->csr.cols());
    }
    return static_cast<Real>(nnz + length) / real_cost;
}

Count
ProblemCustomization::kApplyPacks() const
{
    return p.packed.packCount() + a.packed.packCount() +
        at.packed.packCount();
}

namespace
{

MatrixArtifacts
buildArtifacts(std::string name, CsrMatrix csr, const StructureSet& set,
               bool compress_cvb)
{
    MatrixArtifacts artifacts;
    artifacts.name = std::move(name);
    artifacts.csr = std::move(csr);
    artifacts.str = encodeMatrix(artifacts.csr, set.c());
    artifacts.schedule = scheduleString(artifacts.str, set);
    artifacts.packed = packMatrix(artifacts.csr, artifacts.str,
                                  artifacts.schedule, set);
    if (compress_cvb) {
        const AccessRequirements req =
            buildAccessRequirements(artifacts.packed);
        artifacts.plan = compressFirstFit(req);
    } else {
        artifacts.plan = fullDuplicationPlan(set.c(),
                                             artifacts.csr.cols());
    }
    return artifacts;
}

/** Copy of a CSR matrix with element-wise squared values. */
CsrMatrix
squaredValues(const CsrMatrix& matrix)
{
    CsrMatrix result = matrix;
    for (Real& v : result.values())
        v *= v;
    return result;
}

} // namespace

ProblemCustomization
customizeProblem(const QpProblem& scaled, const CustomizeSettings& settings)
{
    RSQP_ASSERT(isPow2(settings.c) && settings.c <= 64,
                "datapath width must be a power of two <= 64");

    const CsrMatrix p_csr =
        CsrMatrix::fromCsc(scaled.pUpper.symUpperToFull());
    const CsrMatrix a_csr = CsrMatrix::fromCsc(scaled.a);
    const CsrMatrix at_csr = CsrMatrix::fromCsc(scaled.a.transpose());

    // Choose the structure set.
    StructureSet set = StructureSet::baseline(settings.c);
    if (!settings.forcedPatterns.empty()) {
        set = StructureSet(settings.c, settings.forcedPatterns);
    } else if (settings.customizeStructures) {
        const SparsityString p_str = encodeMatrix(p_csr, settings.c);
        const SparsityString a_str = encodeMatrix(a_csr, settings.c);
        const SparsityString at_str = encodeMatrix(at_csr, settings.c);
        StructureSearchSettings search = settings.search;
        const bool default_objective = !search.objective;
        if (default_objective) {
            // Time-aware objective: minimize slots / fmax(S). A set
            // with many tree outputs schedules in fewer cycles but
            // clocks slower (the Table 3 trade-off); end-to-end time
            // is what the customization must win.
            const Index width = settings.c;
            search.objective = [width](const StructureSet& candidate,
                                       Count slots) -> Real {
                ArchConfig probe;
                probe.c = width;
                probe.structures = candidate;
                return static_cast<Real>(slots) /
                    estimateFmaxMhz(probe);
            };
        }
        const auto result =
            searchStructureSet({&p_str, &a_str, &at_str}, search);
        set = result.set;

        // Final guard (default objective only): the search scores SpMV
        // slots/fmax, but an fmax penalty taxes *every* cycle (vector
        // engine, duplication, control) while structure gains only
        // shrink the SpMV share. Estimate the per-K-application time
        // including that fixed overhead and fall back to the baseline
        // tree if it wins.
        const Index n = scaled.numVariables();
        const Index m = scaled.numConstraints();
        const Count overhead =
            (8 * n + 6 * m) / settings.c + 600;  // vec ops + latencies
        auto estimate_time = [&](const StructureSet& candidate) {
            Count slots = 0;
            for (const SparsityString* str :
                 {&p_str, &a_str, &at_str})
                slots += scheduleString(*str, candidate).slotCount();
            ArchConfig probe;
            probe.c = settings.c;
            probe.structures = candidate;
            return static_cast<Real>(slots + overhead) /
                estimateFmaxMhz(probe);
        };
        const StructureSet baseline = StructureSet::baseline(settings.c);
        if (default_objective &&
            estimate_time(baseline) <= estimate_time(set))
            set = baseline;
    }

    ProblemCustomization customization;
    customization.config.c = settings.c;
    customization.config.structures = set;
    customization.config.compressedCvb = settings.compressCvb;
    customization.config.fp32Datapath = settings.fp32Datapath;
    customization.config.faultInjection = settings.faultInjection;

    customization.p =
        buildArtifacts("P", p_csr, set, settings.compressCvb);
    customization.a =
        buildArtifacts("A", a_csr, set, settings.compressCvb);
    customization.at =
        buildArtifacts("At", at_csr, set, settings.compressCvb);
    // A'^2 shares the sparsity structure (and therefore the schedule
    // and CVB plan shape) with A'; only the values differ.
    customization.atSq = buildArtifacts("AtSq", squaredValues(at_csr),
                                        set, settings.compressCvb);
    return customization;
}

namespace
{

/** Frozen half of one MatrixArtifacts (drops CSR values + stream). */
FrozenMatrixArtifact
freezeArtifacts(const MatrixArtifacts& artifacts)
{
    FrozenMatrixArtifact frozen;
    frozen.name = artifacts.name;
    frozen.str = artifacts.str;
    frozen.schedule = artifacts.schedule;
    frozen.plan = artifacts.plan;
    return frozen;
}

/**
 * Rebuild full MatrixArtifacts from a frozen artifact and fresh CSR
 * values: identical to buildArtifacts() except that the string, the
 * schedule and the CVB plan are taken as given instead of recomputed.
 */
MatrixArtifacts
thawArtifacts(CsrMatrix csr, const FrozenMatrixArtifact& frozen,
              const StructureSet& set)
{
    MatrixArtifacts artifacts;
    artifacts.name = frozen.name;
    artifacts.csr = std::move(csr);
    artifacts.str = frozen.str;
    artifacts.schedule = frozen.schedule;
    artifacts.packed = packMatrix(artifacts.csr, artifacts.str,
                                  artifacts.schedule, set);
    artifacts.plan = frozen.plan;
    return artifacts;
}

Count
frozenBytes(const FrozenMatrixArtifact& frozen)
{
    Count bytes = static_cast<Count>(frozen.str.encoded.size()) +
        static_cast<Count>(frozen.str.rowOfPos.size() +
                           frozen.str.nnzOfPos.size() +
                           frozen.plan.address.size()) *
            static_cast<Count>(sizeof(Index));
    for (const SlotAssignment& slot : frozen.schedule.slots)
        bytes += static_cast<Count>(sizeof(SlotAssignment)) +
            static_cast<Count>(slot.positions.size()) *
                static_cast<Count>(sizeof(Index));
    for (const IndexVector& bank : frozen.plan.bankContents)
        bytes += static_cast<Count>(bank.size()) *
            static_cast<Count>(sizeof(Index));
    return bytes;
}

} // namespace

Count
CustomizationArtifact::footprintBytes() const
{
    return static_cast<Count>(sizeof(CustomizationArtifact)) +
        frozenBytes(p) + frozenBytes(a) + frozenBytes(at) +
        frozenBytes(atSq);
}

bool
CustomizationArtifact::compatibleWith(
    const QpProblem& scaled, const CustomizeSettings& settings) const
{
    if (config.c != settings.c ||
        config.compressedCvb != settings.compressCvb ||
        config.fp32Datapath != settings.fp32Datapath)
        return false;
    const Index n = scaled.numVariables();
    const Index m = scaled.numConstraints();
    // The CVB plan length is the multiplicand-vector length of each
    // scheduled matrix: x for P and A, the m-vector for A'.
    if (p.plan.length != n || a.plan.length != n ||
        at.plan.length != m || atSq.plan.length != m)
        return false;
    // nnz of the full symmetric expansion of P: every off-diagonal
    // upper entry mirrors once.
    Count p_offdiag = 0;
    const auto& col_ptr = scaled.pUpper.colPtr();
    const auto& row_idx = scaled.pUpper.rowIdx();
    for (Index c = 0; c < n; ++c)
        for (Index k = col_ptr[static_cast<std::size_t>(c)];
             k < col_ptr[static_cast<std::size_t>(c) + 1]; ++k)
            if (row_idx[static_cast<std::size_t>(k)] != c)
                ++p_offdiag;
    const Count p_full_nnz = scaled.pUpper.nnz() + p_offdiag;
    return p.schedule.nnz == p_full_nnz &&
        a.schedule.nnz == scaled.a.nnz() &&
        at.schedule.nnz == scaled.a.nnz();
}

CustomizationArtifact
freezeCustomization(const ProblemCustomization& custom)
{
    CustomizationArtifact artifact;
    artifact.config = custom.config;
    artifact.p = freezeArtifacts(custom.p);
    artifact.a = freezeArtifacts(custom.a);
    artifact.at = freezeArtifacts(custom.at);
    artifact.atSq = freezeArtifacts(custom.atSq);
    return artifact;
}

ProblemCustomization
thawCustomization(const QpProblem& scaled,
                  const CustomizationArtifact& artifact,
                  const CustomizeSettings& settings)
{
    RSQP_ASSERT(artifact.compatibleWith(scaled, settings),
                "thawCustomization: artifact/problem mismatch");
    ProblemCustomization customization;
    customization.config = artifact.config;
    customization.config.faultInjection = settings.faultInjection;

    const StructureSet& set = customization.config.structures;
    const CsrMatrix at_csr = CsrMatrix::fromCsc(scaled.a.transpose());
    customization.p = thawArtifacts(
        CsrMatrix::fromCsc(scaled.pUpper.symUpperToFull()), artifact.p,
        set);
    customization.a =
        thawArtifacts(CsrMatrix::fromCsc(scaled.a), artifact.a, set);
    customization.at = thawArtifacts(at_csr, artifact.at, set);
    customization.atSq =
        thawArtifacts(squaredValues(at_csr), artifact.atSq, set);
    return customization;
}

ProblemCustomization
baselineCustomization(const QpProblem& scaled, Index c)
{
    CustomizeSettings settings;
    settings.c = c;
    settings.customizeStructures = false;
    settings.compressCvb = false;
    return customizeProblem(scaled, settings);
}

} // namespace rsqp
