/**
 * @file
 * SpMV engine tests on the simulated machine: functional equivalence
 * with CSR SpMV across structure sets, CVB plans (compressed vs full
 * duplication), FP32 datapath mode, and the cycle model (packs +
 * latency; duplication = max(depth, L/C)).
 */

#include <gtest/gtest.h>

#include "arch/machine.hpp"
#include "arch/program_builder.hpp"
#include "core/customization.hpp"
#include "linalg/vector_ops.hpp"
#include "problems/generators.hpp"
#include "problems/suite.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

using test::randomSparse;
using test::randomVector;

struct SpmvSetup
{
    ArchConfig config;
    PackedMatrix packed;
    CvbPlan plan;
};

SpmvSetup
prepare(const CsrMatrix& csr, Index c,
        const std::vector<std::string>& patterns, bool compress)
{
    SpmvSetup setup;
    setup.config.c = c;
    setup.config.structures = StructureSet(c, patterns);
    setup.config.compressedCvb = compress;
    const SparsityString str = encodeMatrix(csr, c);
    const Schedule schedule =
        scheduleString(str, setup.config.structures);
    setup.packed =
        packMatrix(csr, str, schedule, setup.config.structures);
    if (compress)
        setup.plan =
            compressFirstFit(buildAccessRequirements(setup.packed));
    else
        setup.plan = fullDuplicationPlan(c, csr.cols());
    return setup;
}

/** Run one SpMV on the machine and return the result vector. */
Vector
runSpmv(const SpmvSetup& setup, const Vector& x, MachineStats* stats)
{
    Machine machine(setup.config);
    const Index mat =
        machine.addMatrix(setup.packed, setup.plan, "M");
    const Index v_in =
        machine.addVector(static_cast<Index>(x.size()));
    const Index v_out = machine.addVector(setup.packed.rows);
    const Index hbm_in = machine.addHbmVector(x);

    ProgramBuilder asmb;
    asmb.loadVec(v_in, hbm_in);
    asmb.vecDup(mat, v_in);
    asmb.spmv(v_out, mat);
    asmb.halt();
    machine.run(asmb.finish());
    if (stats != nullptr)
        *stats = machine.stats();
    return machine.vectorValue(v_out);
}

TEST(SpmvEngine, BaselineMatchesCsr)
{
    Rng rng(1);
    const CsrMatrix csr =
        CsrMatrix::fromCsc(randomSparse(25, 18, 0.25, rng));
    const Vector x = randomVector(18, rng);
    const SpmvSetup setup = prepare(csr, 8, {}, false);
    const Vector y = runSpmv(setup, x, nullptr);
    Vector y_ref;
    csr.spmv(x, y_ref);
    EXPECT_LT(test::maxAbsDiff(y, y_ref), 1e-12);
}

TEST(SpmvEngine, CompressedCvbGivesSameResult)
{
    Rng rng(2);
    const CsrMatrix csr =
        CsrMatrix::fromCsc(randomSparse(30, 30, 0.15, rng));
    const Vector x = randomVector(30, rng);
    const Vector y_full =
        runSpmv(prepare(csr, 16, {"bbbbbbbb"}, false), x, nullptr);
    const Vector y_compressed =
        runSpmv(prepare(csr, 16, {"bbbbbbbb"}, true), x, nullptr);
    EXPECT_LT(test::maxAbsDiff(y_full, y_compressed), 1e-13);
}

TEST(SpmvEngine, CycleCountIsPacksPlusLatency)
{
    Rng rng(3);
    const CsrMatrix csr =
        CsrMatrix::fromCsc(randomSparse(40, 20, 0.2, rng));
    const Vector x = randomVector(20, rng);
    const SpmvSetup setup = prepare(csr, 8, {}, false);
    MachineStats stats;
    runSpmv(setup, x, &stats);
    const Count expected = setup.packed.packCount() +
        setup.config.timings.spmvLatency +
        setup.config.timings.decodeOverhead;
    EXPECT_EQ(stats.cyclesOf(InstrClass::SpMV), expected);
    EXPECT_EQ(stats.spmvPacks, setup.packed.packCount());
}

TEST(SpmvEngine, DuplicationCyclesFollowPlan)
{
    Rng rng(4);
    const CsrMatrix csr =
        CsrMatrix::fromCsc(randomSparse(30, 64, 0.1, rng));
    const Vector x = randomVector(64, rng);

    // Full duplication: update takes L cycles (E_c = C).
    MachineStats full_stats;
    const SpmvSetup full = prepare(csr, 8, {}, false);
    runSpmv(full, x, &full_stats);
    EXPECT_EQ(full_stats.cyclesOf(InstrClass::VectorDup),
              64 + full.config.timings.dupLatency +
                  full.config.timings.decodeOverhead);

    // Compressed: update takes max(depth, L/C) cycles.
    MachineStats comp_stats;
    const SpmvSetup comp = prepare(csr, 8, {}, true);
    runSpmv(comp, x, &comp_stats);
    EXPECT_EQ(comp_stats.cyclesOf(InstrClass::VectorDup),
              comp.plan.updateCycles() +
                  comp.config.timings.dupLatency +
                  comp.config.timings.decodeOverhead);
    EXPECT_LE(comp.plan.updateCycles(), 64);
}

TEST(SpmvEngine, CustomizationReducesSpmvCycles)
{
    // Many tiny rows: the baseline wastes a cycle per row; a dedicated
    // "aaaa..." structure packs C of them per cycle.
    TripletList triplets(256, 64);
    Rng rng(5);
    for (Index r = 0; r < 256; ++r)
        triplets.add(r, rng.uniformIndex(64), rng.normal());
    const CsrMatrix csr =
        CsrMatrix::fromCsc(CscMatrix::fromTriplets(triplets));
    const Vector x = randomVector(64, rng);

    MachineStats base_stats, custom_stats;
    const Vector y_base =
        runSpmv(prepare(csr, 16, {}, false), x, &base_stats);
    const Vector y_custom = runSpmv(
        prepare(csr, 16, {"aaaaaaaaaaaaaaaa"}, true), x, &custom_stats);
    EXPECT_LT(test::maxAbsDiff(y_base, y_custom), 1e-12);
    // 256 packs baseline vs ~16 customized.
    EXPECT_LT(custom_stats.spmvPacks * 8, base_stats.spmvPacks);
}

TEST(SpmvEngine, Fp32DatapathApproximatesFp64)
{
    Rng rng(6);
    const CsrMatrix csr =
        CsrMatrix::fromCsc(randomSparse(20, 20, 0.3, rng));
    const Vector x = randomVector(20, rng);
    SpmvSetup setup = prepare(csr, 8, {}, false);
    setup.config.fp32Datapath = true;
    const Vector y32 = runSpmv(setup, x, nullptr);
    Vector y_ref;
    csr.spmv(x, y_ref);
    // FP32 accumulation: agree to single precision only.
    EXPECT_LT(test::maxAbsDiff(y32, y_ref), 1e-4);
    EXPECT_GT(test::maxAbsDiff(y32, y_ref), 0.0);  // genuinely float
}

TEST(SpmvEngine, LeadingAccumulateSegmentIsNotDropped)
{
    // A hand-built stream that *opens* with an accumulate segment (a
    // carry into nothing, executed with carry = 0): the lane-stream
    // walk must still execute it instead of dropping the leading rows.
    const Index c = 4;
    PackedMatrix packed;
    packed.c = c;
    packed.rows = 2;
    packed.cols = 4;
    packed.nnz = 8;

    LanePack pack0;
    pack0.values = {1.0, 2.0, 3.0, 4.0};
    pack0.colIdx = {0, 1, 2, 3};
    pack0.segments.push_back(
        {/*row=*/0, /*laneBegin=*/0, /*laneEnd=*/4,
         /*accumulate=*/true, /*emit=*/true});
    LanePack pack1;
    pack1.values = {5.0, 6.0, 7.0, 8.0};
    pack1.colIdx = {0, 1, 2, 3};
    pack1.segments.push_back(
        {/*row=*/1, /*laneBegin=*/0, /*laneEnd=*/4,
         /*accumulate=*/false, /*emit=*/true});
    packed.packs = {pack0, pack1};

    ArchConfig config;
    config.c = c;
    config.structures = StructureSet::baseline(c);
    Machine machine(config);
    const Index mat = machine.addMatrix(
        packed, fullDuplicationPlan(c, packed.cols), "leading-acc");
    const Index v_in = machine.addVector(4);
    const Index v_out = machine.addVector(2);
    const Index hbm_in =
        machine.addHbmVector({1.0, 1.0, 1.0, 1.0});

    ProgramBuilder asmb;
    asmb.loadVec(v_in, hbm_in);
    asmb.vecDup(mat, v_in);
    asmb.spmv(v_out, mat);
    asmb.halt();
    machine.run(asmb.finish());

    EXPECT_DOUBLE_EQ(machine.vectorValue(v_out)[0], 10.0);
    EXPECT_DOUBLE_EQ(machine.vectorValue(v_out)[1], 26.0);
}

TEST(SpmvEngine, SpmvBeforeDupPanics)
{
    Rng rng(7);
    const CsrMatrix csr =
        CsrMatrix::fromCsc(randomSparse(5, 5, 0.5, rng));
    const SpmvSetup setup = prepare(csr, 4, {}, false);
    Machine machine(setup.config);
    const Index mat = machine.addMatrix(setup.packed, setup.plan, "M");
    const Index v_out = machine.addVector(5);
    ProgramBuilder asmb;
    asmb.spmv(v_out, mat);
    asmb.halt();
    const Program program = asmb.finish();
    EXPECT_DEATH(machine.run(program), "VecDup");
}

/** Property sweep: machine SpMV == CSR SpMV for benchmark matrices
 *  under searched structure sets and compressed CVBs. */
class SpmvEngineProperty
    : public ::testing::TestWithParam<std::tuple<Domain, Index>>
{};

TEST_P(SpmvEngineProperty, BenchmarkMatrixEquivalence)
{
    const auto [domain, c] = GetParam();
    const Index size = domain == Domain::Control ? 6 : 25;
    const QpProblem qp = generateProblem(domain, size, 31);
    const CsrMatrix csr = CsrMatrix::fromCsc(qp.a);
    const SparsityString str = encodeMatrix(csr, c);
    StructureSearchSettings search;
    search.targetSize = 3;
    const StructureSet set = searchStructureSet(str, search).set;

    SpmvSetup setup;
    setup.config.c = c;
    setup.config.structures = set;
    setup.config.compressedCvb = true;
    const Schedule schedule = scheduleString(str, set);
    setup.packed = packMatrix(csr, str, schedule, set);
    setup.plan =
        compressFirstFit(buildAccessRequirements(setup.packed));

    Rng rng(static_cast<std::uint64_t>(c));
    const Vector x = randomVector(csr.cols(), rng);
    const Vector y = runSpmv(setup, x, nullptr);
    Vector y_ref;
    csr.spmv(x, y_ref);
    EXPECT_LT(test::maxAbsDiff(y, y_ref),
              1e-9 * (1.0 + normInf(y_ref)));
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SpmvEngineProperty,
    ::testing::Combine(::testing::Values(Domain::Control, Domain::Lasso,
                                         Domain::Portfolio, Domain::Svm,
                                         Domain::Eqqp),
                       ::testing::Values(16, 64)));

} // namespace
} // namespace rsqp
