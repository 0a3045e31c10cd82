/**
 * @file
 * Structure-fingerprint tests: value blindness, structure sensitivity,
 * settings sensitivity, and the non-cacheable escape hatch.
 */

#include <gtest/gtest.h>

#include "core/customization.hpp"
#include "problems/suite.hpp"
#include "service/fingerprint.hpp"

namespace rsqp
{
namespace
{

TEST(Fingerprint, BlindToValues)
{
    const QpProblem qp = generateProblem(Domain::Lasso, 30, 7);
    QpProblem other = qp;
    for (Real& v : other.q)
        v = 2.0 * v + 1.0;
    for (Real& v : other.pUpper.values())
        v += 0.5;
    for (Real& v : other.a.values())
        v *= -3.0;

    EXPECT_EQ(fingerprintStructure(qp), fingerprintStructure(other));
}

TEST(Fingerprint, SensitiveToStructure)
{
    const QpProblem a = generateProblem(Domain::Control, 20, 3);
    const QpProblem b = generateProblem(Domain::Control, 21, 3);
    const QpProblem c = generateProblem(Domain::Svm, 20, 3);
    EXPECT_FALSE(fingerprintStructure(a) == fingerprintStructure(b));
    EXPECT_FALSE(fingerprintStructure(a) == fingerprintStructure(c));
}

TEST(Fingerprint, DimensionsRideAlong)
{
    const QpProblem qp = generateProblem(Domain::Huber, 25, 11);
    const StructureFingerprint fp = fingerprintStructure(qp);
    EXPECT_EQ(fp.n, qp.numVariables());
    EXPECT_EQ(fp.m, qp.numConstraints());
    EXPECT_EQ(fp.pNnz, qp.pUpper.nnz());
    EXPECT_EQ(fp.aNnz, qp.a.nnz());
    EXPECT_TRUE(fp.cacheable);
    EXPECT_EQ(fp.toHex().size(), 32u);
}

TEST(Fingerprint, CustomizationSettingsChangeTheKey)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 20, 5);
    CustomizeSettings base;
    base.c = 16;

    CustomizeSettings wider = base;
    wider.c = 32;
    CustomizeSettings plain = base;
    plain.customizeStructures = false;
    CustomizeSettings forced = base;
    forced.forcedPatterns = {"0123"};

    const StructureFingerprint fpBase =
        fingerprintCustomization(qp, base);
    EXPECT_FALSE(fpBase == fingerprintCustomization(qp, wider));
    EXPECT_FALSE(fpBase == fingerprintCustomization(qp, plain));
    EXPECT_FALSE(fpBase == fingerprintCustomization(qp, forced));
}

TEST(Fingerprint, HostOnlyKnobsStayOutOfTheKey)
{
    const QpProblem qp = generateProblem(Domain::Eqqp, 18, 9);
    CustomizeSettings base;
    base.c = 16;
    CustomizeSettings injected = base;
    injected.faultInjection.enabled = true;
    injected.faultInjection.seed = 5;

    EXPECT_EQ(fingerprintCustomization(qp, base),
              fingerprintCustomization(qp, injected));
}

TEST(Fingerprint, UserObjectiveIsNotCacheable)
{
    const QpProblem qp = generateProblem(Domain::Lasso, 15, 2);
    CustomizeSettings settings;
    settings.search.objective = [](const StructureSet&, Count) {
        return 0.0;
    };
    EXPECT_FALSE(fingerprintCustomization(qp, settings).cacheable);
}

} // namespace
} // namespace rsqp
