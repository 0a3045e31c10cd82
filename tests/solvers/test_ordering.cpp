/**
 * @file
 * Reverse Cuthill-McKee ordering tests: permutation validity,
 * bandwidth reduction on banded-but-shuffled patterns, and fill-in
 * reduction of the downstream LDL factor.
 */

#include <algorithm>
#include <numeric>

#include <gtest/gtest.h>

#include "solvers/ldl.hpp"
#include "solvers/ordering.hpp"
#include "tests/test_util.hpp"

namespace rsqp
{
namespace
{

/** Tridiagonal SPD pattern of size n, rows permuted by a shuffle. */
CscMatrix
shuffledTridiagonal(Index n, Rng& rng, IndexVector& shuffle)
{
    shuffle = rng.permutation(n);
    IndexVector inv(shuffle.size());
    for (Index i = 0; i < n; ++i)
        inv[static_cast<std::size_t>(shuffle[static_cast<std::size_t>(i)])] =
            i;
    TripletList triplets(n, n);
    for (Index i = 0; i < n; ++i) {
        triplets.add(inv[static_cast<std::size_t>(i)],
                     inv[static_cast<std::size_t>(i)], 4.0);
        if (i + 1 < n) {
            Index r = inv[static_cast<std::size_t>(i)];
            Index c = inv[static_cast<std::size_t>(i + 1)];
            if (r > c)
                std::swap(r, c);
            triplets.add(r, c, -1.0);
        }
    }
    return CscMatrix::fromTriplets(triplets);
}

TEST(Rcm, ReturnsValidPermutation)
{
    Rng rng(1);
    IndexVector shuffle;
    const CscMatrix upper = shuffledTridiagonal(20, rng, shuffle);
    IndexVector perm = reverseCuthillMcKee(upper);
    ASSERT_EQ(perm.size(), 20u);
    IndexVector sorted = perm;
    std::sort(sorted.begin(), sorted.end());
    for (Index i = 0; i < 20; ++i)
        EXPECT_EQ(sorted[static_cast<std::size_t>(i)], i);
}

TEST(Rcm, RecoversSmallBandwidth)
{
    Rng rng(2);
    IndexVector shuffle;
    const CscMatrix upper = shuffledTridiagonal(50, rng, shuffle);
    IndexVector natural(50);
    std::iota(natural.begin(), natural.end(), Index{0});
    const Index band_before = symmetricBandwidth(upper, natural);
    const IndexVector perm = reverseCuthillMcKee(upper);
    const Index band_after = symmetricBandwidth(upper, perm);
    // A shuffled tridiagonal has large bandwidth; RCM restores ~1.
    EXPECT_GT(band_before, 5);
    EXPECT_LE(band_after, 2);
}

TEST(Rcm, HandlesDisconnectedComponents)
{
    // Two disjoint 3-cliques plus an isolated vertex.
    TripletList triplets(7, 7);
    for (Index base : {0, 3}) {
        for (Index i = 0; i < 3; ++i) {
            triplets.add(base + i, base + i, 1.0);
            for (Index j = i + 1; j < 3; ++j)
                triplets.add(base + i, base + j, 1.0);
        }
    }
    triplets.add(6, 6, 1.0);
    const CscMatrix upper = CscMatrix::fromTriplets(triplets);
    IndexVector perm = reverseCuthillMcKee(upper);
    std::sort(perm.begin(), perm.end());
    for (Index i = 0; i < 7; ++i)
        EXPECT_EQ(perm[static_cast<std::size_t>(i)], i);
}

TEST(Rcm, ReducesLdlFill)
{
    // Arrow matrix: dense first row/column. Natural order fills the
    // whole factor; RCM pushes the hub to the end.
    const Index n = 30;
    TripletList triplets(n, n);
    for (Index i = 0; i < n; ++i)
        triplets.add(i, i, 10.0);
    for (Index j = 1; j < n; ++j)
        triplets.add(0, j, 1.0);
    const CscMatrix upper = CscMatrix::fromTriplets(triplets);

    LdlFactorization natural_ldl(upper);
    const IndexVector perm = reverseCuthillMcKee(upper);
    const CscMatrix permuted = upper.symUpperPermute(perm);
    LdlFactorization rcm_ldl(permuted);
    EXPECT_LT(rcm_ldl.lnnz(), natural_ldl.lnnz());
    EXPECT_EQ(rcm_ldl.lnnz(), n - 1);  // hub last: only its column fills
}

} // namespace
} // namespace rsqp
