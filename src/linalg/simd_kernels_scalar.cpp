/**
 * @file
 * Portable scalar instantiation of the kernel body: 8 explicit fp64
 * lanes in a plain array, same striped accumulation and halving
 * tree as the SIMD packs. This is the bitwise reference every vector
 * table is tested against, and the only table on non-x86 builds.
 * Compiled with -ffp-contract=off so no lane ever fuses mul+add.
 */

#include "simd_kernels_tables.hpp"

#include <cmath>

namespace rsqp::simd
{

namespace
{

struct PackD
{
    Real l[8];

    static PackD
    zero()
    {
        return PackD{{0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0}};
    }

    static PackD
    load(const Real* p)
    {
        PackD v;
        for (int j = 0; j < 8; ++j)
            v.l[j] = p[j];
        return v;
    }

    static void
    store(Real* p, PackD v)
    {
        for (int j = 0; j < 8; ++j)
            p[j] = v.l[j];
    }

    static PackD
    broadcast(Real x)
    {
        PackD v;
        for (int j = 0; j < 8; ++j)
            v.l[j] = x;
        return v;
    }

    static PackD
    add(PackD a, PackD b)
    {
        PackD v;
        for (int j = 0; j < 8; ++j)
            v.l[j] = a.l[j] + b.l[j];
        return v;
    }

    static PackD
    sub(PackD a, PackD b)
    {
        PackD v;
        for (int j = 0; j < 8; ++j)
            v.l[j] = a.l[j] - b.l[j];
        return v;
    }

    static PackD
    mul(PackD a, PackD b)
    {
        PackD v;
        for (int j = 0; j < 8; ++j)
            v.l[j] = a.l[j] * b.l[j];
        return v;
    }

    static PackD
    abs(PackD a)
    {
        PackD v;
        for (int j = 0; j < 8; ++j)
            v.l[j] = std::abs(a.l[j]);
        return v;
    }

    /** Lane = val > acc ? val : acc — a NaN val lane keeps acc. */
    static PackD
    maxAcc(PackD acc, PackD val)
    {
        PackD v;
        for (int j = 0; j < 8; ++j)
            v.l[j] = val.l[j] > acc.l[j] ? val.l[j] : acc.l[j];
        return v;
    }

    static bool
    anyNonFinite(PackD a)
    {
        for (int j = 0; j < 8; ++j)
            if (!std::isfinite(a.l[j]))
                return true;
        return false;
    }

    static PackD
    gather(const Real* base, const Index* idx)
    {
        PackD v;
        for (int j = 0; j < 8; ++j)
            v.l[j] = base[static_cast<std::size_t>(idx[j])];
        return v;
    }

    /** Canonical halving tree: (i, i+4), then (i, i+2), then the pair. */
    static Real
    reduceAdd(PackD a)
    {
        const Real m0 = a.l[0] + a.l[4];
        const Real m1 = a.l[1] + a.l[5];
        const Real m2 = a.l[2] + a.l[6];
        const Real m3 = a.l[3] + a.l[7];
        const Real q0 = m0 + m2;
        const Real q1 = m1 + m3;
        return q0 + q1;
    }

    static Real
    reduceMax(PackD a)
    {
        const Real m0 = a.l[4] > a.l[0] ? a.l[4] : a.l[0];
        const Real m1 = a.l[5] > a.l[1] ? a.l[5] : a.l[1];
        const Real m2 = a.l[6] > a.l[2] ? a.l[6] : a.l[2];
        const Real m3 = a.l[7] > a.l[3] ? a.l[7] : a.l[3];
        const Real q0 = m2 > m0 ? m2 : m0;
        const Real q1 = m3 > m1 ? m3 : m1;
        return q1 > q0 ? q1 : q0;
    }
};

#include "simd_kernels_body.ipp"

} // namespace

const VectorKernels&
scalarKernelTable()
{
    static const VectorKernels table =
        makeKernelTable(IsaLevel::Scalar, "scalar");
    return table;
}

} // namespace rsqp::simd
