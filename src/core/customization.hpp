/**
 * @file
 * The problem-specific customization pipeline (paper Fig. 6):
 *
 *   problem structure -> sparsity-string encoding -> E_p optimization
 *   (LZW + greedy structure search) -> schedule -> HBM pack layout ->
 *   E_c optimization (First-Fit CVB compression) -> architecture
 *   configuration + match score eta.
 *
 * RSQP schedules three matrices on the same SpMV engine (P, A, A' —
 * plus an element-squared A' used to rebuild the PCG preconditioner on
 * device after rho updates), so the structure search optimizes their
 * strings jointly.
 */

#ifndef RSQP_CORE_CUSTOMIZATION_HPP
#define RSQP_CORE_CUSTOMIZATION_HPP

#include <memory>
#include <string>

#include "arch/config.hpp"
#include "cvb/cvb.hpp"
#include "encoding/packing.hpp"
#include "encoding/scheduler.hpp"
#include "encoding/structure_search.hpp"
#include "osqp/problem.hpp"

namespace rsqp
{

/** Everything derived for one matrix under one architecture. */
struct MatrixArtifacts
{
    std::string name;
    CsrMatrix csr;
    SparsityString str;
    Schedule schedule;
    PackedMatrix packed;
    CvbPlan plan;

    /** Match score of this matrix's SpMV + duplication pair. */
    Real eta() const;
};

/** Customization settings. */
struct CustomizeSettings
{
    Index c = 64;                     ///< datapath width
    bool customizeStructures = true;  ///< run the E_p optimization
    bool compressCvb = true;          ///< run the E_c optimization
    bool fp32Datapath = false;        ///< FP32 MAC trees (the silicon)
    /** Seeded HBM/MAC soft-error injection (testing only). */
    FaultInjectionConfig faultInjection;
    StructureSearchSettings search;   ///< E_p search knobs
    /** Explicit structure set (bypasses the search when non-empty). */
    std::vector<std::string> forcedPatterns;
};

/** Result of customizing one problem. */
struct ProblemCustomization
{
    ArchConfig config;
    MatrixArtifacts p;     ///< full symmetric P
    MatrixArtifacts a;     ///< A
    MatrixArtifacts at;    ///< A'
    MatrixArtifacts atSq;  ///< A' with squared values

    /** Aggregate E_p over P, A, A' (atSq mirrors at; not re-counted). */
    Count totalEp() const;
    /** Aggregate match score over the three SpMV matrices. */
    Real eta() const;
    /** Cycles of one K-operator application (3 SpMVs). */
    Count kApplyPacks() const;
};

/**
 * Run the full pipeline on a (scaled) problem.
 *
 * @param scaled The scaled problem as the accelerator will see it.
 * @param settings Pipeline knobs (width, which optimizations to run).
 */
ProblemCustomization customizeProblem(const QpProblem& scaled,
                                      const CustomizeSettings& settings);

/**
 * The value-blind half of one matrix customization: the encoded
 * sparsity string, its MAC-tree schedule and the CVB compression map —
 * everything except the CSR values and the packed HBM stream, all of
 * which are pure functions of the sparsity structure.
 */
struct FrozenMatrixArtifact
{
    std::string name;
    SparsityString str;
    Schedule schedule;
    CvbPlan plan;
};

/**
 * A frozen, reusable customization: the expensive per-structure work
 * (E_p structure search, scheduling, E_c CVB packing) detached from
 * any particular numeric values. Thawing against a value-distinct but
 * structurally identical problem reproduces customizeProblem() bitwise
 * while skipping the whole pipeline — the amortization unit of the
 * service layer's customization cache.
 */
struct CustomizationArtifact
{
    /**
     * The generated architecture. faultInjection is a per-instance
     * host knob, overwritten at thaw time from the caller's settings;
     * everything else is part of the frozen design.
     */
    ArchConfig config;
    FrozenMatrixArtifact p;
    FrozenMatrixArtifact a;
    FrozenMatrixArtifact at;
    FrozenMatrixArtifact atSq;

    /** Approximate host-memory footprint (cache accounting). */
    Count footprintBytes() const;

    /** Structural compatibility with a (scaled) problem + settings. */
    bool compatibleWith(const QpProblem& scaled,
                        const CustomizeSettings& settings) const;
};

/** Detach the value-blind artifact from a finished customization. */
CustomizationArtifact
freezeCustomization(const ProblemCustomization& custom);

/**
 * Re-instantiate a customization from a frozen artifact and a (scaled)
 * problem with the same sparsity structure: rebuild the CSR mirrors
 * from the problem values and re-pack the HBM streams on the frozen
 * schedules. For a structure-identical problem the result is
 * bitwise-identical to customizeProblem(scaled, settings) — asserted
 * by the service tests — at O(nnz) cost instead of the full search.
 *
 * @param settings Supplies the per-instance host knob
 *        (faultInjection); its structural knobs (c, optimization flags)
 *        must match the artifact (see compatibleWith).
 */
ProblemCustomization
thawCustomization(const QpProblem& scaled,
                  const CustomizationArtifact& artifact,
                  const CustomizeSettings& settings);

/** Convenience: the paper's generic baseline at width c. */
ProblemCustomization baselineCustomization(const QpProblem& scaled,
                                           Index c);

} // namespace rsqp

#endif // RSQP_CORE_CUSTOMIZATION_HPP
