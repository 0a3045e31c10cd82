#include "kkt_solver.hpp"

#include "common/logging.hpp"
#include "linalg/vector_ops.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"

namespace
{

/** Count LDL'-fallback rescues of PCG breakdowns process-wide. */
void
countFallback()
{
    static rsqp::telemetry::Counter& fallbacks =
        rsqp::telemetry::MetricsRegistry::global().counter(
            "rsqp_kkt_pcg_fallbacks_total",
            "KKT steps rescued by the direct LDL' fallback");
    fallbacks.increment();
}

} // namespace

namespace rsqp
{

DirectKktSolver::DirectKktSolver(const CscMatrix& p_upper,
                                 const CscMatrix& a, Real sigma,
                                 const Vector& rho_vec,
                                 OrderingKind ordering)
    : n_(p_upper.cols()), m_(a.rows()),
      assembler_(p_upper, a, sigma, rho_vec), rhoVec_(rho_vec)
{
    perm_ = computeOrdering(assembler_.kkt(), ordering);
    invPerm_.resize(perm_.size());
    for (Index i = 0; i < static_cast<Index>(perm_.size()); ++i)
        invPerm_[static_cast<std::size_t>(
            perm_[static_cast<std::size_t>(i)])] = i;
    kktPermuted_ = assembler_.kkt().symUpperPermute(perm_);
    ldl_ = std::make_unique<LdlFactorization>(kktPermuted_);
    refactor();
}

void
DirectKktSolver::refactor()
{
    kktPermuted_ = assembler_.kkt().symUpperPermute(perm_);
    if (!ldl_->factor(kktPermuted_))
        RSQP_FATAL("LDL factorization hit a zero pivot; the KKT system "
                   "is not quasi-definite (check sigma/rho)");
    needRefactor_ = false;
}

KktSolveStats
DirectKktSolver::solve(const Vector& rhs_x, const Vector& rhs_z,
                       Vector& x_tilde, Vector& z_tilde)
{
    TELEMETRY_SPAN("kkt.ldl");
    RSQP_ASSERT(static_cast<Index>(rhs_x.size()) == n_, "rhs_x size");
    RSQP_ASSERT(static_cast<Index>(rhs_z.size()) == m_, "rhs_z size");

    KktSolveStats stats;
    if (needRefactor_) {
        refactor();
        stats.refactorized = true;
    }

    // Assemble, permute, solve, un-permute.
    work_.resize(static_cast<std::size_t>(n_ + m_));
    Vector permuted(static_cast<std::size_t>(n_ + m_));
    for (Index i = 0; i < n_; ++i)
        work_[static_cast<std::size_t>(i)] =
            rhs_x[static_cast<std::size_t>(i)];
    for (Index i = 0; i < m_; ++i)
        work_[static_cast<std::size_t>(n_ + i)] =
            rhs_z[static_cast<std::size_t>(i)];
    for (Index i = 0; i < n_ + m_; ++i)
        permuted[static_cast<std::size_t>(i)] =
            work_[static_cast<std::size_t>(perm_[static_cast<std::size_t>(
                i)])];

    ldl_->solve(permuted);

    for (Index i = 0; i < n_ + m_; ++i)
        work_[static_cast<std::size_t>(perm_[static_cast<std::size_t>(i)])] =
            permuted[static_cast<std::size_t>(i)];

    x_tilde.assign(work_.begin(), work_.begin() + n_);
    // z_tilde = rhs_z + diag(1/rho) * nu.
    z_tilde.resize(static_cast<std::size_t>(m_));
    for (Index i = 0; i < m_; ++i)
        z_tilde[static_cast<std::size_t>(i)] =
            rhs_z[static_cast<std::size_t>(i)] +
            work_[static_cast<std::size_t>(n_ + i)] /
                rhoVec_[static_cast<std::size_t>(i)];
    return stats;
}

void
DirectKktSolver::updateRho(const Vector& rho_vec)
{
    rhoVec_ = rho_vec;
    assembler_.updateRho(rho_vec);
    needRefactor_ = true;
}

bool
DirectKktSolver::updateMatrixValues(const std::vector<Real>& p_values,
                                    const std::vector<Real>& a_values)
{
    assembler_.updateMatrices(p_values, a_values);
    needRefactor_ = true;
    return true;
}

IndirectKktSolver::IndirectKktSolver(const CscMatrix& p_upper,
                                     const CscMatrix& a, Real sigma,
                                     const Vector& rho_vec,
                                     PcgSettings pcg_settings)
    : p_(&p_upper), a_(&a), sigma_(sigma), op_(p_upper, a, sigma, rho_vec),
      precond_(op_.diagonal()), pcgSettings_(pcg_settings),
      rhoVec_(rho_vec)
{
    warmX_.assign(static_cast<std::size_t>(p_upper.cols()), 0.0);
    pcgWorkspace_.resize(static_cast<std::size_t>(p_upper.cols()));
}

bool
IndirectKktSolver::solveWithFallback(const Vector& rhs_x,
                                     const Vector& rhs_z, Vector& x_tilde,
                                     Vector& z_tilde)
{
    if (!pcgSettings_.directFallback)
        return false;
    if (fallback_ == nullptr) {
        try {
            fallback_ = std::make_unique<DirectKktSolver>(
                *p_, *a_, sigma_, rhoVec_);
        } catch (const FatalError& err) {
            RSQP_WARN("pcg fallback: LDL factorization unavailable (",
                      err.what(), ")");
            return false;
        }
    }
    fallback_->solve(rhs_x, rhs_z, x_tilde, z_tilde);
    ++fallbackSolves_;
    return true;
}

KktSolveStats
IndirectKktSolver::solve(const Vector& rhs_x, const Vector& rhs_z,
                         Vector& x_tilde, Vector& z_tilde)
{
    TELEMETRY_SPAN("kkt.pcg");
    // Record the hot-path phases of everything below (rhs build, PCG
    // loop, final A x) into this solver's profiler.
    HotPathProfilerScope profile_scope(
        pcgSettings_.profile ? &profiler_ : nullptr);

    // b = rhs_x + A' diag(rho) rhs_z — the rho scaling happens inside
    // the gather, with no length-m temporary.
    reducedRhs_ = rhs_x;
    op_.accumulateAtRho(rhs_z, reducedRhs_);

    // Warm-start from the previous solution (the iterates converge, so
    // consecutive systems have nearby solutions).
    x_tilde = warmX_;
    PcgSettings effective = pcgSettings_;
    effective.epsRel = pcgSettings_.effectiveEpsRel(solveCount_++);
    effective.adaptiveTolerance = false;
    const PcgResult pcg = pcgSolve(op_, precond_, reducedRhs_, x_tilde,
                                   effective, pcgWorkspace_);
    lastPcgIters_ = pcg.iterations;
    totalPcgIters_ += pcg.iterations;

    KktSolveStats stats;
    stats.pcgIterations = pcg.iterations;
    stats.pcgBreakdown = pcg.breakdown;

    if (pcg.breakdown != PcgBreakdown::None) {
        RSQP_WARN("pcg breakdown (", toString(pcg.breakdown),
                  ") after ", pcg.iterations, " iters; trying LDL' "
                  "fallback");
        if (solveWithFallback(rhs_x, rhs_z, x_tilde, z_tilde)) {
            stats.usedFallback = true;
            countFallback();
            // Re-warm PCG from the trustworthy direct solution so the
            // next step starts from a clean Krylov state.
            warmX_ = x_tilde;
            if (pcgSettings_.profile)
                stats.hotPath = profiler_.snapshot();
            return stats;
        }
        // No fallback: surrender the poisoned warm start (a NaN here
        // would contaminate every later solve) and hand the caller the
        // tagged breakdown iterate for its own screens to judge.
        if (hasNonFinite(x_tilde))
            warmX_.assign(warmX_.size(), 0.0);
        else
            warmX_ = x_tilde;
        op_.applyA(x_tilde, z_tilde);
        if (pcgSettings_.profile)
            stats.hotPath = profiler_.snapshot();
        return stats;
    }

    if (!pcg.converged)
        RSQP_WARN("PCG hit the iteration cap (", pcg.iterations,
                  " iters, residual ", pcg.residualNorm, ")");
    warmX_ = x_tilde;

    op_.applyA(x_tilde, z_tilde);
    if (pcgSettings_.profile)
        stats.hotPath = profiler_.snapshot();
    return stats;
}

void
IndirectKktSolver::updateRho(const Vector& rho_vec)
{
    rhoVec_ = rho_vec;
    // O(nnz(A)) diagonal refresh off the cached rho-independent parts;
    // the preconditioner rebuilds in place from the cached diagonal —
    // no full diagonal() re-scan, no reallocation.
    op_.setRho(rho_vec);
    precond_.rebuild(op_.diagonal());
    if (fallback_ != nullptr)
        fallback_->updateRho(rho_vec);
}

bool
IndirectKktSolver::updateMatrixValues(const std::vector<Real>& p_values,
                                      const std::vector<Real>& a_values)
{
    // The caller already rewrote the P/A matrices this operator
    // references; re-read them through the construction-time slot maps.
    op_.refreshValues();
    precond_.rebuild(op_.diagonal());
    if (fallback_ != nullptr)
        fallback_->updateMatrixValues(p_values, a_values);
    return true;
}

} // namespace rsqp
