#include "osqp_program.hpp"

#include "common/logging.hpp"

namespace rsqp
{

namespace
{

/** Sequential scalar-register allocator. */
class ScalarAlloc
{
  public:
    Index
    alloc(const char* what)
    {
        RSQP_ASSERT(next_ < Machine::kNumScalars,
                    "out of scalar registers allocating ", what);
        return next_++;
    }

  private:
    Index next_ = 0;
};

} // namespace

Vector
rhoClassScales(const QpProblem& scaled, Real rho_eq_scale)
{
    Vector scales(scaled.l.size(), 1.0);
    for (std::size_t i = 0; i < scales.size(); ++i) {
        const ConstraintClass cls = constraintClass(scaled.l[i], scaled.u[i]);
        if (cls == ConstraintClass::Loose)
            scales[i] = 0.0;
        else if (cls == ConstraintClass::Equality)
            scales[i] = rho_eq_scale;
    }
    return scales;
}

OsqpDeviceProgram
buildOsqpProgram(Machine& machine, const OsqpMatrixIds& mats,
                 const QpProblem& scaled, const Scaling& scaling,
                 const OsqpSettings& settings)
{
    const Index n = scaled.numVariables();
    const Index m = scaled.numConstraints();
    if (m < 1)
        RSQP_FATAL("the accelerated path needs at least one "
                   "constraint (use OsqpSolver for unconstrained "
                   "problems)");
    RSQP_ASSERT(settings.maxIter % settings.checkInterval == 0,
                "maxIter must be a multiple of checkInterval for the "
                "device program");
    RSQP_ASSERT(!settings.adaptiveRho ||
                settings.adaptiveRhoInterval % settings.checkInterval == 0,
                "adaptiveRhoInterval must be a multiple of checkInterval");

    OsqpDeviceProgram handles;
    ProgramBuilder asmb;
    ScalarAlloc salloc;

    // ---- Scalar registers ---------------------------------------------
    const Index sZero = salloc.alloc("zero");
    const Index sOne = salloc.alloc("one");
    const Index sNegOne = salloc.alloc("negone");
    const Index sTiny = salloc.alloc("tiny");
    const Index sSigma = salloc.alloc("sigma");
    const Index sAlpha = salloc.alloc("alpha");
    const Index sOneMinusAlpha = salloc.alloc("1-alpha");
    const Index sEpsAbs = salloc.alloc("eps_abs");
    const Index sEpsRel = salloc.alloc("eps_rel");
    const Index sPcgAbsSq = salloc.alloc("pcg_abs_sq");
    const Index sPcgFloorSq = salloc.alloc("pcg_floor_sq");
    const Index sPcgDecaySq = salloc.alloc("pcg_decay_sq");
    const Index sCInv = salloc.alloc("c_inv");
    const Index sRhoMin = salloc.alloc("rho_min");
    const Index sRhoMax = salloc.alloc("rho_max");
    const Index sRhoTol = salloc.alloc("rho_tol");
    const Index sCheckInterval = salloc.alloc("check_interval");
    const Index sAdaptEvery = salloc.alloc("adapt_every");
    const Index sMaxIter = salloc.alloc("max_iter");
    const Index sPcgMax = salloc.alloc("pcg_max");

    const Index sRho = salloc.alloc("rho");
    const Index sIter = salloc.alloc("iter");
    const Index sCheckCd = salloc.alloc("check_countdown");
    const Index sAdaptCd = salloc.alloc("adapt_countdown");
    const Index sPcgIter = salloc.alloc("pcg_iter");
    const Index sPcgTotal = salloc.alloc("pcg_total");
    const Index sRhoUpdates = salloc.alloc("rho_updates");
    const Index sStatus = salloc.alloc("status");
    const Index sPcgRelSq = salloc.alloc("pcg_rel_sq");

    const Index sBb = salloc.alloc("bb");
    const Index sThr = salloc.alloc("thr");
    const Index sRr = salloc.alloc("rr");
    const Index sRd = salloc.alloc("rd");
    const Index sRdNew = salloc.alloc("rd_new");
    const Index sPkp = salloc.alloc("pkp");
    const Index sLambda = salloc.alloc("lambda");
    const Index sMu = salloc.alloc("mu");

    const Index sPrimRes = salloc.alloc("prim_res");
    const Index sDualRes = salloc.alloc("dual_res");
    const Index sEpsPrim = salloc.alloc("eps_prim");
    const Index sEpsDual = salloc.alloc("eps_dual");
    const Index sNax = salloc.alloc("nax");
    const Index sNz = salloc.alloc("nz");
    const Index sNpx = salloc.alloc("npx");
    const Index sNaty = salloc.alloc("naty");
    const Index sNq = salloc.alloc("nq");
    const Index sT0 = salloc.alloc("t0");
    const Index sT1 = salloc.alloc("t1");
    const Index sT2 = salloc.alloc("t2");

    // ---- Vector buffers -------------------------------------------------
    const Index vQ = machine.addVector(n, "q");
    const Index vDinv = machine.addVector(n, "dinv");
    const Index vDiagPsigma = machine.addVector(n, "diagP+sigma");
    const Index vX = machine.addVector(n, "x");
    const Index vXt = machine.addVector(n, "x_tilde");
    const Index vB = machine.addVector(n, "b");
    const Index vR = machine.addVector(n, "r");
    const Index vD = machine.addVector(n, "d");
    const Index vP = machine.addVector(n, "p");
    const Index vKp = machine.addVector(n, "Kp");
    const Index vTn1 = machine.addVector(n, "tn1");
    const Index vTn2 = machine.addVector(n, "tn2");
    const Index vPrecInv = machine.addVector(n, "prec_inv");
    const Index vPx = machine.addVector(n, "Px");
    const Index vAty = machine.addVector(n, "Aty");
    const Index vRhsX = machine.addVector(n, "rhs_x");

    const Index vL = machine.addVector(m, "l");
    const Index vU = machine.addVector(m, "u");
    const Index vEinv = machine.addVector(m, "einv");
    const Index vY = machine.addVector(m, "y");
    const Index vZ = machine.addVector(m, "z");
    const Index vZt = machine.addVector(m, "z_tilde");
    const Index vRhoVec = machine.addVector(m, "rho_vec");
    const Index vRhoInv = machine.addVector(m, "rho_inv");
    const Index vRhoScale = machine.addVector(m, "rho_scale");
    const Index vRhoMinV = machine.addVector(m, "rho_min_vec");
    const Index vRhoMaxV = machine.addVector(m, "rho_max_vec");
    const Index vTm1 = machine.addVector(m, "tm1");
    const Index vTm2 = machine.addVector(m, "tm2");
    const Index vAx = machine.addVector(m, "Ax");
    const Index vRhsZ = machine.addVector(m, "rhs_z");
    const Index vZr = machine.addVector(m, "z_relaxed");
    const Index vZn = machine.addVector(m, "z_next");

    // ---- HBM regions (host-prepared data) -------------------------------
    // diag(P_scaled) + sigma.
    Vector diag_p_sigma = scaled.pUpper.diagonalVector();
    for (Real& v : diag_p_sigma)
        v += settings.sigma;

    const Index hbmQ = machine.addHbmVector(scaled.q, "q");
    const Index hbmL = machine.addHbmVector(scaled.l, "l");
    const Index hbmU = machine.addHbmVector(scaled.u, "u");
    handles.hbmQ = hbmQ;
    handles.hbmL = hbmL;
    handles.hbmU = hbmU;
    const Index hbmDinv = machine.addHbmVector(scaling.dInv, "dinv");
    const Index hbmEinv = machine.addHbmVector(scaling.eInv, "einv");
    const Index hbmDiagP = machine.addHbmVector(diag_p_sigma, "diagP");
    handles.hbmDiagP = hbmDiagP;
    const Index hbmRhoScale = machine.addHbmVector(
        rhoClassScales(scaled, settings.rhoEqScale), "rho_scale");
    handles.hbmRhoScale = hbmRhoScale;
    handles.hbmX0 = machine.addHbmVector(
        Vector(static_cast<std::size_t>(n), 0.0), "x0");
    handles.hbmY0 = machine.addHbmVector(
        Vector(static_cast<std::size_t>(m), 0.0), "y0");
    handles.hbmZ0 = machine.addHbmVector(
        Vector(static_cast<std::size_t>(m), 0.0), "z0");
    handles.hbmXOut = machine.addHbmVector(
        Vector(static_cast<std::size_t>(n), 0.0), "x_out");
    handles.hbmYOut = machine.addHbmVector(
        Vector(static_cast<std::size_t>(m), 0.0), "y_out");
    handles.hbmZOut = machine.addHbmVector(
        Vector(static_cast<std::size_t>(m), 0.0), "z_out");

    // ---- Helper emitters -------------------------------------------------

    // dst = K v = P v + sigma v + A' (rho .* (A v)); clobbers
    // vTn1, vTn2, vTm1, vTm2 and the P/A/At CVBs.
    auto apply_k = [&](Index v, Index dst) {
        asmb.vecDup(mats.p, v, "CVB[P] <- v");
        asmb.vecDup(mats.a, v, "CVB[A] <- v");
        asmb.spmv(vTn1, mats.p, "P v");
        asmb.spmv(vTm1, mats.a, "A v");
        asmb.vecEwProd(vTm2, vRhoVec, vTm1, "rho .* A v");
        asmb.vecDup(mats.at, vTm2, "CVB[At] <- rho .* A v");
        asmb.spmv(vTn2, mats.at, "A'(rho .* A v)");
        asmb.vecAxpby(dst, sOne, vTn1, sSigma, v, "P v + sigma v");
        asmb.vecAxpby(dst, sOne, dst, sOne, vTn2, "+ A' rho A v");
    };

    // Rebuild rho_vec, rho_inv and the Jacobi preconditioner from sRho.
    auto build_rho_state = [&]() {
        asmb.vecAxpby(vRhoVec, sRho, vRhoScale, sZero, vRhoScale,
                      "rho * class scale");
        asmb.vecEwMax(vRhoVec, vRhoVec, vRhoMinV, "clamp low");
        asmb.vecEwMin(vRhoVec, vRhoVec, vRhoMaxV, "clamp high");
        asmb.vecEwRecip(vRhoInv, vRhoVec, "1/rho");
        asmb.vecDup(mats.atSq, vRhoVec, "CVB[At^2] <- rho_vec");
        asmb.spmv(vTn1, mats.atSq, "col_j sum rho_i A_ij^2");
        asmb.vecAxpby(vTn2, sOne, vTn1, sOne, vDiagPsigma, "diag K");
        asmb.vecEwRecip(vPrecInv, vTn2, "Jacobi M^-1");
    };

    // ---- Setup ------------------------------------------------------------
    asmb.loadConst(sZero, 0.0);
    asmb.loadConst(sOne, 1.0);
    asmb.loadConst(sNegOne, -1.0);
    asmb.loadConst(sTiny, 1e-10);
    asmb.loadConst(sSigma, settings.sigma);
    asmb.loadConst(sAlpha, settings.alpha);
    asmb.loadConst(sOneMinusAlpha, 1.0 - settings.alpha);
    asmb.loadConst(sEpsAbs, settings.epsAbs);
    asmb.loadConst(sEpsRel, settings.epsRel);
    asmb.loadConst(sPcgAbsSq, settings.pcg.epsAbs * settings.pcg.epsAbs);
    asmb.loadConst(sPcgFloorSq, settings.pcg.epsRel * settings.pcg.epsRel);
    asmb.loadConst(sPcgDecaySq,
                   settings.pcg.adaptiveTolerance
                       ? settings.pcg.epsRelDecay * settings.pcg.epsRelDecay
                       : 1.0);
    asmb.loadConst(sCInv, scaling.cInv);
    asmb.loadConst(sRhoMin, settings.rhoMin);
    asmb.loadConst(sRhoMax, settings.rhoMax);
    asmb.loadConst(sRhoTol, settings.adaptiveRhoTolerance);
    asmb.loadConst(sCheckInterval,
                   static_cast<Real>(settings.checkInterval));
    asmb.loadConst(sAdaptEvery,
                   settings.adaptiveRho
                       ? static_cast<Real>(settings.adaptiveRhoInterval /
                                           settings.checkInterval)
                       : 1.0);
    asmb.loadConst(sMaxIter, static_cast<Real>(settings.maxIter));
    asmb.loadConst(sPcgMax, static_cast<Real>(settings.pcg.maxIter));

    asmb.loadConst(sRho, settings.rho);
    asmb.loadConst(sIter, 0.0);
    asmb.loadConst(sCheckCd, static_cast<Real>(settings.checkInterval));
    asmb.loadConst(sAdaptCd,
                   settings.adaptiveRho
                       ? static_cast<Real>(settings.adaptiveRhoInterval /
                                           settings.checkInterval)
                       : 1e30);
    asmb.loadConst(sPcgTotal, 0.0);
    asmb.loadConst(sRhoUpdates, 0.0);
    asmb.loadConst(sStatus, 0.0);
    asmb.loadConst(sPcgRelSq,
                   settings.pcg.adaptiveTolerance
                       ? settings.pcg.epsRelStart * settings.pcg.epsRelStart
                       : settings.pcg.epsRel * settings.pcg.epsRel);

    asmb.loadVec(vQ, hbmQ, "load q");
    asmb.loadVec(vL, hbmL, "load l");
    asmb.loadVec(vU, hbmU, "load u");
    asmb.loadVec(vDinv, hbmDinv, "load D^-1");
    asmb.loadVec(vEinv, hbmEinv, "load E^-1");
    asmb.loadVec(vDiagPsigma, hbmDiagP, "load diag(P)+sigma");
    asmb.loadVec(vRhoScale, hbmRhoScale, "load rho class scales");
    asmb.loadVec(vX, handles.hbmX0, "warm start x");
    asmb.loadVec(vY, handles.hbmY0, "warm start y");
    asmb.loadVec(vZ, handles.hbmZ0, "warm start z");
    asmb.vecSetConst(vXt, 0.0, "PCG warm start");
    asmb.vecSetConst(vRhoMinV, settings.rhoMin);
    asmb.vecSetConst(vRhoMaxV, settings.rhoMax);

    build_rho_state();

    // nq = c^-1 ||D^-1 q||_inf (constant across the run).
    asmb.vecEwProd(vTn1, vDinv, vQ);
    asmb.vecAmax(sNq, vTn1);
    asmb.scalarMul(sNq, sNq, sCInv, "nq");

    // ---- Labels -----------------------------------------------------------
    const Index lAdmmTop = asmb.newLabel();
    const Index lPcgTop = asmb.newLabel();
    const Index lPcgDone = asmb.newLabel();
    const Index lNoCheck = asmb.newLabel();
    const Index lNotConverged = asmb.newLabel();
    const Index lNoAdapt = asmb.newLabel();
    const Index lAfterAdapt = asmb.newLabel();
    const Index lDone = asmb.newLabel();

    // ---- ADMM loop ---------------------------------------------------------
    asmb.bind(lAdmmTop);
    asmb.scalarAdd(sIter, sIter, sOne, "iter += 1");

    // Step 3 rhs: rhs_x = sigma x - q ; rhs_z = z - rho^-1 y.
    asmb.vecAxpby(vRhsX, sSigma, vX, sNegOne, vQ, "rhs_x");
    asmb.vecEwProd(vTm1, vRhoInv, vY, "rho^-1 y");
    asmb.vecAxpby(vRhsZ, sOne, vZ, sNegOne, vTm1, "rhs_z");

    // Reduced rhs: b = rhs_x + A'(rho .* rhs_z).
    asmb.vecEwProd(vTm1, vRhoVec, vRhsZ, "rho .* rhs_z");
    asmb.vecDup(mats.at, vTm1, "CVB[At] <- rho rhs_z");
    asmb.spmv(vTn1, mats.at, "A' rho rhs_z");
    asmb.vecAxpby(vB, sOne, vRhsX, sOne, vTn1, "b");

    // PCG threshold: thr = max(pcg_abs^2, eps_rel^2 * b.b).
    asmb.vecDot(sBb, vB, vB, "b.b");
    asmb.scalarMul(sThr, sPcgRelSq, sBb);
    asmb.scalarMax(sThr, sThr, sPcgAbsSq, "thr");

    // r = K x_tilde - b (warm start).
    apply_k(vXt, vKp);
    asmb.vecAxpby(vR, sOne, vKp, sNegOne, vB, "r0 = K x~ - b");
    asmb.vecDot(sRr, vR, vR, "r.r");
    asmb.loadConst(sPcgIter, 0.0);
    asmb.jumpIfLess(sRr, sThr, lPcgDone, "already converged");

    // d = M^-1 r ; p = -d ; rd = r.d.
    asmb.vecEwProd(vD, vPrecInv, vR, "d = M^-1 r");
    asmb.vecAxpby(vP, sNegOne, vD, sZero, vD, "p = -d");
    asmb.vecDot(sRd, vR, vD, "rd");

    asmb.bind(lPcgTop);
    apply_k(vP, vKp);
    asmb.vecDot(sPkp, vP, vKp, "p.Kp");
    asmb.scalarDiv(sLambda, sRd, sPkp, "lambda");
    asmb.vecAxpby(vXt, sOne, vXt, sLambda, vP, "x~ += lambda p");
    asmb.vecAxpby(vR, sOne, vR, sLambda, vKp, "r += lambda Kp");
    asmb.vecEwProd(vD, vPrecInv, vR, "d = M^-1 r");
    asmb.vecDot(sRdNew, vR, vD, "rd'");
    asmb.scalarDiv(sMu, sRdNew, sRd, "mu");
    asmb.scalarAdd(sRd, sRdNew, sZero, "rd = rd'");
    asmb.vecAxpby(vP, sNegOne, vD, sMu, vP, "p = -d + mu p");
    asmb.scalarAdd(sPcgIter, sPcgIter, sOne);
    asmb.scalarAdd(sPcgTotal, sPcgTotal, sOne);
    asmb.vecDot(sRr, vR, vR, "r.r");
    asmb.jumpIfLess(sRr, sThr, lPcgDone, "PCG converged");
    asmb.jumpIfLess(sPcgIter, sPcgMax, lPcgTop, "next PCG iter");
    asmb.bind(lPcgDone);

    // z~ = A x~.
    asmb.vecDup(mats.a, vXt, "CVB[A] <- x~");
    asmb.spmv(vZt, mats.a, "z~ = A x~");

    // Steps 5-7: relaxation, projection, dual update.
    asmb.vecAxpby(vX, sAlpha, vXt, sOneMinusAlpha, vX, "x update");
    asmb.vecAxpby(vZr, sAlpha, vZt, sOneMinusAlpha, vZ, "z relaxed");
    asmb.vecEwProd(vTm1, vRhoInv, vY, "rho^-1 y");
    asmb.vecAxpby(vTm2, sOne, vZr, sOne, vTm1, "projection arg");
    asmb.vecEwMax(vZn, vTm2, vL, "clamp low");
    asmb.vecEwMin(vZn, vZn, vU, "clamp high");
    asmb.vecAxpby(vTm1, sOne, vZr, sNegOne, vZn, "z_r - z+");
    asmb.vecEwProd(vTm2, vRhoVec, vTm1, "rho (z_r - z+)");
    asmb.vecAxpby(vY, sOne, vY, sOne, vTm2, "y update");
    asmb.vecCopy(vZ, vZn, "z = z+");

    // Adaptive PCG tolerance decay.
    asmb.scalarMul(sPcgRelSq, sPcgRelSq, sPcgDecaySq);
    asmb.scalarMax(sPcgRelSq, sPcgRelSq, sPcgFloorSq);

    // Termination-check countdown.
    asmb.scalarSub(sCheckCd, sCheckCd, sOne);
    asmb.jumpIfGeq(sCheckCd, sOne, lNoCheck, "not a check iteration");
    asmb.scalarAdd(sCheckCd, sCheckInterval, sZero, "reset countdown");

    // --- Residuals (unscaled) -------------------------------------------
    asmb.vecDup(mats.a, vX, "CVB[A] <- x");
    asmb.spmv(vAx, mats.a, "A x (scaled)");
    asmb.vecAxpby(vTm1, sOne, vAx, sNegOne, vZ, "Ax - z");
    asmb.vecEwProd(vTm1, vEinv, vTm1, "E^-1 (Ax - z)");
    asmb.vecAmax(sPrimRes, vTm1, "primal residual");
    asmb.vecEwProd(vTm1, vEinv, vAx);
    asmb.vecAmax(sNax, vTm1, "||Ax||");
    asmb.vecEwProd(vTm1, vEinv, vZ);
    asmb.vecAmax(sNz, vTm1, "||z||");
    asmb.scalarMax(sT0, sNax, sNz);
    asmb.scalarMul(sT0, sT0, sEpsRel);
    asmb.scalarAdd(sEpsPrim, sEpsAbs, sT0, "eps_prim");

    asmb.vecDup(mats.p, vX, "CVB[P] <- x");
    asmb.spmv(vPx, mats.p, "P x (scaled)");
    asmb.vecDup(mats.at, vY, "CVB[At] <- y");
    asmb.spmv(vAty, mats.at, "A' y (scaled)");
    asmb.vecAxpby(vTn1, sOne, vPx, sOne, vQ, "Px + q");
    asmb.vecAxpby(vTn1, sOne, vTn1, sOne, vAty, "+ A'y");
    asmb.vecEwProd(vTn1, vDinv, vTn1);
    asmb.vecAmax(sDualRes, vTn1);
    asmb.scalarMul(sDualRes, sDualRes, sCInv, "dual residual");
    asmb.vecEwProd(vTn1, vDinv, vPx);
    asmb.vecAmax(sNpx, vTn1);
    asmb.scalarMul(sNpx, sNpx, sCInv, "||Px||");
    asmb.vecEwProd(vTn1, vDinv, vAty);
    asmb.vecAmax(sNaty, vTn1);
    asmb.scalarMul(sNaty, sNaty, sCInv, "||A'y||");
    asmb.scalarMax(sT0, sNpx, sNaty);
    asmb.scalarMax(sT0, sT0, sNq);
    asmb.scalarMul(sT0, sT0, sEpsRel);
    asmb.scalarAdd(sEpsDual, sEpsAbs, sT0, "eps_dual");

    // Control instruction of Table 1: exit once residuals are small.
    asmb.jumpIfLess(sEpsPrim, sPrimRes, lNotConverged);
    asmb.jumpIfLess(sEpsDual, sDualRes, lNotConverged);
    asmb.loadConst(sStatus, 1.0, "status = solved");
    asmb.jump(lDone);
    asmb.bind(lNotConverged);

    // --- Adaptive rho ------------------------------------------------------
    asmb.scalarSub(sAdaptCd, sAdaptCd, sOne);
    asmb.jumpIfGeq(sAdaptCd, sOne, lNoAdapt, "not an adapt check");
    asmb.scalarAdd(sAdaptCd, sAdaptEvery, sZero, "reset adapt countdown");
    asmb.scalarMax(sT0, sNax, sNz);
    asmb.scalarMax(sT0, sT0, sTiny);
    asmb.scalarDiv(sT0, sPrimRes, sT0, "prim_rel");
    asmb.scalarMax(sT1, sNpx, sNaty);
    asmb.scalarMax(sT1, sT1, sNq);
    asmb.scalarMax(sT1, sT1, sTiny);
    asmb.scalarDiv(sT1, sDualRes, sT1, "dual_rel");
    asmb.scalarMax(sT1, sT1, sTiny);
    asmb.scalarDiv(sT0, sT0, sT1, "residual ratio");
    asmb.scalarSqrt(sT0, sT0);
    asmb.scalarMul(sT0, sRho, sT0, "rho candidate");
    // Clamp to [rhoMin, rhoMax]; min(a, b) = -max(-a, -b).
    asmb.scalarMul(sT1, sT0, sNegOne);
    asmb.scalarMul(sT2, sRhoMax, sNegOne);
    asmb.scalarMax(sT1, sT1, sT2);
    asmb.scalarMul(sT0, sT1, sNegOne, "min(candidate, rhoMax)");
    asmb.scalarMax(sT0, sT0, sRhoMin, "rho_new clamped");
    // Update decision: rho_new > rho*tol or rho_new < rho/tol.
    {
        const Index lTake = asmb.newLabel();
        asmb.scalarMul(sT1, sRho, sRhoTol);
        asmb.jumpIfLess(sT1, sT0, lTake, "rho_new > rho*tol");
        asmb.scalarMul(sT1, sT0, sRhoTol);
        asmb.jumpIfLess(sT1, sRho, lTake, "rho_new < rho/tol");
        asmb.jump(lAfterAdapt);
        asmb.bind(lTake);
        asmb.scalarAdd(sRho, sT0, sZero, "rho = rho_new");
        asmb.scalarAdd(sRhoUpdates, sRhoUpdates, sOne);
        build_rho_state();
    }
    asmb.bind(lNoAdapt);
    asmb.bind(lAfterAdapt);
    asmb.bind(lNoCheck);

    asmb.jumpIfLess(sIter, sMaxIter, lAdmmTop, "next ADMM iteration");

    asmb.bind(lDone);
    asmb.storeVec(handles.hbmXOut, vX, "store x");
    asmb.storeVec(handles.hbmYOut, vY, "store y");
    asmb.storeVec(handles.hbmZOut, vZ, "store z");
    asmb.halt("end of OSQP program");

    handles.program = asmb.finish();
    handles.sIterations = sIter;
    handles.sStatus = sStatus;
    handles.sPrimRes = sPrimRes;
    handles.sDualRes = sDualRes;
    handles.sPcgTotal = sPcgTotal;
    handles.sRhoUpdates = sRhoUpdates;
    handles.sRho = sRho;
    return handles;
}

} // namespace rsqp
