// large-host: a few large QPs of different sparsity solved to default
// tolerance through makeBackend with the indirect PCG KKT backend (the
// paper's offloaded step), each once at one thread and once at nproc
// threads per pass. Nearly all time is in the linalg kernels, the PCG
// loop and the thread pool; service, core and arch do no work.

#include <algorithm>

#include "common/thread_pool.hpp"
#include "linalg/kkt.hpp"

#include "streams.hpp"
#include "workloads.hpp"

namespace perfbench
{

namespace
{

using rsqp::Count;
using rsqp::Index;

constexpr double kIndexBytes = sizeof(Index);

/** Computed (not measured) traffic and work of one KKT apply: values
 *  and indices of every stored non-zero read once per pass, row
 *  pointers once, each vector read or written once per pass. */
struct KktModel
{
    double spmvPFlops = 0, spmvPBytes = 0;
    double spmvAFlops = 0, spmvABytes = 0;
    double spmvAtFlops = 0, spmvAtBytes = 0;
    double workingSetBytes = 0;

    double flops() const { return spmvPFlops + spmvAFlops + spmvAtFlops; }
    double bytes() const { return spmvPBytes + spmvABytes + spmvAtBytes; }
};

KktModel
kktModel(const rsqp::QpProblem& qp)
{
    const double n = qp.numVariables();
    const double m = qp.numConstraints();
    const double pf =
        static_cast<double>(qp.pUpper.symUpperToFull().nnz());
    const double a = static_cast<double>(qp.a.nnz());
    const double nz = 8.0 + kIndexBytes;
    KktModel k;
    k.spmvPFlops = 2 * pf + 2 * n;
    k.spmvPBytes = pf * nz + (n + 1) * kIndexBytes + 16 * n;
    k.spmvAFlops = 2 * a + m;
    k.spmvABytes = a * nz + (m + 1) * kIndexBytes + 8 * n + 16 * m;
    k.spmvAtFlops = 2 * a;
    k.spmvAtBytes = a * nz + (n + 1) * kIndexBytes + 8 * m + 16 * n;
    // Full-P CSR, CSR and CSC of A, upper-P CSC, and the ADMM/PCG
    // vectors (about a dozen of length n and of length m).
    k.workingSetBytes = (pf + 2 * a) * nz +
        static_cast<double>(qp.pUpper.nnz()) * nz +
        (2 * n + m) * kIndexBytes + 12 * 8 * (n + m);
    return k;
}

/** Constraint-wise rho as the ADMM loop builds it (equality rows
 *  scaled up). */
rsqp::Vector
rhoVector(const rsqp::QpProblem& qp, const rsqp::OsqpSettings& s)
{
    rsqp::Vector rho(qp.l.size(), s.rho);
    for (std::size_t i = 0; i < rho.size(); ++i)
        if (qp.l[i] == qp.u[i])
            rho[i] *= s.rhoEqScale;
    return rho;
}

double
medianOf(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return nearestRank(v, 0.5);
}

/** Median microseconds of an empty parallel region of n rows. */
double
emptyRegionUs(Index threads, Index n)
{
    rsqp::NumThreadsScope scope(threads);
    std::vector<double> batches;
    for (int b = 0; b < 5; ++b) {
        const auto t0 = Clock::now();
        for (int i = 0; i < 400; ++i)
            rsqp::parallelForRange(n, [](Index, Index) {});
        batches.push_back(secondsBetween(t0, Clock::now()) * 1e6 / 400);
    }
    return medianOf(batches);
}

} // namespace

RunResult
runLargeHost(const Options& options, double seconds, Tracer& tracer)
{
    RunResult out;
    const std::vector<LargeProblem> problems = largeHostProblems();
    const Index nproc = static_cast<Index>(usableCpus());
    rsqp::OsqpSettings settings;
    settings.backend = rsqp::KktBackend::IndirectPcg;

    // Set-up, three times (median reported): host solver construction
    // (validation, Ruiz scaling, KKT operator and PCG workspace) of
    // every problem at nproc threads.
    std::vector<double> setups;
    int kindCode = 0;
    for (int round = 0; round < kSetupRounds; ++round) {
        rsqp::NumThreadsScope scope(nproc);
        const auto t0 = Clock::now();
        for (const LargeProblem& p : problems) {
            auto backend = rsqp::makeBackend(p.qp, settings);
            kindCode = static_cast<int>(backend->kind());
        }
        setups.push_back(secondsBetween(t0, Clock::now()));
    }
    out.endToEnd.set("setup_s", medianOf(setups), "s");

    // Measured window: whole passes (each problem at nproc, then at one
    // thread, from a fresh backend so every solve is cold) until the
    // window is spent; at least two passes.
    const std::size_t np = problems.size();
    std::vector<std::vector<double>> tN(np), t1(np);
    std::vector<rsqp::OsqpInfo> infoN(np);
    std::uint64_t good = 0;
    // End-to-end latency and throughput are those of the single-thread
    // solves. On a 4-vCPU VM the nproc-thread lasso_02 solve switches
    // between about 0.9 s and 2 s in stretches of a run (3 threads
    // too), so over ten seeds its median spread by 0.41; the nproc
    // times are reported per layer and in the details instead.
    std::vector<double> latencies;  // ms, single-thread solves
    const auto start = Clock::now();
    int passes = 0;
    while (passes < 2 || secondsBetween(start, Clock::now()) < seconds) {
        for (const auto& [p, manyFirst] :
             largeHostOrder(options.seed, static_cast<std::uint64_t>(passes),
                            np)) {
            const Index first = manyFirst ? nproc : 1;
            const Index second = manyFirst ? 1 : nproc;
            for (const Index threads : {first, second}) {
                rsqp::NumThreadsScope scope(threads);
                ScopedSpan root(tracer, "large.solve", -1,
                                (p << 8) | static_cast<unsigned>(threads));
                std::unique_ptr<rsqp::QpBackend> backend;
                {
                    ScopedSpan span(tracer, "backends.makeBackend",
                                    root.id());
                    backend = rsqp::makeBackend(problems[p].qp, settings);
                }
                const auto t0 = Clock::now();
                rsqp::OsqpResult r;
                {
                    ScopedSpan span(tracer, "backends.solve", root.id());
                    r = backend->solve();
                }
                const double secs = secondsBetween(t0, Clock::now());
                (threads == 1 ? t1 : tN)[p].push_back(secs);
                if (threads == 1)
                    latencies.push_back(secs * 1e3);
                if (threads == nproc)
                    infoN[p] = r.info;
                const Verdict v = judge(problems[p].qp, Expect::Solved,
                                        r.info.status, r.x, r.y, settings);
                out.correct = out.correct && !v.wrong;
                ++out.attempted;
                good += v.good ? 1 : 0;
            }
        }
        ++passes;
    }
    out.failed = out.attempted - good;
    const LatencySummary lat = summarize(latencies);
    out.endToEnd.set("latency_p50_ms", lat.p50, "ms");
    out.endToEnd.set("latency_p90_ms", lat.p90, "ms");
    double oneThreadSeconds = 0.0;
    for (const double ms : latencies)
        oneThreadSeconds += ms * 1e-3;
    out.endToEnd.set("throughput_rps",
                     static_cast<double>(latencies.size()) /
                         oneThreadSeconds,
                     "1/s");

    double solveN = 0.0, solve1 = 0.0;
    std::string perProblem = "[";
    const double llc = static_cast<double>(lastLevelCacheBytes());
    KktModel total;
    double applyUs = 0.0;
    for (std::size_t p = 0; p < np; ++p) {
        const double mN = medianOf(tN[p]);
        const double m1 = medianOf(t1[p]);
        solveN += mN;
        solve1 += m1;
        const rsqp::QpProblem& qp = problems[p].qp;
        const KktModel k = kktModel(qp);
        total.spmvPFlops += k.spmvPFlops;
        total.spmvPBytes += k.spmvPBytes;
        total.spmvAFlops += k.spmvAFlops;
        total.spmvABytes += k.spmvABytes;
        total.spmvAtFlops += k.spmvAtFlops;
        total.spmvAtBytes += k.spmvAtBytes;
        double apply = 0.0;
        if (tracer.enabled()) {
            // One timed ReducedKktOperator::apply on this problem.
            rsqp::NumThreadsScope scope(nproc);
            rsqp::ReducedKktOperator op(qp.pUpper, qp.a, settings.sigma,
                                        rhoVector(qp, settings));
            rsqp::Vector x(static_cast<std::size_t>(qp.numVariables()), 1.0);
            rsqp::Vector y;
            std::vector<double> t;
            for (int i = 0; i < 21; ++i) {
                ScopedSpan span(tracer, "kkt.apply");
                op.apply(x, y);
                t.push_back(span.close() * 1e6);
            }
            apply = medianOf(t);
            applyUs += apply;
        }
        perProblem += std::string(p ? ", " : "") +
            jsonObject(
                {{"name", jsonString(problems[p].name)},
                 {"n", std::to_string(qp.numVariables())},
                 {"m", std::to_string(qp.numConstraints())},
                 {"nnz", std::to_string(qp.totalNnz())},
                 {"admm_iterations", std::to_string(infoN[p].iterations)},
                 {"pcg_iterations",
                  std::to_string(infoN[p].pcgIterationsTotal)},
                 {"solve_s_nproc", jsonNumber(mN)},
                 {"solve_s_nproc_passes", jsonArray(tN[p])},
                 {"solve_s_1t_passes", jsonArray(t1[p])},
                 {"solve_s_1t", jsonNumber(m1)},
                 {"kkt_flops_per_apply", jsonNumber(k.flops())},
                 {"kkt_bytes_per_apply_computed", jsonNumber(k.bytes())},
                 {"kkt_ops_per_byte", jsonNumber(k.flops() / k.bytes())},
                 {"kkt_apply_us", jsonNumber(apply)},
                 {"working_set_bytes_computed",
                  jsonNumber(k.workingSetBytes)},
                 {"working_set_over_llc",
                  jsonNumber(llc > 0 ? k.workingSetBytes / llc : 0.0)}});
    }
    perProblem += "]";
    out.endToEnd.set("solve_s_1t", solve1, "s");
    out.endToEnd.set("goodput_frac",
                     static_cast<double>(good) /
                         static_cast<double>(out.attempted),
                     "frac");
    out.details.push_back(jsonObject(
        {{"detail", jsonString("large-host")},
         {"threads", std::to_string(nproc)},
         {"passes", std::to_string(passes)},
         {"latency_samples", std::to_string(lat.count)},
         {"p90_supported", lat.p90Supported ? "true" : "false"},
         {"llc_bytes", jsonNumber(llc)},
         {"bandwidth_probe",
          jsonString("omitted: arrays of 4x LLC would not fit the "
                     "memory budget; intensity reported without a "
                     "roofline ratio")},
         {"problems", perProblem}}));

    if (tracer.enabled()) {
        MetricSet& l = out.layers;
        rsqp::HotPathProfile hot;
        Count admm = 0, pcg = 0;
        for (const rsqp::OsqpInfo& info : infoN) {
            for (std::size_t ph = 0; ph < rsqp::kNumProfilePhases; ++ph) {
                hot.phases[ph].nanoseconds +=
                    info.hotPath.phases[ph].nanoseconds;
                hot.phases[ph].calls += info.hotPath.phases[ph].calls;
            }
            admm += info.iterations;
            pcg += info.pcgIterationsTotal;
        }
        static const char* kPhase[rsqp::kNumProfilePhases] = {
            "spmv_p", "spmv_a", "spmv_at", "fused_vector_ops", "precond",
            "reduction"};
        for (std::size_t ph = 0; ph < rsqp::kNumProfilePhases; ++ph) {
            l.set(std::string("linalg.") + kPhase[ph] + "_ms",
                  static_cast<double>(hot.phases[ph].nanoseconds) * 1e-6,
                  "ms");
            l.set(std::string("linalg.") + kPhase[ph] + "_calls",
                  static_cast<double>(hot.phases[ph].calls), "count");
        }
        l.set("linalg.spmv_p.ops_per_byte",
              total.spmvPFlops / total.spmvPBytes, "flop/B");
        l.set("linalg.spmv_a.ops_per_byte",
              total.spmvAFlops / total.spmvABytes, "flop/B");
        l.set("linalg.spmv_at.ops_per_byte",
              total.spmvAtFlops / total.spmvAtBytes, "flop/B");
        // Fused CG update (axpy + dot): 4 flops over 3 reads + 1 write;
        // Jacobi apply + dot: 3 flops over 2 reads + 1 write; dot: 2
        // flops over 2 reads. Per element, fp64.
        l.set("linalg.fused_vector_ops.ops_per_byte", 4.0 / 32.0, "flop/B");
        l.set("linalg.precond.ops_per_byte", 3.0 / 24.0, "flop/B");
        l.set("linalg.reduction.ops_per_byte", 2.0 / 16.0, "flop/B");
        l.set("kkt.apply_us", applyUs, "us");
        l.set("kkt.bytes_per_apply", total.bytes(), "B");
        l.set("kkt.flops_per_apply", total.flops(), "flop");
        l.set("kkt.ops_per_byte", total.flops() / total.bytes(), "flop/B");
        l.set("osqp.admm_iterations", static_cast<double>(admm), "count");
        l.set("pcg.iterations_total", static_cast<double>(pcg), "count");
        l.set("osqp.setup_ms", medianOf(setups) * 1e3, "ms");
        l.set("backends.kind", kindCode, "code");
        const Index rows = problems.empty()
            ? 14000
            : problems.front().qp.numVariables();
        l.set("thread_pool.region_us_1t", emptyRegionUs(1, rows), "us");
        l.set("thread_pool.region_us_nt", emptyRegionUs(nproc, rows), "us");
        l.set("thread_pool.solve_s_nproc", solveN, "s");
        l.set("thread_pool.scaling", solveN > 0 ? solve1 / solveN : 0.0,
              "ratio");
    }
    return out;
}

} // namespace perfbench
