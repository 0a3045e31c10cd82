/**
 * @file
 * Hot-path profile of the indirect (PCG) backend on the largest
 * generated suite problem, in two parts:
 *
 *  1. profile — wall clock, ADMM/PCG iteration counts, objective and
 *     per-phase profiler counters (SpMV passes, fused CG updates,
 *     preconditioner, reductions) of one solve at the active ISA;
 *  2. ISA     — the same solve at every supported kernel level
 *     (scalar → AVX2 → AVX-512) via simd::forceIsaLevel, with the
 *     per-phase scalar-vs-SIMD speedups derived from the counters.
 *
 * Every solve runs serially on the calling thread. The JSON output is
 * the CI perf-smoke artifact (committed snapshot:
 * results/BENCH_hotpath.json): the problem/size/seed keys, the
 * detected/compiled/active ISA levels, "profile", "isa_runs" and
 * "simd_speedup".
 *
 * Flags:
 *   --quick         smaller problem / fewer reps (CI smoke)
 *   --json          JSON object on stdout (machine-readable artifact)
 *   --seed=N        generator seed offset (default 0)
 *   --sizes=N       suite sizes per domain to choose from (default 6)
 */

#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "arch/cpu_features.hpp"
#include "bench_util.hpp"
#include "common/table.hpp"
#include "core/rsqp.hpp"
#include "linalg/simd_kernels.hpp"

namespace
{

using namespace rsqp;

struct Options
{
    bool quick = false;
    bool json = false;
    std::uint64_t seed = 0;
    Index sizesPerDomain = 6;
};

Options
parseOptions(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            options.quick = true;
        } else if (arg == "--json") {
            options.json = true;
        } else if (arg.rfind("--seed=", 0) == 0) {
            options.seed =
                static_cast<std::uint64_t>(std::stoull(arg.substr(7)));
        } else if (arg.rfind("--sizes=", 0) == 0) {
            options.sizesPerDomain =
                static_cast<Index>(std::stoi(arg.substr(8)));
        } else {
            std::cerr << "unknown flag: " << arg << "\n"
                      << "flags: --quick --json --seed=N --sizes=N\n";
            std::exit(2);
        }
    }
    return options;
}

/** One measured solve (best of the reps) at one ISA level. */
struct Run
{
    double solveSeconds = 0.0;
    double kktSeconds = 0.0;
    Count pcgIterations = 0;
    Index admmIterations = 0;
    Real objective = 0.0;
    HotPathProfile hotPath;
    std::string backend;  ///< first-order engine label (telemetry)
};

std::string
formatDouble(double value, int precision)
{
    std::ostringstream os;
    os.precision(precision);
    os << std::fixed << value;
    return os.str();
}

/** Best-of-`reps` solve of `qp` under the current global kernels. */
Run
measureSolve(const QpProblem& qp, const OsqpSettings& settings,
             int reps)
{
    Run run;
    run.solveSeconds = 1e100;
    for (int rep = 0; rep < reps; ++rep) {
        OsqpSolver solver(qp, settings);
        Timer timer;
        const OsqpResult result = solver.solve();
        const double seconds = timer.seconds();
        if (seconds < run.solveSeconds) {
            run.solveSeconds = seconds;
            run.kktSeconds = result.info.kktSolveTime;
            run.pcgIterations = result.info.pcgIterationsTotal;
            run.admmIterations = result.info.iterations;
            run.objective = result.info.objective;
            run.hotPath = result.info.hotPath;
            run.backend = result.info.telemetry.backend;
        }
    }
    return run;
}

double
phaseMs(const HotPathProfile& hp, ProfilePhase phase)
{
    return static_cast<double>(hp[phase].nanoseconds) * 1e-6;
}

double
spmvMs(const HotPathProfile& hp)
{
    return phaseMs(hp, ProfilePhase::SpmvP) +
           phaseMs(hp, ProfilePhase::SpmvA) +
           phaseMs(hp, ProfilePhase::SpmvAt);
}

double
ratio(double reference, double value)
{
    return value > 0.0 ? reference / value : 0.0;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options options = parseOptions(argc, argv);
    const Index sizes = options.quick ? 3 : options.sizesPerDomain;
    const int reps = options.quick ? 2 : 3;

    // The largest problem (by total non-zeros) of the reduced suite:
    // the instance where serial overheads matter least.
    const std::vector<ProblemSpec> specs = benchmarkSuite(sizes);
    const ProblemSpec* largest = nullptr;
    QpProblem qp;
    Count best_nnz = -1;
    for (const ProblemSpec& spec : specs) {
        QpProblem candidate = generateProblem(
            spec.domain, spec.sizeParam, spec.seed + options.seed);
        if (candidate.totalNnz() > best_nnz) {
            best_nnz = candidate.totalNnz();
            largest = &spec;
            qp = std::move(candidate);
        }
    }
    if (largest == nullptr) {
        std::cerr << "empty benchmark suite\n";
        return 1;
    }

    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;

    // Part 1: the phase profile at the active ISA level.
    const Run profile = measureSolve(qp, settings, reps);

    // Part 2: the same solve at every supported ISA level.
    const std::vector<IsaLevel> levels = supportedIsaLevels();
    std::vector<Run> isa_runs;
    for (IsaLevel level : levels) {
        simd::forceIsaLevel(level);
        isa_runs.push_back(measureSolve(qp, settings, reps));
    }
    simd::resetIsaLevel();
    const Run& isa_scalar = isa_runs.front();
    const Run& isa_best = isa_runs.back();

    const std::string isa_detected = isaLevelName(detectedIsaLevel());
    const std::string isa_compiled = isaLevelName(compiledIsaLevel());
    const std::string isa_active =
        isaLevelName(simd::activeIsaLevel());

    if (options.json) {
        std::cout << "{\n"
                  << "  \"problem\": \""
                  << bench::jsonEscape(largest->name) << "\",\n"
                  << "  \"n\": " << qp.numVariables() << ",\n"
                  << "  \"m\": " << qp.numConstraints() << ",\n"
                  << "  \"nnz\": " << qp.totalNnz() << ",\n"
                  << "  \"seed\": " << options.seed << ",\n"
                  << "  \"isa_detected\": \"" << isa_detected
                  << "\",\n"
                  << "  \"isa_compiled\": \"" << isa_compiled
                  << "\",\n"
                  << "  \"isa_active\": \"" << isa_active << "\",\n"
                  << "  \"backend\": \""
                  << bench::jsonEscape(profile.backend) << "\",\n"
                  << "  \"profile\": {\"solve_seconds\": "
                  << formatDouble(profile.solveSeconds, 6)
                  << ", \"kkt_seconds\": "
                  << formatDouble(profile.kktSeconds, 6)
                  << ", \"admm_iterations\": " << profile.admmIterations
                  << ", \"pcg_iterations\": " << profile.pcgIterations
                  << ", \"objective\": "
                  << formatDouble(profile.objective, 9)
                  << ", \"hot_path\": " << profile.hotPath.toJson()
                  << "},\n"
                  << "  \"isa_runs\": [\n";
        for (std::size_t i = 0; i < isa_runs.size(); ++i) {
            const Run& run = isa_runs[i];
            std::cout << "    {\"isa\": \"" << isaLevelName(levels[i])
                      << "\", \"solve_seconds\": "
                      << formatDouble(run.solveSeconds, 6)
                      << ", \"kkt_seconds\": "
                      << formatDouble(run.kktSeconds, 6)
                      << ", \"pcg_iterations\": " << run.pcgIterations
                      << ", \"hot_path\": " << run.hotPath.toJson()
                      << "}" << (i + 1 < isa_runs.size() ? "," : "")
                      << "\n";
        }
        std::cout
            << "  ],\n"
            << "  \"simd_speedup\": {\"isa\": \""
            << isaLevelName(levels.back()) << "\", \"solve\": "
            << formatDouble(ratio(isa_scalar.solveSeconds,
                                  isa_best.solveSeconds),
                            3)
            << ", \"spmv\": "
            << formatDouble(ratio(spmvMs(isa_scalar.hotPath),
                                  spmvMs(isa_best.hotPath)),
                            3)
            << ", \"fused\": "
            << formatDouble(
                   ratio(phaseMs(isa_scalar.hotPath,
                                 ProfilePhase::FusedVectorOps),
                         phaseMs(isa_best.hotPath,
                                 ProfilePhase::FusedVectorOps)),
                   3)
            << ", \"precond\": "
            << formatDouble(
                   ratio(phaseMs(isa_scalar.hotPath,
                                 ProfilePhase::Precond),
                         phaseMs(isa_best.hotPath,
                                 ProfilePhase::Precond)),
                   3)
            << ", \"reduce\": "
            << formatDouble(
                   ratio(phaseMs(isa_scalar.hotPath,
                                 ProfilePhase::Reduction),
                         phaseMs(isa_best.hotPath,
                                 ProfilePhase::Reduction)),
                   3)
            << "}\n}\n";
        return 0;
    }

    std::cout << "# hot-path profile: " << largest->name
              << " (n=" << qp.numVariables()
              << ", m=" << qp.numConstraints()
              << ", nnz=" << qp.totalNnz() << "; isa " << isa_active
              << " of " << isa_detected << " detected)\n";
    const auto ms = [](double value) {
        return formatDouble(value, 2);
    };
    const HotPathProfile& hp = profile.hotPath;
    TextTable table({"solve_s", "kkt_s", "admm_iters", "pcg_iters",
                     "spmv_p_ms", "spmv_a_ms", "spmv_at_ms", "fused_ms",
                     "precond_ms", "reduce_ms"});
    table.addRow({formatDouble(profile.solveSeconds, 6),
                  formatDouble(profile.kktSeconds, 6),
                  std::to_string(profile.admmIterations),
                  std::to_string(profile.pcgIterations),
                  ms(phaseMs(hp, ProfilePhase::SpmvP)),
                  ms(phaseMs(hp, ProfilePhase::SpmvA)),
                  ms(phaseMs(hp, ProfilePhase::SpmvAt)),
                  ms(phaseMs(hp, ProfilePhase::FusedVectorOps)),
                  ms(phaseMs(hp, ProfilePhase::Precond)),
                  ms(phaseMs(hp, ProfilePhase::Reduction))});
    table.print(std::cout);
    std::cout << "objective " << formatDouble(profile.objective, 9)
              << "\n";

    std::cout << "\n# ISA sweep: per-phase speedup vs "
                 "forced-scalar kernels\n";
    TextTable isa_table({"isa", "solve_s", "kkt_s", "spmv_ms",
                         "fused_ms", "precond_ms", "reduce_ms",
                         "solve_x", "fused_x"});
    for (std::size_t i = 0; i < isa_runs.size(); ++i) {
        const Run& run = isa_runs[i];
        isa_table.addRow(
            {isaLevelName(levels[i]),
             formatDouble(run.solveSeconds, 6),
             formatDouble(run.kktSeconds, 6),
             ms(spmvMs(run.hotPath)),
             ms(phaseMs(run.hotPath, ProfilePhase::FusedVectorOps)),
             ms(phaseMs(run.hotPath, ProfilePhase::Precond)),
             ms(phaseMs(run.hotPath, ProfilePhase::Reduction)),
             formatDouble(
                 ratio(isa_scalar.solveSeconds, run.solveSeconds), 2),
             formatDouble(
                 ratio(phaseMs(isa_scalar.hotPath,
                               ProfilePhase::FusedVectorOps),
                       phaseMs(run.hotPath,
                               ProfilePhase::FusedVectorOps)),
                 2)});
    }
    isa_table.print(std::cout);

    return 0;
}
