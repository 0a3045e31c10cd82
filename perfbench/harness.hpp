/**
 * @file
 * Shared machinery of the repository benchmark: command line,
 * nearest-rank percentiles, the metric set printed as the result line,
 * span recording for the traced mode, the outside-in correctness check
 * of every QP result, and the host fingerprint that opens each output.
 *
 * Everything here is independent of the workloads, so the self-tests
 * in tests/test_harness.cpp cover it without running a service.
 */

#ifndef PERFBENCH_HARNESS_HPP
#define PERFBENCH_HARNESS_HPP

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "rsqp_api.hpp"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Seconds between two steady-clock points. */
inline double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

/** Parsed command line (`--workload --seed --seconds --trace`). */
struct Options
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string sourceId = "unknown";  ///< git sha or source digest
    std::string traceDir = ".";         ///< where traced runs write spans
};

/** Parse argv; on a malformed command line prints usage and exits 2. */
Options parseOptions(int argc, char** argv);

/** CPUs this process may run on (what `nproc` prints). */
unsigned usableCpus();

// ---------------------------------------------------------------------
// Percentiles

/**
 * Nearest-rank percentile of an ascending sample: the smallest value
 * with at least q of the sample at or below it. q in (0, 1]. An empty
 * sample yields 0.
 */
double nearestRank(const std::vector<double>& sorted, double q);

/**
 * Sample-count rule: a percentile q is reported only when at least ten
 * samples lie beyond it, i.e. floor(n * (1 - q)) >= 10 (the median
 * needs n >= 20).
 */
bool percentileSupported(std::size_t n, double q);

/** Median, p90 and p99 of a sample, with its count and the
 *  sample-count rule for each tail. */
struct LatencySummary
{
    std::size_t count = 0;
    double p50 = 0.0;
    double p90 = 0.0;
    bool p90Supported = false;
    double p99 = 0.0;
    bool p99Supported = false;
};

LatencySummary summarize(std::vector<double> sample);

// ---------------------------------------------------------------------
// Metrics

/** Metric names follow the grammar [A-Za-z0-9_.-]+, first char alnum. */
bool validMetricName(std::string_view name);

/** Ordered name -> (value, unit) set printed as the result line. */
class MetricSet
{
  public:
    /** Adds or replaces a metric; throws on a malformed name or a
     *  non-finite value (a benchmark bug, never a measurement). */
    void set(const std::string& name, double value,
             const std::string& unit);
    bool has(const std::string& name) const;
    double value(const std::string& name) const;
    /** `{"name": {"value": v, "unit": "u"}, ...}` with full digits. */
    std::string toJson() const;

  private:
    std::map<std::string, std::pair<double, std::string>> entries_;
};

/** The last stdout line: `{"correct","attempted","failed","metrics"}`. */
std::string resultLine(bool correct, std::uint64_t attempted,
                       std::uint64_t failed, const MetricSet& metrics);

/** `"key": value` fragments joined into one JSON object line. */
std::string jsonObject(
    const std::vector<std::pair<std::string, std::string>>& fields);
std::string jsonString(const std::string& s);
std::string jsonNumber(double v);
std::string jsonArray(const std::vector<double>& values);

// ---------------------------------------------------------------------
// Spans (traced mode only)

/** One recorded interval at a layer boundary. */
struct Span
{
    std::string name;
    double start = 0.0;       ///< seconds since the tracer's epoch
    double end = 0.0;
    std::int64_t parent = -1; ///< index of the parent span, -1 = root
    std::uint64_t request = 0;
};

/**
 * In-memory span recorder. Spans are appended under a mutex (service
 * callbacks record from worker threads) and written out once at the
 * end of the run. A disabled tracer records nothing.
 */
class Tracer
{
  public:
    explicit Tracer(bool enabled);

    bool enabled() const { return enabled_; }
    double now() const;
    /** Record a finished span; returns its index (parent handle). */
    std::int64_t record(std::string name, double start, double end,
                        std::int64_t parent, std::uint64_t request);
    /** Start a span now (end filled by close()); returns its index. */
    std::int64_t open(std::string name, std::int64_t parent,
                      std::uint64_t request);
    void close(std::int64_t id, double end);
    std::vector<Span> spans() const;
    /** Write all spans as JSON lines to `path`; false on I/O error. */
    bool write(const std::string& path) const;

  private:
    bool enabled_;
    Clock::time_point epoch_;
    mutable std::mutex mutex_;
    std::vector<Span> spans_;
};

/** RAII span around one call into a layer. */
class ScopedSpan
{
  public:
    ScopedSpan(Tracer& tracer, const char* name, std::int64_t parent = -1,
               std::uint64_t request = 0);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan&) = delete;
    ScopedSpan& operator=(const ScopedSpan&) = delete;
    /** End the span now (idempotent); returns its duration in seconds. */
    double close();
    /** Index of this span, the parent handle of its children (-1 when
     *  the tracer is disabled). */
    std::int64_t id() const { return id_; }

  private:
    Tracer& tracer_;
    std::int64_t id_;
    double seconds_ = 0.0;
    bool closed_ = false;
    Clock::time_point startPoint_;
};

/**
 * Self time of every span: its duration minus the part of its interval
 * covered by the union of its children (overlapping children count
 * once; parts of a child outside the parent do not count).
 */
std::vector<double> selfTimes(const std::vector<Span>& spans);

/** Per-name totals: summed self seconds and span count. */
std::map<std::string, std::pair<double, std::size_t>>
selfTimeByName(const std::vector<Span>& spans);

// ---------------------------------------------------------------------
// Correctness

/** Status the benchmark expects for a request. */
enum class Expect
{
    Solved,
    PrimalInfeasible,
};

/** Outside-in residual check of one solution. */
struct Residuals
{
    double prim = 0.0;     ///< ||A x - proj_[l,u](A x)||_inf
    double dual = 0.0;     ///< ||P x + q + A' y||_inf
    double primTol = 0.0;  ///< eps_abs + eps_rel * max(||Ax||, ||z||)
    double dualTol = 0.0;  ///< eps_abs + eps_rel * max(||Px||,||A'y||,||q||)
    bool finite = true;
    bool ok() const { return finite && prim <= primTol && dual <= dualTol; }
};

/**
 * Recompute primal and dual residuals of (x, y) from the QP data. The
 * tolerances are the solve's own (eps_abs, eps_rel) times `slack`,
 * because the solvers test termination on the Ruiz-scaled problem and
 * unscaling stretches the residual by the scaling range.
 */
Residuals recomputeResiduals(const rsqp::QpProblem& qp,
                             const rsqp::Vector& x, const rsqp::Vector& y,
                             double eps_abs, double eps_rel, double slack);

/** Slack on the solve's tolerances applied by every check. */
inline constexpr double kToleranceSlack = 10.0;

/** Outcome of judging one result. */
struct Verdict
{
    /** Expected status and (for Solved) residuals within tolerance. */
    bool good = false;
    /** The result claims an answer that is wrong: a Solved status
     *  whose residuals fail, or an infeasibility claim on a problem
     *  the benchmark built feasible. Any such result makes the run
     *  incorrect; a non-answer (rejected, iteration cap) is a failed
     *  operation but not a wrong one. */
    bool wrong = false;
};

Verdict judge(const rsqp::QpProblem& qp, Expect expect,
              rsqp::SolveStatus status, const rsqp::Vector& x,
              const rsqp::Vector& y, const rsqp::OsqpSettings& settings);

// ---------------------------------------------------------------------
// Host fingerprint

/** One JSON line naming host, build and source (opens every output). */
std::string hostFingerprint(const Options& options);

/** Last-level cache size in bytes (0 when the CPU does not report it). */
std::uint64_t lastLevelCacheBytes();

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HPP
