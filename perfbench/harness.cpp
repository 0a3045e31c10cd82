#include "harness.hpp"

#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "linalg/simd_kernels.hpp"

namespace perfbench
{

namespace
{

[[noreturn]] void
usage(const std::string& message)
{
    std::cerr << "perfbench: " << message << "\n"
              << "usage: perfbench --workload mpc-closed|mixed-open|"
                 "large-host --seed N --seconds S --trace 0|1 "
                 "[--source-id ID] [--trace-dir DIR]\n";
    std::exit(2);
}

std::string
requireValue(int argc, char** argv, int& i)
{
    if (i + 1 >= argc)
        usage(std::string("missing value for ") + argv[i]);
    return argv[++i];
}

std::uint64_t
parseUnsigned(const std::string& text, const char* flag)
{
    if (text.empty() ||
        text.find_first_not_of("0123456789") != std::string::npos)
        usage(std::string(flag) + " expects a non-negative integer");
    return std::stoull(text);
}

} // namespace

Options
parseOptions(int argc, char** argv)
{
    Options options;
    bool haveWorkload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--workload") {
            options.workload = requireValue(argc, argv, i);
            haveWorkload = true;
        } else if (arg == "--seed") {
            options.seed = parseUnsigned(requireValue(argc, argv, i),
                                         "--seed");
        } else if (arg == "--seconds") {
            const std::uint64_t s = parseUnsigned(
                requireValue(argc, argv, i), "--seconds");
            if (s < 1 || s > 600)
                usage("--seconds must be within 1..600");
            options.seconds = static_cast<double>(s);
        } else if (arg == "--trace") {
            const std::string v = requireValue(argc, argv, i);
            if (v != "0" && v != "1")
                usage("--trace expects 0 or 1");
            options.trace = v == "1";
        } else if (arg == "--source-id") {
            options.sourceId = requireValue(argc, argv, i);
        } else if (arg == "--trace-dir") {
            options.traceDir = requireValue(argc, argv, i);
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!haveWorkload)
        usage("--workload is required");
    return options;
}

unsigned
usableCpus()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof(set), &set) == 0) {
        const int n = CPU_COUNT(&set);
        if (n > 0)
            return static_cast<unsigned>(n);
    }
    return std::max(1u, std::thread::hardware_concurrency());
}

// ---------------------------------------------------------------------

double
nearestRank(const std::vector<double>& sorted, double q)
{
    if (sorted.empty())
        return 0.0;
    const double n = static_cast<double>(sorted.size());
    // The epsilon keeps q * n = 990.0000000001 at rank 990.
    double rank = std::ceil(q * n - 1e-9);
    rank = std::clamp(rank, 1.0, n);
    return sorted[static_cast<std::size_t>(rank) - 1];
}

bool
percentileSupported(std::size_t n, double q)
{
    const double rank =
        std::max(1.0, std::ceil(q * static_cast<double>(n) - 1e-9));
    return static_cast<double>(n) - rank >= 10.0;
}

LatencySummary
summarize(std::vector<double> sample)
{
    std::sort(sample.begin(), sample.end());
    LatencySummary s;
    s.count = sample.size();
    s.p50 = nearestRank(sample, 0.5);
    s.p90 = nearestRank(sample, 0.9);
    s.p90Supported = percentileSupported(sample.size(), 0.9);
    s.p99 = nearestRank(sample, 0.99);
    s.p99Supported = percentileSupported(sample.size(), 0.99);
    return s;
}

// ---------------------------------------------------------------------

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.size() > 64)
        return false;
    if (!std::isalnum(static_cast<unsigned char>(name.front())))
        return false;
    for (char c : name) {
        const bool ok = std::isalnum(static_cast<unsigned char>(c)) ||
            c == '_' || c == '.' || c == '-';
        if (!ok)
            return false;
    }
    return true;
}

void
MetricSet::set(const std::string& name, double value,
               const std::string& unit)
{
    if (!validMetricName(name))
        throw std::invalid_argument("malformed metric name: " + name);
    if (!std::isfinite(value))
        throw std::invalid_argument("non-finite metric: " + name);
    entries_[name] = {value, unit};
}

bool
MetricSet::has(const std::string& name) const
{
    return entries_.count(name) != 0;
}

double
MetricSet::value(const std::string& name) const
{
    const auto it = entries_.find(name);
    return it == entries_.end() ? 0.0 : it->second.first;
}

std::string
MetricSet::toJson() const
{
    std::string out = "{";
    bool first = true;
    for (const auto& [name, entry] : entries_) {
        if (!first)
            out += ", ";
        first = false;
        out += jsonString(name) + ": {\"value\": " +
            jsonNumber(entry.first) +
            ", \"unit\": " + jsonString(entry.second) + "}";
    }
    return out + "}";
}

std::string
jsonString(const std::string& s)
{
    std::string out = "\"";
    for (char c : s) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", u);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "null";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonArray(const std::vector<double>& values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + jsonNumber(values[i]);
    return out + "]";
}

std::string
jsonObject(const std::vector<std::pair<std::string, std::string>>& fields)
{
    std::string out = "{";
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (i > 0)
            out += ", ";
        out += jsonString(fields[i].first) + ": " + fields[i].second;
    }
    return out + "}";
}

std::string
resultLine(bool correct, std::uint64_t attempted, std::uint64_t failed,
           const MetricSet& metrics)
{
    return jsonObject({{"correct", correct ? "true" : "false"},
                       {"attempted", std::to_string(attempted)},
                       {"failed", std::to_string(failed)},
                       {"metrics", metrics.toJson()}});
}

// ---------------------------------------------------------------------

Tracer::Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}

double
Tracer::now() const
{
    return secondsBetween(epoch_, Clock::now());
}

std::int64_t
Tracer::record(std::string name, double start, double end,
               std::int64_t parent, std::uint64_t request)
{
    if (!enabled_)
        return -1;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), start, end, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

std::int64_t
Tracer::open(std::string name, std::int64_t parent, std::uint64_t request)
{
    if (!enabled_)
        return -1;
    const double start = now();
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back({std::move(name), start, start, parent, request});
    return static_cast<std::int64_t>(spans_.size()) - 1;
}

void
Tracer::close(std::int64_t id, double end)
{
    if (!enabled_ || id < 0)
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    spans_[static_cast<std::size_t>(id)].end = end;
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

bool
Tracer::write(const std::string& path) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    std::lock_guard<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        out << jsonObject({{"id", std::to_string(i)},
                           {"name", jsonString(s.name)},
                           {"start_s", jsonNumber(s.start)},
                           {"end_s", jsonNumber(s.end)},
                           {"parent", std::to_string(s.parent)},
                           {"request", std::to_string(s.request)}})
            << "\n";
    }
    return static_cast<bool>(out);
}

ScopedSpan::ScopedSpan(Tracer& tracer, const char* name,
                       std::int64_t parent, std::uint64_t request)
    : tracer_(tracer), id_(tracer.open(name, parent, request)),
      startPoint_(Clock::now())
{}

ScopedSpan::~ScopedSpan()
{
    close();
}

double
ScopedSpan::close()
{
    if (!closed_) {
        closed_ = true;
        seconds_ = secondsBetween(startPoint_, Clock::now());
        tracer_.close(id_, tracer_.now());
    }
    return seconds_;
}

std::vector<double>
selfTimes(const std::vector<Span>& spans)
{
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span& s : spans) {
        if (s.parent < 0 ||
            static_cast<std::size_t>(s.parent) >= spans.size())
            continue;
        const Span& p = spans[static_cast<std::size_t>(s.parent)];
        const double a = std::max(s.start, p.start);
        const double b = std::min(s.end, p.end);
        if (b > a)
            children[static_cast<std::size_t>(s.parent)].push_back({a, b});
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& iv = children[i];
        std::sort(iv.begin(), iv.end());
        double covered = 0.0;
        double curStart = 0.0, curEnd = 0.0;
        bool open = false;
        for (const auto& [a, b] : iv) {
            if (!open || a > curEnd) {
                if (open)
                    covered += curEnd - curStart;
                curStart = a;
                curEnd = b;
                open = true;
            } else {
                curEnd = std::max(curEnd, b);
            }
        }
        if (open)
            covered += curEnd - curStart;
        self[i] = std::max(0.0, (spans[i].end - spans[i].start) - covered);
    }
    return self;
}

std::map<std::string, std::pair<double, std::size_t>>
selfTimeByName(const std::vector<Span>& spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, std::pair<double, std::size_t>> out;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& entry = out[spans[i].name];
        entry.first += self[i];
        entry.second += 1;
    }
    return out;
}

// ---------------------------------------------------------------------

Residuals
recomputeResiduals(const rsqp::QpProblem& qp, const rsqp::Vector& x,
                   const rsqp::Vector& y, double eps_abs, double eps_rel,
                   double slack)
{
    using rsqp::Index;
    Residuals r;
    const Index n = qp.numVariables();
    const Index m = qp.numConstraints();
    if (static_cast<Index>(x.size()) != n ||
        static_cast<Index>(y.size()) != m) {
        r.finite = false;
        return r;
    }
    for (double v : x)
        r.finite = r.finite && std::isfinite(v);
    for (double v : y)
        r.finite = r.finite && std::isfinite(v);
    if (!r.finite)
        return r;

    // P is stored as its upper triangle: P x = U x + U' x - diag(U) x.
    const rsqp::CscMatrix& pu = qp.pUpper;
    rsqp::Vector px(static_cast<std::size_t>(n), 0.0);
    for (Index j = 0; j < n; ++j) {
        for (Index k = pu.colPtr()[j]; k < pu.colPtr()[j + 1]; ++k) {
            const Index i = pu.rowIdx()[k];
            const double v = pu.values()[k];
            px[static_cast<std::size_t>(i)] +=
                v * x[static_cast<std::size_t>(j)];
            if (i != j)
                px[static_cast<std::size_t>(j)] +=
                    v * x[static_cast<std::size_t>(i)];
        }
    }
    const rsqp::CscMatrix& a = qp.a;
    rsqp::Vector ax(static_cast<std::size_t>(m), 0.0);
    rsqp::Vector aty(static_cast<std::size_t>(n), 0.0);
    for (Index j = 0; j < n; ++j) {
        for (Index k = a.colPtr()[j]; k < a.colPtr()[j + 1]; ++k) {
            const Index i = a.rowIdx()[k];
            const double v = a.values()[k];
            ax[static_cast<std::size_t>(i)] +=
                v * x[static_cast<std::size_t>(j)];
            aty[static_cast<std::size_t>(j)] +=
                v * y[static_cast<std::size_t>(i)];
        }
    }
    double axNorm = 0.0, zNorm = 0.0;
    for (Index i = 0; i < m; ++i) {
        const auto s = static_cast<std::size_t>(i);
        const double z = std::clamp(ax[s], qp.l[s], qp.u[s]);
        r.prim = std::max(r.prim, std::abs(ax[s] - z));
        axNorm = std::max(axNorm, std::abs(ax[s]));
        zNorm = std::max(zNorm, std::abs(z));
    }
    double pxNorm = 0.0, atyNorm = 0.0, qNorm = 0.0;
    for (Index j = 0; j < n; ++j) {
        const auto s = static_cast<std::size_t>(j);
        r.dual = std::max(r.dual, std::abs(px[s] + qp.q[s] + aty[s]));
        pxNorm = std::max(pxNorm, std::abs(px[s]));
        atyNorm = std::max(atyNorm, std::abs(aty[s]));
        qNorm = std::max(qNorm, std::abs(qp.q[s]));
    }
    r.primTol = slack * (eps_abs + eps_rel * std::max(axNorm, zNorm));
    r.dualTol =
        slack * (eps_abs + eps_rel * std::max({pxNorm, atyNorm, qNorm}));
    return r;
}

Verdict
judge(const rsqp::QpProblem& qp, Expect expect, rsqp::SolveStatus status,
      const rsqp::Vector& x, const rsqp::Vector& y,
      const rsqp::OsqpSettings& settings)
{
    using rsqp::SolveStatus;
    Verdict v;
    if (status == SolveStatus::Solved) {
        const Residuals r = recomputeResiduals(
            qp, x, y, settings.epsAbs, settings.epsRel, kToleranceSlack);
        v.good = expect == Expect::Solved && r.ok();
        v.wrong = !v.good;
        if (v.wrong)
            std::cerr << "perfbench: wrong answer on '" << qp.name
                      << "' (n=" << qp.numVariables()
                      << "): solved with prim " << r.prim << " (tol "
                      << r.primTol << "), dual " << r.dual << " (tol "
                      << r.dualTol << ")\n";
        return v;
    }
    if (status == SolveStatus::PrimalInfeasible ||
        status == SolveStatus::DualInfeasible) {
        // No workload builds an unbounded problem.
        v.good = status == SolveStatus::PrimalInfeasible &&
            expect == Expect::PrimalInfeasible;
        v.wrong = !v.good;
        if (v.wrong)
            std::cerr << "perfbench: wrong answer on '" << qp.name
                      << "': " << rsqp::statusToString(status) << "\n";
        return v;
    }
    return v;  // rejected, shed, expired, iteration cap: no answer
}

// ---------------------------------------------------------------------

namespace
{

std::string
cpuBrand()
{
    unsigned regs[12] = {};
    unsigned maxExt = __get_cpuid_max(0x80000000u, nullptr);
    if (maxExt < 0x80000004u)
        return "unknown";
    for (unsigned i = 0; i < 3; ++i)
        __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                    &regs[4 * i + 2], &regs[4 * i + 3]);
    char brand[49] = {};
    std::memcpy(brand, regs, 48);
    std::string s(brand);
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    return b == std::string::npos ? "unknown" : s.substr(b, e - b + 1);
}

} // namespace

std::uint64_t
lastLevelCacheBytes()
{
    // Deterministic cache parameters (CPUID leaf 4): the highest level
    // reported is the last-level cache.
    std::uint64_t best = 0;
    unsigned bestLevel = 0;
    if (__get_cpuid_max(0, nullptr) < 4)
        return 0;
    for (unsigned sub = 0; sub < 16; ++sub) {
        unsigned a, b, c, d;
        __cpuid_count(4, sub, a, b, c, d);
        const unsigned type = a & 0x1f;
        if (type == 0)
            break;
        const unsigned level = (a >> 5) & 0x7;
        const std::uint64_t ways = ((b >> 22) & 0x3ff) + 1;
        const std::uint64_t parts = ((b >> 12) & 0x3ff) + 1;
        const std::uint64_t line = (b & 0xfff) + 1;
        const std::uint64_t sets = static_cast<std::uint64_t>(c) + 1;
        if (type != 2 && level >= bestLevel) {  // skip instruction caches
            bestLevel = level;
            best = ways * parts * line * sets;
        }
    }
    return best;
}

std::string
hostFingerprint(const Options& options)
{
    const std::string isa =
        rsqp::isaLevelName(rsqp::simd::activeIsaLevel());
    return jsonObject(
        {{"host_fingerprint",
          jsonObject(
              {{"cpu_model", jsonString(cpuBrand())},
               {"nproc", std::to_string(usableCpus())},
               {"llc_bytes", std::to_string(lastLevelCacheBytes())},
               {"simd_dispatch", jsonString(isa)},
               {"compiler", jsonString(PERFBENCH_COMPILER)},
               {"build_type", jsonString(PERFBENCH_BUILD_TYPE)},
               {"telemetry_compiled",
                rsqp::telemetry::kTelemetryCompiled ? "true" : "false"},
               {"source_id", jsonString(options.sourceId)},
               {"workload", jsonString(options.workload)},
               {"seed", std::to_string(options.seed)},
               {"seconds", jsonNumber(options.seconds)},
               {"trace", options.trace ? "1" : "0"}})}});
}

} // namespace perfbench
