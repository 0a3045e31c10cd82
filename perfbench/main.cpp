// Entry point of the repository benchmark. Prints the host fingerprint
// first, then detail lines, and as its last line the result object.
// Untraced runs report the workload's end-to-end metrics; traced runs
// (--trace 1) run the workload untraced and then traced for half the
// window each, and report the per-layer catalog, including the
// difference between the two halves as the tracing overhead.

#include <exception>
#include <iostream>

#include "workloads.hpp"

namespace
{

using namespace perfbench;

using RunFn = RunResult (*)(const Options&, double, Tracer&);

RunFn
workloadFn(const std::string& name)
{
    if (name == "mpc-closed")
        return &runMpcClosed;
    if (name == "mixed-open")
        return &runMixedOpen;
    if (name == "large-host")
        return &runLargeHost;
    return nullptr;
}

bool
allPresent(const MetricSet& metrics, const std::vector<std::string>& names)
{
    for (const std::string& n : names)
        if (!metrics.has(n)) {
            std::cerr << "perfbench: metric " << n << " missing\n";
            return false;
        }
    return true;
}

int
run(const Options& options)
{
    const RunFn fn = workloadFn(options.workload);
    const std::vector<std::string>& names = endToEndNames();
    if (fn == nullptr) {
        std::cerr << "perfbench: unknown workload " << options.workload
                  << " (mpc-closed, mixed-open, large-host)\n";
        return 2;
    }
    std::cout << hostFingerprint(options) << std::endl;

    if (!options.trace) {
        Tracer off(false);
        const RunResult r = fn(options, options.seconds, off);
        for (const std::string& d : r.details)
            std::cout << d << "\n";
        if (!allPresent(r.endToEnd, names))
            return 1;
        std::cout << resultLine(r.correct, r.attempted, r.failed,
                                r.endToEnd)
                  << std::endl;
        return r.correct ? 0 : 1;
    }

    const double half = options.seconds / 2.0;
    Tracer off(false);
    const RunResult plain = fn(options, half, off);
    Tracer on(true);
    RunResult traced = fn(options, half, on);
    if (!allPresent(plain.endToEnd, names) ||
        !allPresent(traced.endToEnd, names))
        return 1;

    MetricSet layers = traced.layers;
    for (const std::string& n : names) {
        const double a = plain.endToEnd.value(n);
        const double b = traced.endToEnd.value(n);
        layers.set("telemetry.trace_overhead_pct." + n,
                   a != 0.0 ? 100.0 * (b - a) / a : 0.0, "%");
    }
    completeLayers(layers);

    const std::string path = options.traceDir + "/perfbench_trace_" +
        options.workload + "_" + std::to_string(options.seed) + ".jsonl";
    const bool written = on.write(path);
    std::string selfTimes = "{";
    bool first = true;
    for (const auto& [name, entry] : selfTimeByName(on.spans())) {
        selfTimes += std::string(first ? "" : ", ") + jsonString(name) +
            ": " +
            jsonObject({{"self_ms", jsonNumber(entry.first * 1e3)},
                        {"spans", std::to_string(entry.second)}});
        first = false;
    }
    selfTimes += "}";

    for (const std::string& d : plain.details)
        std::cout << d << "\n";
    for (const std::string& d : traced.details)
        std::cout << d << "\n";
    std::cout << jsonObject({{"detail", jsonString("spans")},
                             {"file", jsonString(written ? path : "")},
                             {"self_time_by_name", selfTimes}})
              << "\n";
    std::cout << jsonObject({{"detail", jsonString("untraced_end_to_end")},
                             {"metrics", plain.endToEnd.toJson()}})
              << "\n";
    std::cout << jsonObject({{"detail", jsonString("traced_end_to_end")},
                             {"metrics", traced.endToEnd.toJson()}})
              << "\n";
    const bool correct = plain.correct && traced.correct;
    std::cout << resultLine(correct, plain.attempted + traced.attempted,
                            plain.failed + traced.failed, layers)
              << std::endl;
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    const Options options = parseOptions(argc, argv);
    try {
        return run(options);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
