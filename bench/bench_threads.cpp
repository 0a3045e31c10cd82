/**
 * @file
 * Host-threading scaling study: wall clock and speedup versus thread
 * count of solveBatch over independent QP instances — the threading
 * that pays here, since each solve itself runs serially.
 *
 * Flags:
 *   --quick         small sizes / few reps (CI smoke)
 *   --csv           CSV instead of the aligned table
 *   --json          JSON array on stdout (machine-readable artifact)
 *   --threads=LIST  comma-separated thread counts (default 1,2,4,8)
 */

#include <algorithm>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/table.hpp"
#include "common/thread_pool.hpp"
#include "core/rsqp.hpp"

namespace
{

using namespace rsqp;

struct Options
{
    bool quick = false;
    bool csv = false;
    bool json = false;
    std::vector<Index> threads = {1, 2, 4, 8};
};

Options
parseOptions(int argc, char** argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            options.quick = true;
        } else if (arg == "--csv") {
            options.csv = true;
        } else if (arg == "--json") {
            options.json = true;
        } else if (arg.rfind("--threads=", 0) == 0) {
            options.threads.clear();
            std::stringstream ss(arg.substr(10));
            std::string item;
            while (std::getline(ss, item, ',')) {
                if (item.empty() ||
                    item.find_first_not_of("0123456789") !=
                        std::string::npos) {
                    std::cerr << "--threads expects a comma-separated"
                                 " list of positive integers, got: "
                              << item << "\n";
                    std::exit(2);
                }
                const Index count =
                    static_cast<Index>(std::stoi(item));
                if (count < 1) {
                    std::cerr << "--threads values must be >= 1\n";
                    std::exit(2);
                }
                options.threads.push_back(count);
            }
        } else {
            std::cerr << "unknown flag: " << arg << "\n"
                      << "flags: --quick --csv --json --threads=LIST\n";
            std::exit(2);
        }
    }
    if (options.threads.empty() || options.threads.front() != 1)
        options.threads.insert(options.threads.begin(), 1);
    return options;
}

/** Best-of-reps wall clock of fn(), in seconds. */
template <typename Fn>
double
timeBest(int reps, Fn&& fn)
{
    double best = 1e100;
    for (int r = 0; r < reps; ++r) {
        Timer timer;
        fn();
        best = std::min(best, timer.seconds());
    }
    return best;
}

struct Row
{
    std::string kernel;
    Index threads = 1;
    double seconds = 0.0;
    double speedup = 1.0;
};

/** solveBatch over independent QP instances. */
std::vector<Row>
benchBatch(const Options& options)
{
    const Index size = options.quick ? 16 : 40;
    const int reps = options.quick ? 2 : 3;

    std::vector<QpProblem> problems;
    const auto& domains = allDomains();
    for (int i = 0; i < 8; ++i)
        problems.push_back(generateProblem(
            domains[static_cast<std::size_t>(i) % domains.size()], size,
            static_cast<std::uint64_t>(40 + i)));

    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    CustomizeSettings custom;
    custom.c = 32;

    std::vector<Row> rows;
    for (Index threads : options.threads) {
        Row row;
        row.kernel = "solve_batch_8";
        row.threads = threads;
        row.seconds = timeBest(reps, [&] {
            auto results = solveBatch(problems, settings, custom,
                                      threads);
            if (results.empty())
                std::abort();
        });
        rows.push_back(row);
    }
    return rows;
}

void
fillSpeedups(std::vector<Row>& rows)
{
    std::map<std::string, double> serial;
    for (const Row& row : rows)
        if (row.threads == 1)
            serial[row.kernel] = row.seconds;
    for (Row& row : rows)
        if (row.seconds > 0.0 && serial.count(row.kernel) != 0)
            row.speedup = serial[row.kernel] / row.seconds;
}

std::string
formatDouble(double value, int precision)
{
    std::ostringstream os;
    os.precision(precision);
    os << std::fixed << value;
    return os.str();
}

} // namespace

int
main(int argc, char** argv)
{
    const Options options = parseOptions(argc, argv);

    std::vector<Row> rows = benchBatch(options);
    fillSpeedups(rows);

    if (options.json) {
        std::cout << "[\n";
        for (std::size_t i = 0; i < rows.size(); ++i) {
            const Row& row = rows[i];
            std::cout << "  {\"kernel\": \""
                      << bench::jsonEscape(row.kernel)
                      << "\", \"threads\": " << row.threads
                      << ", \"seconds\": "
                      << formatDouble(row.seconds, 6)
                      << ", \"speedup\": "
                      << formatDouble(row.speedup, 3) << "}"
                      << (i + 1 < rows.size() ? "," : "") << "\n";
        }
        std::cout << "]\n";
        return 0;
    }

    TextTable table({"kernel", "threads", "seconds", "speedup"});
    for (const Row& row : rows)
        table.addRow({row.kernel, std::to_string(row.threads),
                      formatDouble(row.seconds, 6),
                      formatDouble(row.speedup, 2)});
    std::cout << "# solveBatch scaling (host threads: "
              << hardwareConcurrency() << " hardware)\n";
    if (options.csv)
        table.printCsv(std::cout);
    else
        table.print(std::cout);
    return 0;
}
