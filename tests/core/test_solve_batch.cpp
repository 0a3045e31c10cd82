/**
 * @file
 * solveBatch tests: batch results must match standalone per-problem
 * solves bit for bit at any batch width, exceptions must propagate,
 * and the simulated machine must give the same result under any
 * ambient thread count (a single solve never fans out).
 */

#include <gtest/gtest.h>

#include "common/logging.hpp"
#include "common/thread_pool.hpp"
#include "core/rsqp_solver.hpp"
#include "problems/suite.hpp"

namespace rsqp
{
namespace
{

OsqpSettings
settingsFor()
{
    OsqpSettings settings;
    settings.backend = KktBackend::IndirectPcg;
    return settings;
}

std::vector<QpProblem>
smallSuite()
{
    std::vector<QpProblem> problems;
    problems.push_back(generateProblem(Domain::Portfolio, 30, 21));
    problems.push_back(generateProblem(Domain::Lasso, 20, 22));
    problems.push_back(generateProblem(Domain::Svm, 20, 23));
    problems.push_back(generateProblem(Domain::Control, 6, 24));
    problems.push_back(generateProblem(Domain::Eqqp, 30, 25));
    problems.push_back(generateProblem(Domain::Huber, 20, 26));
    return problems;
}

TEST(SolveBatch, MatchesStandaloneSolvesBitwise)
{
    const std::vector<QpProblem> problems = smallSuite();
    CustomizeSettings custom;
    custom.c = 16;

    std::vector<RsqpResult> serial;
    for (const QpProblem& qp : problems) {
        RsqpSolver solver(qp, settingsFor(), custom);
        serial.push_back(solver.solve());
    }

    for (Index width : {1, 4, 8}) {
        const std::vector<RsqpResult> batch =
            solveBatch(problems, settingsFor(), custom, width);
        ASSERT_EQ(batch.size(), problems.size());
        for (std::size_t i = 0; i < batch.size(); ++i) {
            EXPECT_EQ(batch[i].status, serial[i].status);
            EXPECT_EQ(batch[i].iterations, serial[i].iterations);
            EXPECT_EQ(batch[i].machineStats.totalCycles,
                      serial[i].machineStats.totalCycles);
            // Bitwise, not approximate: each solve is serial and the
            // kernels are deterministic.
            ASSERT_EQ(batch[i].x, serial[i].x)
                << "width " << width << " problem " << i;
            ASSERT_EQ(batch[i].y, serial[i].y);
        }
    }
}

TEST(SolveBatch, EmptyBatch)
{
    CustomizeSettings custom;
    EXPECT_TRUE(solveBatch({}, settingsFor(), custom, 4).empty());
}

TEST(SolveBatch, InvalidInstanceIsolatedFromBatch)
{
    std::vector<QpProblem> problems = smallSuite();
    // Invalid bounds (l > u): the affected instance must report a
    // typed failure with diagnostics while the rest of the batch
    // solves normally — one bad QP no longer poisons the fleet.
    problems[2].l[0] = 2.0;
    problems[2].u[0] = -2.0;
    CustomizeSettings custom;
    custom.c = 16;
    const std::vector<RsqpResult> results =
        solveBatch(problems, settingsFor(), custom, 4);
    ASSERT_EQ(results.size(), problems.size());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i == 2) {
            EXPECT_EQ(results[i].status, SolveStatus::InvalidProblem);
            EXPECT_TRUE(results[i].validation.has(
                ValidationCode::InfeasibleBounds));
        } else {
            EXPECT_EQ(results[i].status, SolveStatus::Solved) << i;
        }
    }
}

TEST(ThreadedMachine, SolveDeterministicAcrossNumThreads)
{
    const QpProblem qp = generateProblem(Domain::Portfolio, 40, 27);

    auto run = [&](Index threads) {
        NumThreadsScope scope(threads);
        CustomizeSettings custom;
        custom.c = 32;
        RsqpSolver solver(qp, settingsFor(), custom);
        return solver.solve();
    };

    const RsqpResult serial = run(1);
    ASSERT_EQ(serial.status, SolveStatus::Solved);
    for (Index threads : {2, 8}) {
        const RsqpResult threaded = run(threads);
        EXPECT_EQ(threaded.iterations, serial.iterations);
        EXPECT_EQ(threaded.machineStats.totalCycles,
                  serial.machineStats.totalCycles);
        ASSERT_EQ(threaded.x, serial.x) << "threads " << threads;
        ASSERT_EQ(threaded.y, serial.y);
        ASSERT_EQ(threaded.z, serial.z);
    }
}

} // namespace
} // namespace rsqp
