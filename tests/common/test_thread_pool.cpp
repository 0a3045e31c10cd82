/**
 * @file
 * Tests of the shared worker pool: range coverage, zero/one-element
 * ranges, exception propagation, nested parallelFor/submit, pool
 * reuse and the NumThreadsScope override.
 */

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hpp"

namespace rsqp
{
namespace
{

TEST(ThreadPool, ZeroLengthRangeIsANoop)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelFor(5, 5, 1, [&](Index, Index) { ++calls; });
    pool.parallelFor(7, 3, 1, [&](Index, Index) { ++calls; });
    EXPECT_EQ(calls.load(), 0);
}

TEST(ThreadPool, OneElementRange)
{
    ThreadPool pool(2);
    std::atomic<int> calls{0};
    pool.parallelFor(3, 4, 16, [&](Index b, Index e) {
        EXPECT_EQ(b, 3);
        EXPECT_EQ(e, 4);
        ++calls;
    });
    EXPECT_EQ(calls.load(), 1);
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    const Index n = 10007; // prime, not a multiple of any grain
    std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
    for (auto& h : hits)
        h.store(0);
    // Explicit worker budget: the default follows the host thread
    // count, which may be 1 on small CI machines.
    pool.parallelFor(0, n, 64, [&](Index b, Index e) {
        for (Index i = b; i < e; ++i)
            ++hits[static_cast<std::size_t>(i)];
    }, 4);
    for (Index i = 0; i < n; ++i)
        ASSERT_EQ(hits[static_cast<std::size_t>(i)].load(), 1)
            << "index " << i;
}

TEST(ThreadPool, ExceptionPropagatesAndPoolSurvives)
{
    ThreadPool pool(3);
    EXPECT_THROW(
        pool.parallelFor(0, 1000, 8,
                         [&](Index b, Index) {
                             if (b >= 496)
                                 throw std::runtime_error("chunk boom");
                         },
                         4),
        std::runtime_error);

    // The pool must stay usable after a failed region.
    std::atomic<Index> total{0};
    pool.parallelFor(0, 1000, 8, [&](Index b, Index e) {
        total += e - b;
    }, 4);
    EXPECT_EQ(total.load(), 1000);
}

TEST(ThreadPool, NestedParallelForRunsInlineWithoutDeadlock)
{
    ThreadPool pool(2);
    std::atomic<Index> total{0};
    pool.parallelFor(0, 8, 1, [&](Index b, Index e) {
        for (Index i = b; i < e; ++i) {
            EXPECT_TRUE(ThreadPool::insideWorker());
            // Nested region: must complete inline, not re-enter the
            // pool (which would deadlock with every worker waiting).
            pool.parallelFor(0, 100, 10, [&](Index nb, Index ne) {
                total += ne - nb;
            }, 3);
        }
    }, 3);
    EXPECT_EQ(total.load(), 8 * 100);
    EXPECT_FALSE(ThreadPool::insideWorker());
}

TEST(ThreadPool, NestedSubmitFromWorker)
{
    ThreadPool pool(2);
    std::atomic<bool> inner_ran{false};
    pool.submit([&] {
        pool.submit([&] { inner_ran.store(true); });
    });
    pool.waitIdle();
    EXPECT_TRUE(inner_ran.load());
}

TEST(ThreadPool, ZeroWorkerPoolRunsInline)
{
    ThreadPool pool(0);
    EXPECT_EQ(pool.workerCount(), 0u);
    bool ran = false;
    pool.submit([&] { ran = true; });
    EXPECT_TRUE(ran);
    std::atomic<Index> total{0};
    pool.parallelFor(0, 100, 10, [&](Index b, Index e) {
        total += e - b;
    });
    EXPECT_EQ(total.load(), 100);
}

TEST(ThreadPool, CallerReturnsWhileWorkersAreBusyElsewhere)
{
    // Regression: parallelFor must wait for the *chunks* to finish,
    // not for its queued helper tasks to be dequeued. With every
    // worker pinned by an unrelated long-running task, the caller
    // drains the whole range itself and must return before the
    // workers free up (the old handshake deadlocked here).
    ThreadPool pool(2);
    std::mutex gate_mutex;
    std::condition_variable gate;
    bool release = false;
    for (int i = 0; i < 2; ++i)
        pool.submit([&] {
            std::unique_lock<std::mutex> lock(gate_mutex);
            gate.wait(lock, [&] { return release; });
        });

    std::atomic<Index> total{0};
    pool.parallelFor(0, 1000, 10,
                     [&](Index b, Index e) { total += e - b; }, 4);
    EXPECT_EQ(total.load(), 1000);

    {
        std::lock_guard<std::mutex> lock(gate_mutex);
        release = true;
    }
    gate.notify_all();
    pool.waitIdle();
}

TEST(ThreadPool, ReuseAcrossManyRegions)
{
    ThreadPool pool(3);
    for (int round = 0; round < 50; ++round) {
        std::atomic<Index> total{0};
        pool.parallelFor(0, 999, 7, [&](Index b, Index e) {
            total += e - b;
        }, 4);
        ASSERT_EQ(total.load(), 999) << "round " << round;
    }
}

TEST(ThreadPool, NumThreadsScopeOverridesAndRestores)
{
    const Index ambient = effectiveNumThreads();
    EXPECT_GE(ambient, 1);
    {
        NumThreadsScope scope(3);
        EXPECT_EQ(effectiveNumThreads(), 3);
        {
            // 0 = inherit: keeps the innermost active override.
            NumThreadsScope inherit(0);
            EXPECT_EQ(effectiveNumThreads(), 3);
            NumThreadsScope inner(7);
            EXPECT_EQ(effectiveNumThreads(), 7);
        }
        EXPECT_EQ(effectiveNumThreads(), 3);
    }
    EXPECT_EQ(effectiveNumThreads(), ambient);
}

TEST(ThreadPool, GlobalPoolIsUsable)
{
    std::atomic<Index> total{0};
    ThreadPool::global().parallelFor(0, 1000, 16,
                                     [&](Index b, Index e) {
                                         total += e - b;
                                     },
                                     4);
    EXPECT_EQ(total.load(), 1000);
    EXPECT_GE(ThreadPool::global().workerCount(), 3u);
}

} // namespace
} // namespace rsqp
