/**
 * @file
 * Fixed-size worker pool for work *across* solves: the service's
 * stream launch (service/service.cpp) and the multi-instance batch
 * solver (core/rsqp_solver::solveBatch). A single solve never fans
 * out; its kernels run serially on the calling thread (see
 * linalg/vector_ops.hpp for the fixed reduction order).
 *
 * Design goals, in priority order:
 *
 *  1. **Determinism.** parallelFor partitions a range into chunks of a
 *     *fixed* grain, so the chunk boundaries depend only on the range
 *     and grain, never on the thread count or on scheduling.
 *  2. **Nested safety.** A parallelFor issued from inside a pool task
 *     runs inline (serially) instead of re-entering the pool, so
 *     nested parallel regions can never deadlock and never
 *     oversubscribe.
 *  3. **Exact serial fallback.** With an effective thread count of 1
 *     the pool is bypassed entirely: the body runs inline on the
 *     calling thread.
 *
 * The effective thread count is resolved per calling thread: a
 * NumThreadsScope override if one is active, else
 * std::thread::hardware_concurrency.
 */

#ifndef RSQP_COMMON_THREAD_POOL_HPP
#define RSQP_COMMON_THREAD_POOL_HPP

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "common/types.hpp"
#include "telemetry/config.hpp"

namespace rsqp
{

/** Hardware thread count (always >= 1). */
unsigned hardwareConcurrency();

/**
 * Thread count the calling thread would use for a parallel region
 * (>= 1): the innermost NumThreadsScope override, else
 * hardwareConcurrency().
 */
Index effectiveNumThreads();

/**
 * RAII thread-local override of the effective thread count seen by
 * parallelFor / parallelForRange on this thread. 0 = inherit.
 */
class NumThreadsScope
{
  public:
    explicit NumThreadsScope(Index n);
    ~NumThreadsScope();

    NumThreadsScope(const NumThreadsScope&) = delete;
    NumThreadsScope& operator=(const NumThreadsScope&) = delete;

  private:
    Index prev_;
};

/** Fixed-size worker pool with fixed-grain parallel ranges. */
class ThreadPool
{
  public:
    /** Spawn num_workers worker threads (0 = everything runs inline). */
    explicit ThreadPool(unsigned num_workers);
    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Number of worker threads (the caller participates on top). */
    unsigned workerCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Fire-and-forget task; safe to call from inside a pool task. */
    void submit(std::function<void()> task);

    /** Block until the submit() queue is empty and all tasks finished. */
    void waitIdle();

    /**
     * Apply fn(chunk_begin, chunk_end) over [begin, end) partitioned
     * into grain-sized chunks, using at most max_workers threads
     * (0 = the caller's effectiveNumThreads()). Blocks until every
     * chunk finished — but not until every queued helper task was
     * dequeued: helpers that start after the range is drained no-op
     * against heap-owned region state, so a busy pool never stalls an
     * unrelated caller. The first exception thrown by fn is rethrown
     * here. Runs inline when the budget is 1, the range is a single
     * chunk, or the caller is already inside a pool task.
     */
    void parallelFor(Index begin, Index end, Index grain,
                     const std::function<void(Index, Index)>& fn,
                     unsigned max_workers = 0);

    /** The shared process-wide pool: service streams and solveBatch. */
    static ThreadPool& global();

    /** Is the calling thread inside a task of any ThreadPool? */
    static bool insideWorker();

  private:
    /**
     * Queue element: the task plus its enqueue timestamp, so workers
     * can report queue-wait time to the metrics registry. The stamp
     * compiles out with the rest of the timed telemetry.
     */
    struct QueuedTask
    {
        std::function<void()> fn;
#if RSQP_TELEMETRY_ENABLED
        std::uint64_t enqueuedNs = 0;
#endif
    };

    void workerLoop();

    std::vector<std::thread> workers_;
    std::deque<QueuedTask> queue_;
    mutable std::mutex mutex_;
    std::condition_variable wake_;
    std::condition_variable idle_;
    std::size_t inFlight_ = 0;
    bool stop_ = false;
};

/** Grain (elements per chunk) of parallelForRange and of the fixed
 *  reduction order in linalg/vector_ops. */
inline constexpr Index kParallelGrain = 4096;

/** Minimum range length before parallelForRange fans out; also the
 *  length at which vector_ops reductions switch to chunked order. */
inline constexpr Index kParallelThreshold = 8192;

/**
 * Convenience wrapper over the global pool: chunk [0, n) with the
 * default grain when worthwhile, else run body(0, n) inline. Templated
 * on the body so the inline path never materializes a std::function:
 * a serial caller (1 effective thread, small range, or nested inside a
 * worker) performs zero heap allocations here.
 */
template <typename Body>
inline void
parallelForRange(Index n, Body&& body)
{
    if (n <= 0)
        return;
    if (n < kParallelThreshold || effectiveNumThreads() <= 1 ||
        ThreadPool::insideWorker()) {
        body(0, n);
        return;
    }
    ThreadPool::global().parallelFor(0, n, kParallelGrain,
                                     std::forward<Body>(body));
}

} // namespace rsqp

#endif // RSQP_COMMON_THREAD_POOL_HPP
