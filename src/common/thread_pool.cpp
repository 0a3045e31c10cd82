#include "thread_pool.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <memory>

#include "common/logging.hpp"
#if RSQP_TELEMETRY_ENABLED
#include "telemetry/metrics.hpp"
#include "telemetry/trace.hpp"
#endif

namespace rsqp
{

namespace
{

#if RSQP_TELEMETRY_ENABLED
/** Process-wide pool metrics (shared by every ThreadPool instance). */
struct PoolMetrics
{
    telemetry::Counter& tasks;
    telemetry::Gauge& queueDepth;
    telemetry::Histogram& waitNs;
};

PoolMetrics&
poolMetrics()
{
    static PoolMetrics metrics{
        telemetry::MetricsRegistry::global().counter(
            "rsqp_threadpool_tasks_total",
            "Tasks submitted to the worker-pool queue"),
        telemetry::MetricsRegistry::global().gauge(
            "rsqp_threadpool_queue_depth",
            "Tasks currently waiting in the worker-pool queue"),
        telemetry::MetricsRegistry::global().histogram(
            "rsqp_threadpool_queue_wait_ns",
            "Nanoseconds a task waited in the queue before a worker "
            "picked it up"),
    };
    return metrics;
}
#endif

/** Innermost NumThreadsScope override of this thread (0 = none). */
thread_local Index tlsNumThreads = 0;

/** Is this thread currently running inside a parallel region? */
thread_local bool tlsInsideWorker = false;

struct InsideWorkerScope
{
    bool prev;
    InsideWorkerScope() : prev(tlsInsideWorker) { tlsInsideWorker = true; }
    ~InsideWorkerScope() { tlsInsideWorker = prev; }
};

} // namespace

unsigned
hardwareConcurrency()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

Index
effectiveNumThreads()
{
    if (tlsNumThreads > 0)
        return tlsNumThreads;
    return static_cast<Index>(hardwareConcurrency());
}

NumThreadsScope::NumThreadsScope(Index n) : prev_(tlsNumThreads)
{
    RSQP_ASSERT(n >= 0, "NumThreadsScope: negative count");
    if (n > 0)
        tlsNumThreads = n;
}

NumThreadsScope::~NumThreadsScope()
{
    tlsNumThreads = prev_;
}

ThreadPool::ThreadPool(unsigned num_workers)
{
    workers_.reserve(num_workers);
    for (unsigned i = 0; i < num_workers; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    wake_.notify_all();
    for (std::thread& worker : workers_)
        worker.join();
}

void
ThreadPool::workerLoop()
{
    InsideWorkerScope inside;
    while (true) {
        QueuedTask task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            wake_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return; // stop requested and queue drained
            task = std::move(queue_.front());
            queue_.pop_front();
#if RSQP_TELEMETRY_ENABLED
            poolMetrics().queueDepth.set(
                static_cast<std::int64_t>(queue_.size()));
#endif
        }
#if RSQP_TELEMETRY_ENABLED
        poolMetrics().waitNs.observe(telemetry::traceNowNs() -
                                     task.enqueuedNs);
#endif
        task.fn();
        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inFlight_;
            if (inFlight_ == 0)
                idle_.notify_all();
        }
    }
}

void
ThreadPool::submit(std::function<void()> task)
{
    if (workers_.empty()) {
        // No workers: degenerate inline execution keeps submit() usable.
        InsideWorkerScope inside;
        task();
        return;
    }
    QueuedTask queued;
    queued.fn = std::move(task);
#if RSQP_TELEMETRY_ENABLED
    queued.enqueuedNs = telemetry::traceNowNs();
#endif
    {
        std::lock_guard<std::mutex> lock(mutex_);
        RSQP_ASSERT(!stop_, "submit on a stopping ThreadPool");
        queue_.push_back(std::move(queued));
        ++inFlight_;
#if RSQP_TELEMETRY_ENABLED
        poolMetrics().tasks.increment();
        poolMetrics().queueDepth.set(
            static_cast<std::int64_t>(queue_.size()));
#endif
    }
    wake_.notify_one();
}

void
ThreadPool::waitIdle()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] { return inFlight_ == 0; });
}

void
ThreadPool::parallelFor(Index begin, Index end, Index grain,
                        const std::function<void(Index, Index)>& fn,
                        unsigned max_workers)
{
    if (end <= begin)
        return;
    if (grain < 1)
        grain = 1;
    const Count span = static_cast<Count>(end) - begin;
    const Count num_chunks = (span + grain - 1) / grain;

    Count budget = max_workers > 0 ? static_cast<Count>(max_workers)
                                   : static_cast<Count>(
                                         effectiveNumThreads());
    budget = std::min(budget,
                      static_cast<Count>(workers_.size()) + 1);
    budget = std::min(budget, num_chunks);

    if (budget <= 1 || tlsInsideWorker) {
        // Serial fallback / nested region: the whole range runs inline.
        InsideWorkerScope inside;
        fn(begin, end);
        return;
    }

    // Completion state lives on the heap, kept alive by the tasks
    // themselves: a helper still queued when the caller returns (all
    // chunks already claimed and finished) wakes up later, fails to
    // claim a chunk and touches only this block — never the caller's
    // stack frame. The caller waits on finished == num_chunks, and a
    // chunk can only be claimed before it is finished, so fn (captured
    // by reference below) outlives every fn() call.
    struct RegionState
    {
        std::atomic<Count> nextChunk{0};
        std::atomic<bool> failed{false};
        std::mutex mutex; // guards finished and error
        std::condition_variable done;
        Count finished = 0;
        std::exception_ptr error;
    };
    auto state = std::make_shared<RegionState>();

    auto run_chunks = [state, begin, end, grain, num_chunks, &fn] {
        InsideWorkerScope inside;
        Count finished_here = 0;
        while (true) {
            const Count chunk = state->nextChunk.fetch_add(1);
            if (chunk >= num_chunks)
                break;
            // After a failure the remaining chunks are still claimed
            // and counted (so the caller's wait terminates) but their
            // bodies are skipped.
            if (!state->failed.load(std::memory_order_relaxed)) {
                const Index b =
                    begin + static_cast<Index>(chunk * grain);
                const Index e = static_cast<Index>(std::min<Count>(
                    static_cast<Count>(b) + grain, end));
                try {
                    fn(b, e);
                } catch (...) {
                    std::lock_guard<std::mutex> lock(state->mutex);
                    if (!state->error)
                        state->error = std::current_exception();
                    state->failed.store(true);
                }
            }
            ++finished_here;
        }
        if (finished_here > 0) {
            std::lock_guard<std::mutex> lock(state->mutex);
            state->finished += finished_here;
            if (state->finished == num_chunks)
                state->done.notify_all();
        }
    };

    for (Count i = 0; i + 1 < budget; ++i)
        submit(run_chunks);
    run_chunks();

    std::exception_ptr error;
    {
        std::unique_lock<std::mutex> lock(state->mutex);
        state->done.wait(
            lock, [&] { return state->finished == num_chunks; });
        error = state->error;
    }
    if (error)
        std::rethrow_exception(error);
}

ThreadPool&
ThreadPool::global()
{
    // Capacity, not policy: per-call width is bounded by the caller's
    // effectiveNumThreads(). A floor of 3 workers keeps the parallel
    // machinery exercised (tests, TSan) even on small hosts.
    static ThreadPool pool(std::max(3u, hardwareConcurrency() - 1));
    return pool;
}

bool
ThreadPool::insideWorker()
{
    return tlsInsideWorker;
}

} // namespace rsqp
