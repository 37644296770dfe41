/**
 * @file
 * Minimal persistent worker pool for barrier-synchronized parallel
 * loops.
 *
 * Built for the multi-SM executor, which dispatches one small batch of
 * independent per-SM jobs every simulated epoch: workers persist across
 * dispatches (no thread spawn per epoch), and the calling thread
 * participates in the work so a pool of size 1 runs everything inline
 * on the caller — the serial reference path and the parallel path are
 * the same code.
 *
 * Claim order: of a pool of T workers (the caller is worker 0), worker
 * w first runs its home items w, w+T, w+2T, … in increasing order,
 * then steals the unclaimed items of the other workers. A batch of the
 * same size therefore puts item i on the same worker every dispatch
 * unless it is stolen, so a multi-SM run keeps each SM's state in one
 * core's cache, and the items of a batch still start in about their
 * index order.
 *
 * Determinism contract: parallelFor() makes no ordering promise between
 * items; callers must ensure items touch disjoint state (plus read-only
 * shared state) so results are independent of the worker assignment.
 */

#ifndef REGLESS_COMMON_THREAD_POOL_HH
#define REGLESS_COMMON_THREAD_POOL_HH

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace regless
{

/** Fixed-size pool executing indexed parallel-for batches. */
class ThreadPool
{
  public:
    /**
     * @param num_threads Total workers including the calling thread;
     *        1 (or 0) means no extra threads — fully inline execution.
     */
    explicit ThreadPool(unsigned num_threads);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Workers available including the caller (>= 1). */
    unsigned size() const
    {
        return static_cast<unsigned>(_workers.size()) + 1;
    }

    /**
     * Run fn(i) for every i in [0, count) and wait for completion.
     * fn is invoked concurrently on distinct indices; each index runs
     * exactly once. Must not be called re-entrantly from within fn.
     */
    void parallelFor(std::size_t count,
                     const std::function<void(std::size_t)> &fn);

    /**
     * Reasonable default worker count for @a jobs parallel jobs:
     * min(jobs, hardware_concurrency), at least 1.
     */
    static unsigned defaultThreads(unsigned jobs);

  private:
    /**
     * Worker w's home items claimed so far this batch: the k-th claim
     * takes item w + k * size(). The owner and thieves claim through
     * the same fetch_add, so each item is claimed exactly once. Padded
     * so that one worker's claims never invalidate another's line.
     */
    struct alignas(64) Cursor
    {
        std::atomic<std::size_t> claimed{0};
    };

    void workerLoop(unsigned self);

    /** Run worker @a self's home items, then steal until the batch is
     *  exhausted. */
    void drainBatch(unsigned self,
                    const std::function<void(std::size_t)> &fn,
                    std::size_t count);

    std::vector<std::thread> _workers;
    /** One per worker, the caller's first. */
    std::vector<Cursor> _cursors;

    std::mutex _mutex;
    std::condition_variable _wakeWorkers;
    std::condition_variable _batchDone;
    /** Incremented per dispatch; workers watch it to pick up batches. */
    std::uint64_t _generation = 0;
    /** Workers that finished draining the current batch. */
    unsigned _acked = 0;
    bool _stopping = false;

    const std::function<void(std::size_t)> *_job = nullptr;
    std::size_t _count = 0;
};

} // namespace regless

#endif // REGLESS_COMMON_THREAD_POOL_HH
