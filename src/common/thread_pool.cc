#include "common/thread_pool.hh"

#include <algorithm>

#include "common/logging.hh"

namespace regless
{

ThreadPool::ThreadPool(unsigned num_threads)
    : _cursors(std::max(num_threads, 1u))
{
    _workers.reserve(_cursors.size() - 1);
    for (unsigned w = 1; w < _cursors.size(); ++w)
        _workers.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lock(_mutex);
        _stopping = true;
    }
    _wakeWorkers.notify_all();
    for (std::thread &t : _workers)
        t.join();
}

unsigned
ThreadPool::defaultThreads(unsigned jobs)
{
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0)
        hw = 1;
    return std::max(1u, std::min(jobs, hw));
}

void
ThreadPool::drainBatch(unsigned self,
                       const std::function<void(std::size_t)> &fn,
                       std::size_t count)
{
    // Own items first, then each other worker's from self + 1 on,
    // front first: a thief takes the victim's next item in order.
    const std::size_t n = _cursors.size();
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t owner = (self + k) % n;
        std::atomic<std::size_t> &claimed = _cursors[owner].claimed;
        for (;;) {
            const std::size_t i =
                owner + claimed.fetch_add(1, std::memory_order_relaxed) * n;
            if (i >= count)
                break;
            fn(i);
        }
    }
}

void
ThreadPool::workerLoop(unsigned self)
{
    std::uint64_t seen = 0;
    for (;;) {
        const std::function<void(std::size_t)> *job = nullptr;
        std::size_t count = 0;
        {
            std::unique_lock<std::mutex> lock(_mutex);
            _wakeWorkers.wait(lock, [&] {
                return _stopping || _generation != seen;
            });
            if (_stopping)
                return;
            seen = _generation;
            job = _job;
            count = _count;
        }
        drainBatch(self, *job, count);
        {
            std::lock_guard<std::mutex> lock(_mutex);
            // Every item a worker claimed is finished before it acks,
            // so all-acked (plus the caller's own drain) means the
            // whole batch is done.
            if (++_acked == _workers.size())
                _batchDone.notify_one();
        }
    }
}

void
ThreadPool::parallelFor(std::size_t count,
                        const std::function<void(std::size_t)> &fn)
{
    if (count == 0)
        return;
    if (_workers.empty() || count == 1) {
        for (std::size_t i = 0; i < count; ++i)
            fn(i);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(_mutex);
        if (_job)
            panic("re-entrant ThreadPool::parallelFor");
        _job = &fn;
        _count = count;
        for (Cursor &cursor : _cursors)
            cursor.claimed.store(0, std::memory_order_relaxed);
        _acked = 0;
        ++_generation;
    }
    _wakeWorkers.notify_all();

    // The caller works too, as worker 0; a pool of size 1 ran
    // everything inline above, so the serial path never touches the
    // machinery.
    drainBatch(0, fn, count);

    std::unique_lock<std::mutex> lock(_mutex);
    _batchDone.wait(lock, [&] { return _acked == _workers.size(); });
    _job = nullptr;
}

} // namespace regless
