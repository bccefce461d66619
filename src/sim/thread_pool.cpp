#include "thread_pool.hpp"

#include <algorithm>
#include <charconv>
#include <cstdlib>
#include <cstring>

#include "logging.hpp"

namespace quest::sim {

namespace {

/** Set while the current thread is inside a pool job: nested
    forRange calls run inline rather than deadlocking the pool. */
thread_local bool t_inJob = false;

/** Largest QUEST_THREADS honoured (the gate benches' --threads cap). */
constexpr std::size_t maxEnvThreads = 1024;

} // namespace

ThreadPool::ThreadPool(std::size_t threads)
{
    if (threads == 0)
        threads = defaultThreads();
    _workers.reserve(threads - 1);
    for (std::size_t w = 0; w + 1 < threads; ++w)
        _workers.emplace_back([this, w] { workerLoop(w); });
}

ThreadPool::~ThreadPool()
{
    {
        std::lock_guard<std::mutex> lk(_mutex);
        _shutdown = true;
    }
    _wake.notify_all();
    for (std::thread &t : _workers)
        t.join();
}

std::size_t
ThreadPool::defaultThreads()
{
    if (const char *env = std::getenv("QUEST_THREADS")) {
        // The whole string must be one count in [1, maxEnvThreads]:
        // "4x" is a typo, not 4, and a runaway value must not spawn
        // that many threads.
        const char *end = env + std::strlen(env);
        std::size_t n = 0;
        const auto [ptr, ec] = std::from_chars(env, end, n);
        if (ec == std::errc() && ptr == end && n >= 1
            && n <= maxEnvThreads)
            return n;
        warn("ignoring invalid QUEST_THREADS=%s", env);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(defaultThreads());
    return pool;
}

void
ThreadPool::forRange(std::uint64_t n, std::uint64_t chunk,
                     const RangeFn &body)
{
    if (n == 0)
        return;
    if (chunk == 0)
        chunk = 1;

    // No workers, or already inside a pool job: run inline. The
    // chunk partition is preserved so chunk-aligned callers (e.g.
    // parallelReduce partials) see identical ranges.
    if (_workers.empty() || t_inJob) {
        for (std::uint64_t begin = 0; begin < n; begin += chunk)
            body(begin, std::min(begin + chunk, n));
        return;
    }

    std::lock_guard<std::mutex> submit(_submitMutex);

    Job job;
    job.body = &body;
    job.chunk = chunk;
    job.pendingIndices.store(n, std::memory_order_relaxed);

    // Deal chunks into one contiguous, chunk-aligned shard per
    // participant. The partition depends only on (n, chunk, pool
    // size); which thread drains which chunk does not affect any
    // result.
    const std::size_t p = threads();
    const std::uint64_t num_chunks = (n + chunk - 1) / chunk;
    const std::uint64_t base = num_chunks / p;
    const std::uint64_t extra = num_chunks % p;
    job.shards = std::vector<Shard>(p);
    std::uint64_t chunk_cursor = 0;
    for (std::size_t i = 0; i < p; ++i) {
        const std::uint64_t take = base + (i < extra ? 1 : 0);
        job.shards[i].next.store(chunk_cursor * chunk,
                                 std::memory_order_relaxed);
        chunk_cursor += take;
        job.shards[i].end = std::min(chunk_cursor * chunk, n);
    }

    {
        std::lock_guard<std::mutex> lk(_mutex);
        QUEST_ASSERT(_job == nullptr,
                     "concurrent forRange submissions on one pool");
        _job = &job;
        ++_generation;
    }
    _wake.notify_all();

    participate(job, 0);

    {
        std::unique_lock<std::mutex> lk(_mutex);
        _done.wait(lk, [&] {
            return job.pendingIndices.load(std::memory_order_acquire)
                       == 0
                && _active == 0;
        });
        _job = nullptr;
    }

    if (job.error)
        std::rethrow_exception(job.error);
}

void
ThreadPool::workerLoop(std::size_t worker)
{
    std::uint64_t seen = 0;
    std::unique_lock<std::mutex> lk(_mutex);
    for (;;) {
        _wake.wait(lk, [&] {
            return _shutdown || _generation != seen;
        });
        if (_shutdown)
            return;
        seen = _generation;
        Job *job = _job;
        if (!job)
            continue;
        ++_active;
        lk.unlock();
        participate(*job, worker + 1);
        lk.lock();
        if (--_active == 0)
            _done.notify_all();
    }
}

void
ThreadPool::participate(Job &job, std::size_t self)
{
    t_inJob = true;
    drainShard(job, job.shards[self]);
    // Own shard dry: steal chunks, fullest victim first.
    for (;;) {
        Shard *victim = nullptr;
        std::uint64_t victim_left = 0;
        for (Shard &s : job.shards) {
            const std::uint64_t cur =
                s.next.load(std::memory_order_relaxed);
            const std::uint64_t left = cur < s.end ? s.end - cur : 0;
            if (left > victim_left) {
                victim_left = left;
                victim = &s;
            }
        }
        if (!victim)
            break;
        drainShard(job, *victim);
    }
    t_inJob = false;
}

void
ThreadPool::drainShard(Job &job, Shard &shard)
{
    for (;;) {
        const std::uint64_t begin =
            shard.next.fetch_add(job.chunk, std::memory_order_relaxed);
        if (begin >= shard.end)
            return;
        const std::uint64_t end =
            std::min(begin + job.chunk, shard.end);
        try {
            (*job.body)(begin, end);
        } catch (...) {
            std::lock_guard<std::mutex> lk(job.errorMutex);
            if (!job.error)
                job.error = std::current_exception();
        }
        job.pendingIndices.fetch_sub(end - begin,
                                     std::memory_order_release);
    }
}

} // namespace quest::sim
