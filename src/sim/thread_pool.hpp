/**
 * @file
 * Deterministic parallel execution engine: a small work-stealing
 * thread pool.
 *
 * The Monte-Carlo workloads (decoder accuracy sweeps, error-rate sweeps,
 * throughput benches) are embarrassingly parallel across trials, but
 * the simulator's reproducibility contract must survive
 * parallelisation: a sweep must produce bit-identical output for any
 * thread count, including 1. The pool therefore only distributes
 * *which worker runs which index range*; everything that affects the
 * numbers (RNG substreams, chunk partitioning, reduction order) is
 * keyed off the index alone — see parallel.hpp and Rng::substream().
 *
 * Scheduling model: an index range [0, n) is split into fixed-size
 * chunks and the chunks are dealt into one contiguous shard per
 * participant (the workers plus the calling thread). Each
 * participant drains its own shard with an atomic cursor and, once
 * dry, steals chunks from the fullest remaining shard. The chunk a
 * body runs in never changes its result, so stealing is free to be
 * racy.
 */

#ifndef QUEST_SIM_THREAD_POOL_HPP
#define QUEST_SIM_THREAD_POOL_HPP

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace quest::sim {

/** A persistent pool of worker threads with chunk stealing. */
class ThreadPool
{
  public:
    /**
     * Called with half-open index sub-ranges [begin, end); invoked
     * concurrently from multiple threads, so the body must only
     * touch shared state through per-index slots or atomics.
     */
    using RangeFn = std::function<void(std::uint64_t begin,
                                       std::uint64_t end)>;

    /**
     * @param threads Total degree of parallelism including the
     *        calling thread (1 means "no workers, run inline");
     *        0 means defaultThreads().
     */
    explicit ThreadPool(std::size_t threads = 0);

    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Degree of parallelism including the calling thread. */
    std::size_t threads() const { return _workers.size() + 1; }

    /**
     * Run `body` over [0, n) split into chunks of `chunk` indices,
     * blocking until every index has been processed. The partition
     * into chunks depends only on (n, chunk), never on the thread
     * count. The first exception thrown by a body is rethrown here
     * after all in-flight chunks have drained.
     *
     * Calls from inside a body (nested parallelism) run inline on
     * the calling thread to avoid deadlocking the pool.
     */
    void forRange(std::uint64_t n, std::uint64_t chunk,
                  const RangeFn &body);

    /**
     * Default degree of parallelism: the QUEST_THREADS environment
     * variable when it is a whole decimal count in [1, 1024],
     * otherwise (with a warning if set) the hardware concurrency.
     */
    static std::size_t defaultThreads();

    /** Shared process-wide pool sized by defaultThreads(). */
    static ThreadPool &global();

  private:
    /**
     * One participant's contiguous span of chunks. Padded to a
     * cache line: the claim cursors are the only write-shared state
     * on the dispatch path, and packing several shards into one
     * line made every claim (and every thief's victim scan) a
     * cross-core line transfer on fine-grained jobs.
     */
    struct alignas(64) Shard
    {
        std::atomic<std::uint64_t> next{0}; ///< next index to claim
        std::uint64_t end = 0;              ///< shard's index limit
    };

    /** One forRange invocation's shared state. */
    struct Job
    {
        const RangeFn *body = nullptr;
        std::vector<Shard> shards;
        std::uint64_t chunk = 0;
        std::atomic<std::uint64_t> pendingIndices{0};
        std::mutex errorMutex;
        std::exception_ptr error;
    };

    void workerLoop(std::size_t worker);
    void participate(Job &job, std::size_t self);
    static void drainShard(Job &job, Shard &shard);

    std::vector<std::thread> _workers;

    /** Serializes whole forRange invocations from distinct threads. */
    std::mutex _submitMutex;
    std::mutex _mutex;
    std::condition_variable _wake;  ///< workers wait for a job
    std::condition_variable _done;  ///< caller waits for completion
    Job *_job = nullptr;            ///< current job, if any
    std::uint64_t _generation = 0;  ///< bumped per job to wake workers
    std::size_t _active = 0;        ///< workers still inside the job
    bool _shutdown = false;
};

} // namespace quest::sim

#endif // QUEST_SIM_THREAD_POOL_HPP
