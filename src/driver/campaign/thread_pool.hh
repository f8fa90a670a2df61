/**
 * @file
 * Work-stealing thread pool for the campaign runner.
 *
 * Each worker owns a deque; submitted tasks are distributed round-robin
 * across the deques. A worker pops from the back of its own deque
 * (LIFO, cache-friendly) and, when empty, steals from the front of a
 * victim's deque (FIFO, oldest work first). An idle worker sleeps on a
 * condition variable until work arrives or shutdown begins.
 *
 * Tasks must not throw: the campaign layer catches job errors and
 * encodes them in the job result before they reach the pool. A task
 * that does leak an exception terminates the process (std::terminate),
 * which is deliberate — a silently swallowed error in a worker would
 * corrupt campaign results.
 */

#ifndef SLFWD_DRIVER_CAMPAIGN_THREAD_POOL_HH_
#define SLFWD_DRIVER_CAMPAIGN_THREAD_POOL_HH_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace slf::campaign
{

class ThreadPool
{
  public:
    /** @param threads worker count; 0 is clamped to 1. */
    explicit ThreadPool(unsigned threads);

    /** Drains every queued task, then joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /**
     * Enqueue a task. Must not be called after shutdown().
     * @return false if the pool is no longer accepting (task dropped).
     */
    bool submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    /**
     * Graceful shutdown: stop accepting new tasks, let the workers
     * drain everything already queued, then join them. Idempotent.
     */
    void shutdown();

    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /** Tasks executed from a victim's deque (observability). */
    std::uint64_t steals() const;

    /**
     * Index of the pool worker running the calling thread, or -1 when
     * the caller is not a pool worker. Lets task bodies tag spans
     * (one track per worker) without threading an id through every
     * task closure.
     */
    static int currentWorker();

  private:
    void workerLoop(unsigned self);

    /** Pop from own deque back, else steal from a victim's front. */
    bool takeTask(unsigned self, std::function<void()> &task);

    mutable std::mutex mutex_;
    std::condition_variable work_cv_;   ///< workers sleep here
    std::condition_variable idle_cv_;   ///< wait()/shutdown() sleep here

    std::vector<std::deque<std::function<void()>>> queues_;
    std::vector<std::thread> workers_;

    unsigned next_queue_ = 0;       ///< round-robin submission cursor
    std::uint64_t queued_ = 0;      ///< tasks sitting in deques
    std::uint64_t running_ = 0;     ///< tasks currently executing
    std::uint64_t steals_ = 0;
    bool accepting_ = true;
    bool stop_ = false;
};

} // namespace slf::campaign

#endif // SLFWD_DRIVER_CAMPAIGN_THREAD_POOL_HH_
