#include "thread_pool.hh"

namespace slf::campaign
{

namespace
{
/** Worker index of the calling thread; -1 off-pool. Thread-local so
 *  nested pools in one process would shadow each other — the campaign
 *  runner only ever has one pool alive at a time. */
thread_local int tls_worker = -1;
} // namespace

ThreadPool::ThreadPool(unsigned threads)
{
    if (threads == 0)
        threads = 1;
    queues_.resize(threads);
    workers_.reserve(threads);
    for (unsigned i = 0; i < threads; ++i)
        workers_.emplace_back([this, i] { workerLoop(i); });
}

ThreadPool::~ThreadPool()
{
    shutdown();
}

int
ThreadPool::currentWorker()
{
    return tls_worker;
}

bool
ThreadPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!accepting_)
            return false;
        queues_[next_queue_].push_back(std::move(task));
        next_queue_ = (next_queue_ + 1) % queues_.size();
        ++queued_;
    }
    work_cv_.notify_one();
    return true;
}

bool
ThreadPool::takeTask(unsigned self, std::function<void()> &task)
{
    // Caller holds mutex_. Own work first, newest entry (LIFO)...
    if (!queues_[self].empty()) {
        task = std::move(queues_[self].back());
        queues_[self].pop_back();
        --queued_;
        return true;
    }
    // ...then steal the oldest entry (FIFO) from the next busy victim.
    for (std::size_t off = 1; off < queues_.size(); ++off) {
        auto &victim = queues_[(self + off) % queues_.size()];
        if (!victim.empty()) {
            task = std::move(victim.front());
            victim.pop_front();
            --queued_;
            ++steals_;
            return true;
        }
    }
    return false;
}

void
ThreadPool::workerLoop(unsigned self)
{
    tls_worker = static_cast<int>(self);
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
        std::function<void()> task;
        if (takeTask(self, task)) {
            ++running_;
            lock.unlock();
            task();
            lock.lock();
            --running_;
            if (queued_ == 0 && running_ == 0)
                idle_cv_.notify_all();
            continue;
        }
        if (stop_)
            return;
        work_cv_.wait(lock, [this] { return queued_ > 0 || stop_; });
    }
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_cv_.wait(lock, [this] { return queued_ == 0 && running_ == 0; });
}

void
ThreadPool::shutdown()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        accepting_ = false;
        // Let the workers drain everything already queued...
        idle_cv_.wait(lock,
                      [this] { return queued_ == 0 && running_ == 0; });
        stop_ = true;
    }
    // ...then release and join them.
    work_cv_.notify_all();
    for (std::thread &w : workers_)
        if (w.joinable())
            w.join();
}

std::uint64_t
ThreadPool::steals() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return steals_;
}

} // namespace slf::campaign
