#include "taskgraph/thread_pool.hh"

#include <algorithm>

namespace mca::taskgraph
{

ThreadPool::ThreadPool(unsigned width)
{
    width = std::max(1u, width);
    workers_.reserve(width);
    for (unsigned i = 0; i < width; ++i)
        workers_.emplace_back([this] { workerLoop(); });
}

ThreadPool::~ThreadPool()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        shutdown_ = true;
    }
    workReady_.notify_all();
    for (auto &worker : workers_)
        worker.join();
}

void
ThreadPool::submit(std::function<void()> task)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        queue_.push_back(std::move(task));
    }
    workReady_.notify_one();
}

void
ThreadPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    allDone_.wait(lock, [this] { return queue_.empty() && inFlight_ == 0; });
}

std::size_t
ThreadPool::pending() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return queue_.size();
}

void
ThreadPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workReady_.wait(lock,
                            [this] { return shutdown_ || !queue_.empty(); });
            if (queue_.empty())
                return; // shutdown with nothing left to do
            task = std::move(queue_.front());
            queue_.pop_front();
            ++inFlight_;
        }
        task();
        {
            std::unique_lock<std::mutex> lock(mutex_);
            --inFlight_;
            if (queue_.empty() && inFlight_ == 0)
                allDone_.notify_all();
        }
    }
}

} // namespace mca::taskgraph
