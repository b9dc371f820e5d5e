/**
 * @file
 * Fixed-width worker pool with a FIFO work queue.
 *
 * Private to src/taskgraph: the Executor runs every task graph on one
 * of these pools, and nothing else schedules onto it. Tasks are plain
 * std::function<void()>; result plumbing is the submitter's job (each
 * node writes into a pre-sized slot, so no synchronization is needed
 * on the output side beyond the pool's completion barrier).
 *
 * `width = 1` degenerates to serial execution on one worker thread,
 * which is how `mcarun --jobs 1` guarantees the same code path (and
 * bit-identical results) as any wider run.
 */

#ifndef MCA_TASKGRAPH_THREAD_POOL_HH
#define MCA_TASKGRAPH_THREAD_POOL_HH

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace mca::taskgraph
{

class ThreadPool
{
  public:
    /** Spawn `width` workers (clamped to at least 1). */
    explicit ThreadPool(unsigned width);

    /** Drains the queue, waits for in-flight tasks, joins the workers. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Enqueue one task. Tasks must not throw (wrap fallible work). */
    void submit(std::function<void()> task);

    /** Block until every submitted task has finished. */
    void wait();

    unsigned width() const { return static_cast<unsigned>(workers_.size()); }

    /** Queued-but-not-started task count (approximate; for progress). */
    std::size_t pending() const;

  private:
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable workReady_;
    std::condition_variable allDone_;
    std::deque<std::function<void()>> queue_;
    std::size_t inFlight_ = 0;
    bool shutdown_ = false;
    std::vector<std::thread> workers_;
};

} // namespace mca::taskgraph

#endif // MCA_TASKGRAPH_THREAD_POOL_HH
