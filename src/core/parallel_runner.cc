#include "core/parallel_runner.hh"

#include <deque>
#include <mutex>
#include <thread>

#include "simcore/logging.hh"

namespace refsched::core
{

ParallelRunner::ParallelRunner(int jobs)
{
    if (jobs < 0)
        fatal("jobs must be >= 0 (0 = all hardware threads), got ",
              jobs);
    if (jobs == 0)
        jobs = static_cast<int>(std::thread::hardware_concurrency());
    jobs_ = jobs > 0 ? jobs : 1;
}

Metrics
ParallelRunner::runCell(const CellSpec &cell)
{
    if (cell.custom)
        return cell.custom();
    return runOnce(cell.cfg, cell.opts);
}

void
ParallelRunner::runIndexed(
    std::size_t n, const std::function<void(std::size_t)> &fn) const
{
    if (n == 0)
        return;

    const int workers = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(jobs_), n));
    if (workers == 1) {
        // Inline sequential execution: no threads, bit-for-bit the
        // historical single-core behaviour.
        for (std::size_t i = 0; i < n; ++i)
            fn(i);
        return;
    }

    struct WorkerDeque
    {
        std::mutex m;
        std::deque<std::size_t> d;
    };
    std::vector<WorkerDeque> queues(
        static_cast<std::size_t>(workers));
    // Deal cells round-robin so every worker starts with a spread of
    // the grid; imbalance is fixed up by stealing.
    for (std::size_t i = 0; i < n; ++i)
        queues[i % static_cast<std::size_t>(workers)].d.push_back(i);

    std::mutex errMutex;
    std::exception_ptr firstError;

    auto work = [&](int self) {
        for (;;) {
            std::size_t idx = 0;
            bool got = false;
            {
                auto &q = queues[static_cast<std::size_t>(self)];
                std::lock_guard<std::mutex> lock(q.m);
                if (!q.d.empty()) {
                    idx = q.d.front();
                    q.d.pop_front();
                    got = true;
                }
            }
            // Steal from the back of a sibling.  All work is dealt
            // up front, so a full idle sweep means the grid is done.
            for (int off = 1; !got && off < workers; ++off) {
                auto &q = queues[static_cast<std::size_t>(
                    (self + off) % workers)];
                std::lock_guard<std::mutex> lock(q.m);
                if (!q.d.empty()) {
                    idx = q.d.back();
                    q.d.pop_back();
                    got = true;
                }
            }
            if (!got)
                return;
            try {
                fn(idx);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errMutex);
                if (!firstError)
                    firstError = std::current_exception();
            }
        }
    };

    std::vector<std::thread> threads;
    threads.reserve(static_cast<std::size_t>(workers - 1));
    for (int w = 1; w < workers; ++w)
        threads.emplace_back(work, w);
    work(0);
    for (auto &th : threads)
        th.join();

    if (firstError)
        std::rethrow_exception(firstError);
}

std::vector<Metrics>
ParallelRunner::runCells(const std::vector<CellSpec> &cells) const
{
    std::vector<Metrics> results(cells.size());
    runIndexed(cells.size(), [&](std::size_t i) {
        results[i] = runCell(cells[i]);
    });
    return results;
}

} // namespace refsched::core
