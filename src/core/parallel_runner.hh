/**
 * @file
 * Work-stealing fan-out of independent experiment cells.
 *
 * Every figure/ablation bench evaluates a grid of fully independent,
 * deterministic simulation cells (workload x policy x density x ...).
 * ParallelRunner runs such a grid across worker threads while
 * preserving deterministic, submission-ordered results: each cell is
 * an isolated System (own EventQueue, own RNG seeded from its
 * config), workers never share mutable state, and results are
 * written to the slot reserved at submission time.  The output is
 * therefore byte-identical for any thread count; jobs == 1 executes
 * inline on the calling thread, reproducing the historical
 * sequential behaviour exactly.
 *
 * Scheduling: cells are dealt round-robin into per-worker deques;
 * a worker consumes its own deque front-to-back and steals from the
 * back of its siblings when it runs dry.  Cell runtimes vary by an
 * order of magnitude across workloads, so stealing keeps all cores
 * busy until the grid drains.
 */

#ifndef REFSCHED_CORE_PARALLEL_RUNNER_HH
#define REFSCHED_CORE_PARALLEL_RUNNER_HH

#include <functional>
#include <vector>

#include "core/experiment.hh"
#include "core/metrics.hh"
#include "core/system_config.hh"

namespace refsched::core
{

/**
 * One independent experiment cell: a system configuration plus run
 * lengths.  Cells that need setup beyond SystemConfig (e.g. swapping
 * in custom trace sources) may instead supply a thunk, which must be
 * self-contained and touch no shared mutable state.
 */
struct CellSpec
{
    SystemConfig cfg;
    RunOptions opts;

    /** When set, overrides cfg/opts entirely. */
    std::function<Metrics()> custom;
};

class ParallelRunner
{
  public:
    /** @p jobs worker threads; 0 selects hardware_concurrency and a
     *  negative count is fatal() -- the one place --jobs is checked. */
    explicit ParallelRunner(int jobs = 0);

    /** Effective worker count. */
    int jobs() const { return jobs_; }

    /**
     * Run every cell and return their Metrics in submission order.
     * Deterministic: the result is byte-identical for any jobs().
     * The first exception thrown by a cell is rethrown after all
     * workers finish.
     */
    std::vector<Metrics> runCells(const std::vector<CellSpec> &cells) const;

    /**
     * Work-stealing fan-out of @p fn over indices [0, n): the
     * primitive runCells is built on, exposed for grids whose cells
     * are not SystemConfig-shaped (e.g. allocator feasibility
     * sweeps).  @p fn must be safe to invoke concurrently for
     * distinct indices.
     */
    void runIndexed(std::size_t n,
                    const std::function<void(std::size_t)> &fn) const;

    /** Run a single cell inline. */
    static Metrics runCell(const CellSpec &cell);

  private:
    int jobs_;
};

} // namespace refsched::core

#endif // REFSCHED_CORE_PARALLEL_RUNNER_HH
