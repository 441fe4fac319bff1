/**
 * @file
 * Concurrent execution of experiment sweeps.
 *
 * Cells are embarrassingly parallel: each one compiles its kernel,
 * builds its own GPU, generates its own inputs and verifies its
 * own outputs, with no shared mutable state (workload objects are
 * immutable singletons, RNGs are per-cell). The runner therefore
 * uses a plain std::thread pool pulling cell indices off one
 * atomic counter; results land in a pre-sized vector slot per
 * cell, so the output order — and the serialized JSON — is
 * byte-identical for any thread count.
 */

#ifndef SIWI_RUNNER_EXPERIMENT_RUNNER_HH
#define SIWI_RUNNER_EXPERIMENT_RUNNER_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>

#include "runner/results.hh"
#include "runner/sweep.hh"

namespace siwi::runner {

/** Execution knobs of one runner invocation. */
struct RunOptions
{
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned jobs = 0;
    /** Per-cell progress lines on stderr. */
    bool progress = false;
    /** Label copied into Results::suite. */
    std::string suite_label;
    /**
     * Event-driven cycle skipping (core::LaunchConfig::cycle_skip).
     * Results are bit-identical either way; off (siwi-run
     * --no-skip) is the cross-check mode the stepping-equivalence
     * gate runs.
     */
    bool cycle_skip = true;
    /**
     * Per-cell execution hook: produce the result of @p cell of
     * @p sweep, setting @p *cached (initially false) when it was
     * served rather than simulated — progress lines then carry a
     * "(cached)" tag. Invoked concurrently from worker threads.
     * Empty means runCell() with #cycle_skip; the result cache
     * (serve/cached_run.hh) wraps its lookup and store around
     * that.
     */
    std::function<CellResult(const SweepSpec &sweep,
                             const CellSpec &cell, bool *cached)>
        run_cell;
};

/**
 * A persistent pool of cell-running worker threads, the sharding
 * substrate the serve layer keeps alive across submissions (one
 * runSweeps() call owns its threads for one sweep; a server
 * executes cells from many concurrent submissions on one pool).
 * Jobs are arbitrary closures drained FIFO; submission never
 * blocks. Destruction drains the queue, then joins.
 */
class CellExecutor
{
  public:
    /** @p jobs as in RunOptions (0 = hardware concurrency). */
    explicit CellExecutor(unsigned jobs = 0);
    ~CellExecutor();

    CellExecutor(const CellExecutor &) = delete;
    CellExecutor &operator=(const CellExecutor &) = delete;

    /** Enqueue @p job; runs on some worker thread. */
    void submit(std::function<void()> job);

    /** Worker thread count. */
    unsigned jobs() const { return unsigned(threads_.size()); }

    /** Jobs submitted but not yet finished. */
    size_t outstanding() const;

  private:
    void workerLoop();

    mutable std::mutex mu_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    size_t active_ = 0;
    bool stop_ = false;
    std::vector<std::thread> threads_;
};

/** Number of workers @p jobs resolves to on this host. */
unsigned resolveJobs(unsigned jobs);

/** Workers runSweeps() will actually use for @p cells cells. */
unsigned effectiveJobs(unsigned jobs, size_t cells);

/**
 * Resolved config per (sweep, decorated machine label) of
 * @p sweeps, in canonical order — the "machines" block of the
 * results, also printed by siwi-run --dump-config.
 */
std::vector<MachineRecord> machineRecords(
    const std::vector<SweepSpec> &sweeps);

/**
 * Run every cell of @p sweeps and collect the results in
 * canonical order (see expandCells()). Thread-count and execution
 * schedule cannot affect the returned value. Machine columns that
 * resolve to the same configuration are deduplicated first (with
 * a warning), so identical cells are never paid for twice.
 */
Results runSweeps(const std::vector<SweepSpec> &sweeps,
                  const RunOptions &opts = {});

/**
 * Run one (workload, config, SM count, policy) cell: what
 * runSweeps() does per cell unless RunOptions::run_cell says
 * otherwise. @p sms and
 * @p policy index the sweep's SM-count and scheduling-policy axes
 * (default: their first entries); @p cycle_skip as in RunOptions.
 */
CellResult runCell(const SweepSpec &sweep, size_t machine,
                   size_t wl, size_t sms = 0, size_t policy = 0,
                   bool cycle_skip = true);

} // namespace siwi::runner

#endif // SIWI_RUNNER_EXPERIMENT_RUNNER_HH
