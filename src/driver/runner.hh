/**
 * @file
 * The thread-pooled runner: executes an experiment spec's cells as
 * thread lanes draining a CellScheduler through one shared
 * CellExecutor (each cell owns its MemorySystem, so runs are
 * embarrassingly parallel). One warmer thread prepares the look-ahead
 * cell's trace while the lanes simulate. Multi-process execution of
 * the same cells lives in dispatch/coordinator.hh; both paths share the
 * executor, so results are identical wherever a cell ran.
 */

#ifndef STEMS_DRIVER_RUNNER_HH
#define STEMS_DRIVER_RUNNER_HH

#include <vector>

#include "driver/executor.hh"
#include "driver/scheduler.hh"
#include "driver/spec.hh"

namespace stems::driver {

/** Executes an experiment spec's cells across a thread pool. */
class Runner
{
  public:
    explicit Runner(const ExperimentSpec &spec);

    /** Run all cells; results ordered by cell id. */
    std::vector<CellResult> run(const ProgressFn &progress = {});

    /** Drain @p sched (built from this runner's spec) until every
     *  pending cell has run. */
    void run(CellScheduler &sched);

    /** The expanded (and cells=-filtered) cells, fixed at construction. */
    const std::vector<RunCell> &cells() const { return cells_; }

  private:
    ExperimentSpec spec;
    std::vector<RunCell> cells_;
    CellExecutor executor_;
};

} // namespace stems::driver

#endif // STEMS_DRIVER_RUNNER_HH
