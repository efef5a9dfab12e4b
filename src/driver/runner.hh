/**
 * @file
 * The lane pool, where every in-process cell runs: N lane threads and
 * one trace warmer for the pool's whole lifetime. Lanes claim from the
 * earliest-attached CellScheduler that has a pending cell and execute
 * it through that attachment's CellExecutor. The warmer keeps a cursor
 * per attachment and, earliest attachment first, walks its cells in
 * id order, preparing the trace of each cell that is not done and
 * whose trace is not yet prepared: it builds each trace once, ahead
 * of the lanes, whatever order they claim in.
 * Lanes share their executor's traces and baseline memo, so they claim
 * with no preference, in plain cost order (see CellScheduler::claim).
 * `stems run` and the coordinator's fallback drain one spec through
 * drainInProcess(); the serve daemon attaches each admitted request to
 * its one pool.
 */

#ifndef STEMS_DRIVER_RUNNER_HH
#define STEMS_DRIVER_RUNNER_HH

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "driver/executor.hh"
#include "driver/scheduler.hh"

namespace stems::driver {

class Runner
{
  public:
    /** @p lanes threads (0 = every core) named "<laneName>-K", plus
     *  one warmer thread named @p warmerName. */
    explicit Runner(uint32_t lanes, std::string laneName = "runner",
                    std::string warmerName = "warmer");
    ~Runner() { stop(); }

    /**
     * Queue @p sched behind every earlier attachment; its cells run
     * through @p exec. A non-empty @p request spans each cell as the
     * daemon's `serve_cell` of that request, else as `stems run`'s
     * `cell` with its queue_ms.
     */
    void attach(CellScheduler &sched, CellExecutor &exec,
                std::string request = {});

    /**
     * Block until attached @p sched has finished or the pool stopped,
     * and no thread still uses it; then detach it. Returns whether it
     * finished.
     */
    bool wait(CellScheduler &sched);

    /** Let each lane finish its cell, join every thread and return
     *  every waiter. Idempotent. */
    void stop();

  private:
    struct Attachment
    {
        CellScheduler *sched;
        CellExecutor *exec;
        std::string request;
        std::chrono::steady_clock::time_point attachedAt;
        uint32_t users = 0;  //!< threads inside one of its cells
        size_t warmNext = 0;  //!< the warmer's cursor into cells()
    };

    /** A lane's loop, or the warmer's when !@p lane. */
    void loop(bool lane);
    /** The next cell of @p a whose trace the warmer should prepare. */
    static std::optional<size_t> nextToWarm(Attachment &a);
    void execute(const Attachment &at, size_t i);

    std::mutex mu;
    std::condition_variable cv;  //!< attach, claim, settle, stop
    bool stopping = false;
    std::list<Attachment> attached;  //!< in attach order
    std::vector<std::thread> threads;
};

/**
 * Drain @p sched (built from @p spec) through an executor built from
 * @p spec on a pool of min(threads= or every core, pending) lanes.
 */
void drainInProcess(const ExperimentSpec &spec, CellScheduler &sched);

} // namespace stems::driver

#endif // STEMS_DRIVER_RUNNER_HH
