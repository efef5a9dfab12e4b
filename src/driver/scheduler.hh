/**
 * @file
 * CellScheduler: the one cell scheduler under every execution lane.
 * The lane pool's threads (driver/runner.hh, under `stems run` and
 * `stems serve`) and the dispatch coordinator's worker processes all
 * drain one of these per spec. It owns:
 *
 *  - claim order: re-queued cells first, then pending cells by
 *    estimatedCost(), heaviest first, ties by cell id. The heavy
 *    engine cells of the first workloads go out together instead of
 *    queueing behind one workload's shared baseline pass; equal-cost
 *    cells (an L1 sweep) claim in id order. A claimer may pass a
 *    preference that breaks ties only: among the cells as heavy as
 *    the front one it takes the first it prefers (see claim());
 *  - per-cell attempt, in-flight and completion state;
 *  - result placement by cell index, where the first result wins and
 *    a later copy is dropped, so reports are byte-identical whatever
 *    ran where;
 *  - journal seeding: replayed cells are complete and never claimed;
 *  - the single completion hook (journal appends, progress);
 *  - the cells_pending / workers_busy / cells_done gauges;
 *  - the duplication rule for straggling in-flight cells.
 *
 * Pool lanes share one executor and one CPU pool, so they never
 * duplicate; the pool's warmer reads only cells() and done()
 * (driver/runner.hh). Process lanes each have their own TraceCache,
 * so they duplicate but have no warmer.
 *
 * Thread-safe: lanes claim and complete concurrently.
 */

#ifndef STEMS_DRIVER_SCHEDULER_HH
#define STEMS_DRIVER_SCHEDULER_HH

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "driver/executor.hh"
#include "driver/spec.hh"

namespace stems::driver {

/**
 * A cell's estimated cost in arbitrary comparable units: references
 * driven through its pass, scaled by engine kind and study mode. It
 * orders claims and weights the progress ETA; a misestimate costs
 * wall time, never report bytes (results are placed by cell index).
 */
double estimatedCost(const RunCell &cell);

/**
 * Called once per completed cell, serialized, in completion order.
 * @p done counts the cells reported so far and @p total the cells the
 * run will report (journal-seeded cells are never reported).
 */
using ProgressFn = std::function<void(const CellResult &, size_t done,
                                      size_t total)>;

class CellScheduler
{
  public:
    /** The cells of @p spec (cells= filter applied), pending in claim
     *  order. Throws std::invalid_argument on a bad cells= filter. */
    explicit CellScheduler(const ExperimentSpec &spec);
    ~CellScheduler();
    CellScheduler(const CellScheduler &) = delete;
    CellScheduler &operator=(const CellScheduler &) = delete;

    const std::vector<RunCell> &cells() const { return cells_; }

    /**
     * Place journal-replayed results (keyed by cell id) before any
     * claim: those cells are complete, never claimed and never
     * reported to the hook. Returns how many cells were seeded.
     */
    size_t seed(const std::map<uint32_t, CellResult> &replayed);

    /** Install the completion hook; call before any lane starts. */
    void onComplete(ProgressFn hook);

    /** Which cells a claimer would rather run next. */
    using Preference = std::function<bool(const RunCell &)>;

    /**
     * Claim the next cell, counting an attempt; nullopt when none is
     * pending. A re-queued front cell is always taken. Otherwise, of
     * the pending cells whose estimated cost equals the front cell's,
     * the first in claim order that @p prefers accepts is taken, and
     * the front when it accepts none or is empty. A dispatch worker
     * prefers the workloads whose trace and baseline it already holds;
     * pool lanes share those, so they pass none. A preference never
     * moves a lighter cell ahead of a heavier one. @p prefers runs
     * under the scheduler's lock and must not call into it.
     */
    std::optional<size_t> claim(const Preference &prefers = {});

    /**
     * Deliver one copy's result for cell @p i. The first result is
     * placed (its cell metadata replaced by the scheduler's, which is
     * authoritative) and reported to the hook before this returns; a
     * later copy is dropped. Returns whether @p result was placed.
     */
    bool complete(size_t i, CellResult result);

    /**
     * A lane lost its copy of cell @p i (crash, timeout, protocol
     * error). When no other copy is in flight, the cell is re-queued
     * ahead of every pending cell, or, once it has used @p maxAttempts
     * attempts, completed with the error "<reason> after N
     * attempt(s)".
     */
    void lost(size_t i, const std::string &reason, uint32_t maxAttempts);

    /**
     * The duplication rule: when nothing is pending and an in-flight
     * cell has run longer than max(3x the median completed round trip,
     * 2 s), claim one extra copy of the longest such cell (counting an
     * attempt and cells_stolen). At most one extra copy per cell, and
     * only after three completed round trips.
     */
    std::optional<size_t> duplicate();

    /** Cells waiting to be claimed. */
    size_t pending() const;

    /** Whether cell @p i has its result. */
    bool done(size_t i) const;

    /** Attempts claimed so far for cell @p i (1-based once claimed). */
    uint32_t attempts(size_t i) const;

    /** Every cell has its result and the hook has seen it. */
    bool finished() const;

    /** The results by cell index; call once finished(). */
    std::vector<CellResult> takeResults();

  private:
    struct Cell
    {
        uint32_t attempts = 0;
        uint32_t running = 0;     //!< copies in flight
        bool done = false;
        bool duplicated = false;  //!< an extra copy was claimed
        uint64_t claimedNs = 0;   //!< start of the latest claim
    };

    /** Mark cell @p i done under mu_; the caller then publish()es. */
    void placeLocked(size_t i, CellResult result);
    /** Run the hook for a placed cell, then count it settled. */
    void publish(size_t i);

    std::vector<RunCell> cells_;
    std::vector<double> cost_;  //!< estimatedCost() by cell index

    mutable std::mutex mu_;
    std::deque<size_t> pending_;
    std::vector<Cell> state_;
    std::vector<CellResult> results_;
    std::vector<double> roundTripMs_;  //!< completed claims
    size_t settled_ = 0;               //!< cells done and reported

    std::mutex hookMu_;  //!< serializes the hook
    ProgressFn hook_;
    size_t reported_ = 0;
    size_t toReport_ = 0;
};

} // namespace stems::driver

#endif // STEMS_DRIVER_SCHEDULER_HH
