/**
 * @file
 * Per-cell cost estimation for scheduling: predicts how expensive a
 * RunCell will be relative to its siblings so the runner and the
 * dispatch coordinator can order work longest-first (LPT) instead of
 * expansion order, shrinking the straggler tail of a sweep.
 *
 * Two sources, best wins per cell:
 *  - **Calibration** (schedule-from=FILE): measured wall times from a
 *    prior run of the same matrix — either a crash-safe result journal
 *    (dispatch/journal.hh; wall_ms rides each result frame bit-exact)
 *    or a run report JSON. Matched by cell id first, then by
 *    (workload, engine label) mean.
 *  - **Heuristic**: refs × ncpu scaled by engine kind and study mode
 *    (each cell walks its trace once). Only the ordering matters;
 *    scheduling never changes report bytes (results are placed by cell
 *    id), so a misestimate costs wall time, never correctness.
 */

#ifndef STEMS_DRIVER_COSTMODEL_HH
#define STEMS_DRIVER_COSTMODEL_HH

#include <map>
#include <string>
#include <vector>

#include "driver/spec.hh"

namespace stems::driver {

/** Estimates per-cell execution cost (arbitrary comparable units). */
class CostModel
{
  public:
    /**
     * Heuristic model plus, when spec.scheduleFrom names a readable
     * journal or report file, calibration from its measured wall
     * times. Throws std::invalid_argument when scheduleFrom is set
     * but unreadable or unrecognized.
     */
    static CostModel fromSpec(const ExperimentSpec &spec);

    /** Estimated cost of @p cell; calibrated when data is available. */
    double estimate(const RunCell &cell) const;

    /**
     * Load measured wall times from @p text: a stems result journal
     * (length-prefixed frames) or a run report JSON document. Throws
     * std::invalid_argument when the text is neither.
     */
    void calibrate(const std::string &text);

    bool calibrated() const
    {
        return !byId_.empty() || !byLabel_.empty();
    }

  private:
    std::map<uint32_t, double> byId_;       //!< cell id → wall ms
    std::map<std::string, double> byLabel_; //!< workload|label → mean
};

/**
 * Execution order for @p cells under @p spec's schedule= policy:
 * indices into @p cells, longest-estimated-first for schedule=cost
 * (ties by id so the order is deterministic), identity for
 * schedule=fifo.
 */
std::vector<size_t> scheduleOrder(const ExperimentSpec &spec,
                                  const std::vector<RunCell> &cells);

} // namespace stems::driver

#endif // STEMS_DRIVER_COSTMODEL_HH
