/**
 * @file
 * CellExecutor: the one cell-execution entry point shared by the
 * in-process thread-pool runner and the dispatch worker subprocesses.
 * Owns the trace cache (with optional on-disk record/replay) and the
 * memoized baseline and timing passes that coverage and speedup are
 * reported against, so any execution context — thread, worker process,
 * future remote transport — produces identical CellResults for
 * identical RunCells.
 *
 * Cell measurements land in a schema-registered MetricSet (see
 * driver/metrics.hh); the executor is a metric *producer* — it never
 * serializes, so new families need only a registration plus an emit
 * here.
 */

#ifndef STEMS_DRIVER_EXECUTOR_HH
#define STEMS_DRIVER_EXECUTOR_HH

#include <array>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "driver/metrics.hh"
#include "driver/spec.hh"
#include "obs/obs.hh"
#include "sim/timing.hh"
#include "study/density.hh"
#include "study/suite.hh"
#include "trace/access.hh"

namespace stems::driver {

/** One finished cell: its resolved spec point plus measurements. */
struct CellResult
{
    RunCell cell;
    MetricSet metrics;
    std::string error;  //!< non-empty when the cell failed

    /**
     * Observability sidecar (phase timings; plus worker counters and
     * spans when the result crossed the dispatch wire). Report sinks
     * never read it — reports are byte-identical with telemetry on or
     * off.
     */
    obs::CellTelemetry telemetry;
};

/** Executes fully-resolved run cells; thread-safe. */
class CellExecutor
{
  public:
    /** Spec-global settings a cell's execution depends on. */
    struct Config
    {
        std::string traceDir;  //!< record/replay directory ("" = off)
        /** Track oracle generations at these region sizes. */
        std::vector<uint32_t> oracleRegionSizes;
    };

    explicit CellExecutor(Config config);

    /**
     * Execute one cell; exceptions are captured into the result's
     * error field (the cell-error path reports print).
     */
    CellResult execute(const RunCell &cell);

    /**
     * Build (generate or map-replay) @p cell's trace ahead of its
     * execution — the look-ahead warmer's entry. Never counts a
     * trace-cache lookup and never throws; a failing prefetch simply
     * leaves the work to the executing thread.
     */
    void prefetch(const RunCell &cell);

    /** Whether @p cell's trace is already built (non-blocking). */
    bool prepared(const RunCell &cell);

    const Config &config() const { return cfg; }

  private:
    struct BaselineSlot
    {
        std::once_flag once;
        uint64_t instructions = 0;
        uint64_t l1ReadMisses = 0;
        uint64_t l2ReadMisses = 0;
        uint64_t falseSharing = 0;
        std::vector<uint64_t> oracleL1Gens;
        std::vector<uint64_t> oracleL2Gens;
        std::array<uint64_t, study::kDensityBuckets> l1Density{};
        std::array<uint64_t, study::kDensityBuckets> l2Density{};
    };

    struct TimingSlot
    {
        std::once_flag once;
        sim::TimingResult result;
    };

    void runCell(const RunCell &cell, CellResult &out);
    const BaselineSlot &baseline(const RunCell &cell);

    /**
     * Memoized timing pass for @p engine on @p cell's workload and
     * hierarchy. Keyed on the full engine configuration (kind plus
     * every option), so cells that differ only in engine options never
     * share a result; the baseline is simply the "none" engine's
     * entry.
     */
    const sim::TimingResult &timingRun(const RunCell &cell,
                                       const EngineConfig &engine);

    /** The cell's stream views through the TraceCache (zero-copy). */
    const trace::StreamSet &viewSet(const RunCell &cell);

    Config cfg;
    study::TraceCache traces;
    std::mutex memoMu;  //!< guards the memo map shapes
    std::map<std::string, BaselineSlot> baselines;
    std::map<std::string, TimingSlot> timingRuns;
};

/** The executor settings an experiment spec implies. */
CellExecutor::Config executorConfig(const ExperimentSpec &spec);

} // namespace stems::driver

#endif // STEMS_DRIVER_EXECUTOR_HH
