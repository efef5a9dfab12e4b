/**
 * @file
 * CellExecutor: the one cell-execution entry point shared by the
 * in-process lane pool (driver/runner.hh: execute() from its lanes,
 * prefetch() from its warmer) and the dispatch worker subprocesses.
 * Owns the trace cache (with optional on-disk record/replay) and the
 * memo of baseline passes that every cell of a workload reads; an
 * engine's pass is walked once per cell and serves that cell's system
 * study and timing model alike. Both live as long as the executor: a
 * dispatch worker's persist across its cells, which is why the
 * coordinator hands a worker cells of the workloads it already ran.
 * Any execution context — thread, worker process, future remote
 * transport — produces identical CellResults for identical RunCells.
 *
 * It also owns the memory systems its passes walk. A 16-node system
 * is tens of megabytes of directory and tag tables, so instead of
 * building one per pass the executor keeps a free list: a pass checks
 * out a system of its cell's geometry, and returns it reset() to the
 * freshly constructed state. A system exists only while a pass holds
 * it or while it waits on the list, so there are never more systems
 * than passes that ran at once: one per lane of `stems run` or the
 * serve daemon, one in each dispatch worker.
 *
 * Cell measurements land in a MetricSet (see driver/metrics.hh); the
 * executor is a metric *producer* — it never serializes, so a new
 * family needs only its enumerator, its table row and an emit here.
 */

#ifndef STEMS_DRIVER_EXECUTOR_HH
#define STEMS_DRIVER_EXECUTOR_HH

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "driver/metrics.hh"
#include "driver/spec.hh"
#include "mem/memsys.hh"
#include "obs/obs.hh"
#include "sim/timing.hh"
#include "study/memstudy.hh"
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
    /**
     * Where the executor keeps its traces; never what a cell
     * measures. Every setting a cell reads rides its RunCell, so one
     * executor serves cells of any spec.
     */
    struct Config
    {
        std::string traceDir;  //!< record/replay directory ("" = off)
    };

    explicit CellExecutor(Config config);

    /**
     * Execute one cell; exceptions are captured into the result's
     * error field (the cell-error path reports print).
     */
    CellResult execute(const RunCell &cell);

    /**
     * Build (generate or map-replay) @p cell's trace ahead of its
     * execution — the lane pool warmer's entry. Never counts a
     * trace-cache lookup and never throws; a failing prefetch simply
     * leaves the work to the executing thread.
     */
    void prefetch(const RunCell &cell);

    /** Whether @p cell's trace is already built (non-blocking). */
    bool prepared(const RunCell &cell);

    /** Memory systems built so far; a checkout that reuses a free
     *  system of its geometry builds none. */
    uint64_t memorySystemsBuilt() const;

  private:
    /**
     * What one pass measured: the system study (or, for an L1-mode
     * baseline, the shadow-L1 study's instructions and read misses),
     * the timing model when the pass ran it, and the engine's
     * counters.
     */
    struct PassResult
    {
        study::SystemStudyResult system;
        sim::TimingResult timing;
        Counters pfCounters;
    };

    struct PassSlot
    {
        std::once_flag once;
        PassResult result;
    };

    /**
     * A memory system lent to one pass: checked out of the free list
     * (or built) on construction, reset() and put back on
     * destruction, whether the pass finished or threw.
     */
    class SystemLease
    {
      public:
        SystemLease(CellExecutor &owner, const mem::MemSysConfig &geometry);
        ~SystemLease();
        SystemLease(const SystemLease &) = delete;
        SystemLease &operator=(const SystemLease &) = delete;

        mem::MemorySystem &operator*() const { return *sys; }

      private:
        CellExecutor &owner;
        std::unique_ptr<mem::MemorySystem> sys;
    };

    /** The phase a baseline lookup serves; picks its memo counters. */
    enum class Lookup { Baseline, Timing };

    void runCell(const RunCell &cell, CellResult &out);

    /** One hierarchy walk of @p engine, timed when @p cell is. */
    PassResult runPass(const RunCell &cell, const EngineConfig &engine);

    /**
     * The memoized baseline pass @p lookup reads: the no-prefetch
     * pass, or an L1-mode cell's shadow-L1 pass. Keyed on everything
     * the pass reads, so every cell of a workload shares one walk.
     */
    const PassResult &baselinePass(const RunCell &cell, Lookup lookup);

    /** The cell's stream views through the TraceCache (zero-copy). */
    const trace::StreamSet &viewSet(const RunCell &cell);

    study::TraceCache traces;
    std::mutex memoMu;  //!< guards the memo map's shape
    std::map<std::string, PassSlot> passes;
    mutable std::mutex systemsMu;  //!< guards the two below
    /** Reset systems no pass holds, oldest return first. */
    std::vector<std::unique_ptr<mem::MemorySystem>> freeSystems;
    uint64_t systemsBuilt = 0;
};

/** The executor settings an experiment spec implies. */
CellExecutor::Config executorConfig(const ExperimentSpec &spec);

} // namespace stems::driver

#endif // STEMS_DRIVER_EXECUTOR_HH
