/**
 * @file
 * The dispatch coordinator: farms an experiment spec's cells to a pool
 * of worker subprocesses over the wire protocol and folds their
 * results into the same cell-indexed CellResult vector an in-process
 * run produces — reports built from either path are byte-identical.
 *
 * Fault tolerance: a worker that crashes, returns garbage, misses its
 * liveness heartbeats, or blows a per-cell timeout is reaped and its
 * in-flight cell re-queued to another worker; after a per-cell
 * attempt cap the failure is recorded through the existing
 * cell-error path (the report's "error" field) instead of taking down
 * the sweep. Dead workers are replaced as long as work remains —
 * never more replacements than there are unassigned cells — behind
 * exponential backoff with deterministic jitter (50 ms base, doubled
 * per consecutive loss, 5 s cap), within a respawn budget. When the
 * pool is unrecoverable, an in-process driver::Runner lane pool
 * drains the remaining cells instead of erroring them. Idle workers
 * speculatively re-run tail stragglers' cells (first result wins)
 * when configured.
 *
 * The coordinator only manages processes: spawn, reap, backoff,
 * heartbeats, timeouts and the poll loop. It claims, re-queues, fails
 * and duplicates cells through a driver::CellScheduler, which owns the
 * claim order and the results. Each worker process keeps the traces
 * and baseline passes of the workloads it has run, so an idle worker
 * claims with a preference for those workloads: of the cells as heavy
 * as the next claim, it takes one of its own workloads first. A
 * respawned worker holds nothing and prefers nothing.
 *
 * Workers share generated .stmt traces through the TraceCache spill
 * dir (a temp dir is provisioned when the spec has none), so each
 * workload's trace is generated once per sweep, not once per worker.
 *
 * The Transport seam is the machine-list hook: LocalProcessTransport
 * forks `stems worker` on this host; a future remote transport only
 * has to hand back the same pipe-fd triple.
 */

#ifndef STEMS_DISPATCH_COORDINATOR_HH
#define STEMS_DISPATCH_COORDINATOR_HH

#include <cstdint>
#include <memory>
#include <string>
#include <sys/types.h>
#include <vector>

#include "driver/scheduler.hh"
#include "driver/spec.hh"

namespace stems::dispatch {

struct JsonValue;

/** A spawned worker's process handle and pipe endpoints. */
struct WorkerProcess
{
    pid_t pid = -1;
    int toWorker = -1;    //!< write end (worker stdin)
    int fromWorker = -1;  //!< read end (worker stdout)
};

/** Launches workers; the seam future machine-list transports fill. */
class Transport
{
  public:
    virtual ~Transport() = default;

    /** Launch one worker; throws std::runtime_error on failure. */
    virtual WorkerProcess spawn() = 0;
};

/** Forks `<exe> worker` on this host with stdin/stdout pipes. */
class LocalProcessTransport : public Transport
{
  public:
    explicit LocalProcessTransport(std::string exe);

    WorkerProcess spawn() override;

  private:
    std::string exe;
};

/** Pool shape and failure policy. */
struct DispatchConfig
{
    uint32_t workers = 4;
    uint32_t timeoutMs = 0;     //!< per-cell timeout (0 = none)
    uint32_t maxAttempts = 3;   //!< per-cell tries before giving up
    std::string workerExe;      //!< "" = this binary (/proc/self/exe)
    bool trace = false;         //!< workers record + ship spans (v4)

    /**
     * Worker liveness heartbeat period (0 = off). Distinct from the
     * per-cell timeout: a worker that misses kHeartbeatMissBudget
     * consecutive heartbeats is wedged (hung syscall, deadlock) and
     * is killed fast, while a slow-but-heartbeating cell runs on.
     */
    uint32_t heartbeatMs = 0;

    /**
     * Hand idle workers extra copies of tail stragglers under the
     * scheduler's duplication rule (driver::CellScheduler::duplicate);
     * the first result wins, the loser is discarded.
     */
    bool speculate = false;
};

/**
 * Health telemetry for one worker incarnation (one spawned process;
 * a respawned slot appends a fresh entry). busyMs is measured on the
 * coordinator side — assignment to result, wire time included — so
 * stragglers show up even when a worker's own clocks look healthy.
 */
struct WorkerStats
{
    pid_t pid = -1;
    uint64_t cellsDone = 0;
    uint64_t lost = 0;      //!< crash/timeout/protocol events
    double busyMs = 0;      //!< total assign→result round-trip
    /** Phase wall-ms totals folded from per-cell worker telemetry. */
    std::vector<std::pair<std::string, double>> phaseMs;
    /** Latest worker counter snapshot (v4 results only). */
    std::vector<std::pair<std::string, uint64_t>> counters;
    uint64_t rssKb = 0;     //!< worker peak RSS high-water mark
};

/** A worker's phase wall-ms totals, grouped as its table prints them. */
struct WorkerPhases
{
    double traceMs = 0;
    double baseMs = 0;    //!< the baseline pass
    double studyMs = 0;   //!< the system and L1 study passes
    double timingMs = 0;
};

WorkerPhases workerPhases(const WorkerStats &ws);

/**
 * The per-worker table alone, one row per incarnation: the body of
 * workerSummary() and of `stems analyze`'s workers section.
 * @param wallMs the run's wall time (utilization denominator)
 */
std::string workerTable(const std::vector<WorkerStats> &stats,
                        double wallMs);

/**
 * The per-worker utilization/straggler summary: a title, the
 * workerTable() and a footer naming the fault-tolerance counters that
 * fired in this process.
 */
std::string workerSummary(const std::vector<WorkerStats> &stats,
                          double wallMs);

/** WorkerStats read back from the "workers" array of telemetryJson(). */
std::vector<WorkerStats> workerStatsFromJson(const JsonValue &workers);

/** Multi-process analogue of the driver::Runner lane pool. */
class Coordinator
{
  public:
    /**
     * @param spec       experiment to run (cells=-filter honoured)
     * @param config     pool shape
     * @param transport  worker launcher; nullptr = local processes
     *                   running config.workerExe
     */
    Coordinator(const driver::ExperimentSpec &spec,
                DispatchConfig config,
                std::unique_ptr<Transport> transport = nullptr);
    ~Coordinator();

    /** Run all cells; results ordered by cell index. */
    std::vector<driver::CellResult>
    run(const driver::ProgressFn &progress = {});

    /** Drain @p sched (built from this coordinator's spec) until every
     *  cell has its result; config.workers is clamped to the pending
     *  cell count. */
    void run(driver::CellScheduler &sched);

    /** Per-incarnation worker health stats from the last run(). */
    const std::vector<WorkerStats> &workerStats() const
    {
        return workerStats_;
    }

    /** Wall time of the last run() in ms. */
    double wallMs() const { return wallMs_; }

  private:
    struct Worker;

    driver::ExperimentSpec spec;
    DispatchConfig cfg;
    std::unique_ptr<Transport> transport;
    std::string ownedTraceDir;  //!< temp spill dir we created (cleaned)
    std::vector<WorkerStats> workerStats_;
    double wallMs_ = 0;
};

/** This binary's path (for spawning `stems worker` from itself). */
std::string selfExePath();

/**
 * The end-of-run telemetry document (schema 2): wall time, the
 * process counter registry (with any worker snapshots folded in by
 * name), latency histograms and peak RSS. Shared by `stems run`
 * (--telemetry-out) and the serve daemon's shutdown dump so both
 * artifacts parse identically.
 */
std::string telemetryJson(double wallMs,
                          const std::vector<WorkerStats> &workers);

} // namespace stems::dispatch

#endif // STEMS_DISPATCH_COORDINATOR_HH
