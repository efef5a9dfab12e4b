/**
 * @file
 * Experiment specification for the engine: a workload × prefetcher ×
 * parameter matrix, parsed from CLI key=value tokens and/or config
 * files, expanded into independent run cells the sharded runner
 * executes in parallel.
 */

#ifndef STEMS_DRIVER_SPEC_HH
#define STEMS_DRIVER_SPEC_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "driver/registry.hh"
#include "mem/memsys.hh"
#include "workloads/workload.hh"

namespace stems::driver {

/** Which study pipeline a cell runs through. */
enum class StudyMode
{
    System,  //!< full coherent multiprocessor (study::runSystem)
    L1       //!< shadow-L1 coverage pipeline (study::runL1Study)
};

inline const char *
studyModeName(StudyMode m)
{
    return m == StudyMode::System ? "system" : "l1";
}

/** One sweep axis: an option key and the values to cross. */
using SweepAxis = std::pair<std::string, std::vector<std::string>>;

/** The full experiment matrix plus global run settings. */
struct ExperimentSpec
{
    std::vector<std::string> workloads;   //!< resolved suite names
    std::vector<EngineConfig> engines;    //!< prefetcher configurations
    std::vector<SweepAxis> sweeps;        //!< parameter matrix axes
    workloads::WorkloadParams params;     //!< ncpu / refs / seed
    mem::MemSysConfig sys;                //!< hierarchy configuration
    StudyMode mode = StudyMode::System;
    bool timing = false;                  //!< also run the timing model
    bool timingOnly = false;              //!< skip the system-study pass
    uint32_t threads = 0;                 //!< 0 = hardware concurrency
    std::string traceDir;                 //!< record/replay directory
    std::string jsonPath;                 //!< "-" = stdout, "" = off
    std::string csvPath;
    bool table = false;                   //!< ASCII summary table
    bool emitWall = true;                 //!< wall_ms in JSON (wall=0
                                          //!< gives byte-stable reports)
    bool quiet = false;                   //!< suppress progress lines
    bool groups = false;                  //!< engine-folded per-group
                                          //!< aggregate rows (opt-in)

    // observability sinks (see src/obs/); never touch report output
    std::string traceOut;      //!< Chrome trace-event JSON ("" = off)
    std::string telemetryOut;  //!< counters JSON file ("" = off)

    /** Track oracle spatial generations at these region sizes. */
    std::vector<uint32_t> oracleRegionSizes;

    /**
     * Track access-density histograms (Figure 5) at this spatial
     * region size; 0 = off. Sweepable per cell via sweep.density=.
     */
    uint32_t densityRegion = 0;

    /** Cell-id filter ("" = all): comma list of ids and A-B ranges. */
    std::string cellFilter;

    // multi-process dispatch (see dispatch/coordinator.hh)
    uint32_t dispatch = 0;            //!< worker processes (0 = in-proc)
    uint32_t dispatchTimeoutMs = 0;   //!< per-cell timeout (0 = none)
    uint32_t dispatchRetries = 3;     //!< attempts per cell before error
    uint32_t dispatchHeartbeatMs = 0; //!< liveness period (0 = off)
    std::string dispatchWorkerExe;    //!< "" = this binary

    /**
     * Socket fleet (see serve/transport.hh): comma list of worker
     * endpoints (`unix:/path` or `host:port`). When set, dispatch
     * rides serve::SocketTransport instead of forked pipe workers;
     * dispatch= defaults to the endpoint count.
     */
    std::string dispatchWorkers;

    /**
     * Launch template run (/bin/sh -c) once per spawned worker with
     * `{addr}` replaced by its endpoint; "" = connect to listeners
     * someone else started. Use `exec` so signals reach the worker.
     */
    std::string dispatchSpawnCmd;

    // fault tolerance (see dispatch/journal.hh, fault/fault.hh)
    std::string faultPlan;     //!< chaos plan ("" = none)
    std::string journalPath;   //!< crash-safe result journal ("" = off)
    bool resume = false;       //!< splice journaled cells, run the rest
};

/** One independent run: a fully-resolved point of the matrix. */
struct RunCell
{
    uint32_t id = 0;
    std::string workload;
    EngineConfig engine;     //!< options merged with the sweep point
    Options sweepPoint;      //!< this cell's sweep assignment
    workloads::WorkloadParams params;
    mem::MemSysConfig sys;
    StudyMode mode = StudyMode::System;
    bool timing = false;
    bool timingOnly = false;
    uint32_t densityRegion = 0;  //!< density-histogram region (0 = off)
    /** Oracle generation region sizes (the spec's oracle-regions=). */
    std::vector<uint32_t> oracleRegionSizes;
};

/**
 * Parse key=value tokens into a spec. The accepted keys are the rows of
 * specKeys() — `stems help` prints them — plus `--key=value` sugar and
 * config=FILE splicing. Prefetcher option values (opt., pf., sweep.)
 * are checked against the engines that take them here, not per cell.
 *
 * Throws std::invalid_argument on unknown keys, unknown workload or
 * prefetcher names, or malformed values.
 */
ExperimentSpec parseSpec(const std::vector<std::string> &tokens);

/**
 * Expand the matrix into cells, nested workload-major: for each
 * workload, for each engine, for each sweep point (last axis fastest).
 * Sweep values override same-named base options; cell axes (see
 * cellKeys()) reshape the cell's MemSysConfig or density region
 * instead and apply to every engine.
 */
std::vector<RunCell> expandSpec(const ExperimentSpec &spec);

/**
 * expandSpec() filtered by spec.cellFilter; ids are preserved, so a
 * filtered run's cells merge back into the full report by id (see
 * dispatch/merge.hh). Throws std::invalid_argument on a malformed
 * filter or one selecting no cells.
 */
std::vector<RunCell> selectedCells(const ExperimentSpec &spec);

/** The workload-generation keys (ncpu, refs, seed), bound to @p p. */
KeyTable workloadKeys(workloads::WorkloadParams &p);

/**
 * The per-cell axes, bound to @p sys and @p density: cache geometry
 * (block, l1-kb, l1-assoc, l2-kb, l2-assoc) and the density
 * histogram region. Each works as a top-level key or a sweep. axis
 * and applies to every engine, none included.
 */
KeyTable cellKeys(mem::MemSysConfig &sys, uint32_t &density);

/** The run/submit key table (rows bound to a scratch spec). */
KeyTable specKeys();

} // namespace stems::driver

#endif // STEMS_DRIVER_SPEC_HH
