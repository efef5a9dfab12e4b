/**
 * @file
 * The `stems` subcommands that need no engine run: help and list text
 * rendered from the key tables, `stems trace` (record one workload's
 * spill) and `stems worker` (serve dispatched cells). Their tables
 * live here, in the library, so the key-table tests can walk them.
 */

#ifndef STEMS_DRIVER_COMMANDS_HH
#define STEMS_DRIVER_COMMANDS_HH

#include <string>
#include <vector>

#include "driver/options.hh"
#include "workloads/workload.hh"

namespace stems::driver {

/** `stems help`: the commands and every command's key table. */
std::string helpText();

/** `stems list`: workloads, engine options, cell axes, metrics, figures. */
std::string listText();

struct TraceArgs
{
    TraceArgs();

    std::string workload;
    std::string traceDir;
    workloads::WorkloadParams params;
};

KeyTable traceKeys(TraceArgs &a);

/**
 * `stems trace workload=W trace-dir=DIR [ncpu= refs= seed=]`: record
 * W's spill through study::TraceCache — same file name, per-stream
 * sections and generator hash as `stems run trace-dir=DIR` — so a
 * later run replays it instead of generating.
 */
int cmdTrace(const std::vector<std::string> &args);

struct WorkerArgs
{
    std::string listen;  //!< "" = serve the stdin/stdout pipe
    bool once = false;
};

KeyTable workerKeys(WorkerArgs &a);

/** `stems worker [--listen=ADDR [--once]]`. */
int cmdWorker(const std::vector<std::string> &args);

} // namespace stems::driver

#endif // STEMS_DRIVER_COMMANDS_HH
