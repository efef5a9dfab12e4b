/**
 * @file
 * The dispatch worker: `stems worker` runs this loop in a spawned
 * subprocess. It receives an init message followed by self-contained
 * cell jobs on stdin and writes results to stdout (see wire.hh),
 * executing each cell through the same driver::CellExecutor the
 * in-process runner uses — so a cell's metrics are identical no matter
 * where it ran. One worker executes one cell at a time; parallelism
 * comes from the coordinator's pool, crash isolation from the process
 * boundary.
 */

#ifndef STEMS_DISPATCH_WORKER_HH
#define STEMS_DISPATCH_WORKER_HH

namespace stems::dispatch {

/**
 * Serve cell jobs from @p inFd until a shutdown message or EOF. A
 * STEMS_FAULTS plan in the environment (see fault/fault.hh) injects
 * worker faults for chaos tests.
 *
 * @return process exit status (0 on orderly shutdown/EOF).
 */
int runWorker(int inFd, int outFd);

} // namespace stems::dispatch

#endif // STEMS_DISPATCH_WORKER_HH
