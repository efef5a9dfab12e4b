/**
 * @file
 * Process-wide named counters for engine observability: TraceCache
 * hits/misses, baseline/timing memo hits/misses, hierarchy passes run,
 * dispatch retries and re-queues, wire bytes. Counting is always on
 * (one relaxed atomic increment at per-cell or per-memo granularity —
 * never per memory reference), and the registry is only *read* when a
 * telemetry sink was requested, so default runs pay nothing
 * observable.
 *
 * Counter values are deterministic across thread counts: every
 * counted event is tied to a memoization slot (std::call_once) or a
 * protocol action, not to scheduling order.
 */

#ifndef STEMS_OBS_COUNTERS_HH
#define STEMS_OBS_COUNTERS_HH

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace stems::obs {

/** The fixed set of engine counters. */
struct Counters
{
    std::atomic<uint64_t> traceCacheHits{0};
    std::atomic<uint64_t> traceCacheMisses{0};
    std::atomic<uint64_t> traceSpillReplays{0};
    std::atomic<uint64_t> baselineMemoHits{0};
    std::atomic<uint64_t> baselineMemoMisses{0};
    std::atomic<uint64_t> timingMemoHits{0};
    std::atomic<uint64_t> timingMemoMisses{0};
    std::atomic<uint64_t> systemPasses{0};  //!< hierarchy walks run
    std::atomic<uint64_t> cellsExecuted{0};
    std::atomic<uint64_t> dispatchRetries{0};
    std::atomic<uint64_t> cellsRequeued{0};
    std::atomic<uint64_t> workerRespawns{0};
    std::atomic<uint64_t> wireBytesSent{0};
    std::atomic<uint64_t> wireBytesReceived{0};
    // fault-tolerance families: chaos injection, liveness and
    // run durability
    std::atomic<uint64_t> faultsInjected{0};
    std::atomic<uint64_t> heartbeatsMissed{0};
    std::atomic<uint64_t> journalCellsWritten{0};
    std::atomic<uint64_t> journalCellsReplayed{0};
    std::atomic<uint64_t> degradedCells{0};
    // streaming trace pipeline (PR 9). Bytes mapped and spill replays
    // stay slot-tied (deterministic); prefetch-ahead and stream stalls
    // depend on scheduling and are only meaningful as rates.
    std::atomic<uint64_t> traceBytesMapped{0};
    std::atomic<uint64_t> tracePrefetchAhead{0};
    std::atomic<uint64_t> streamStalls{0};
    // experiment-service families: admission-queue outcomes,
    // warm-cache reuse across requests and the socket control channel.
    // cellsStolen always reads 0 (no cell runs twice at once); it stays
    // because the benchmark's layer report reads it
    std::atomic<uint64_t> serveRequestsAdmitted{0};
    std::atomic<uint64_t> serveRequestsQueued{0};
    std::atomic<uint64_t> serveRequestsRejected{0};
    std::atomic<uint64_t> serveCacheWarmHits{0};
    std::atomic<uint64_t> cellsStolen{0};
    std::atomic<uint64_t> socketBytesSent{0};
    std::atomic<uint64_t> socketBytesReceived{0};

    static Counters &get();

    /** Zero every counter (tests only — not thread-safe vs counting). */
    void reset();

    void
    add(std::atomic<uint64_t> &c, uint64_t n = 1)
    {
        c.fetch_add(n, std::memory_order_relaxed);
    }
};

/** Shorthand: bump a counter on the process-wide registry. */
inline void
count(std::atomic<uint64_t> Counters::*member, uint64_t n = 1)
{
    (Counters::get().*member).fetch_add(n, std::memory_order_relaxed);
}

/**
 * Name → value snapshot in declaration order; zero-valued counters
 * included so the telemetry schema is stable run to run.
 */
std::vector<std::pair<std::string, uint64_t>> snapshotCounters();

/** Peak resident set size of this process in KB (getrusage). */
uint64_t peakRssKb();

} // namespace stems::obs

#endif // STEMS_OBS_COUNTERS_HH
