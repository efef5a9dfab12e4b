#include "obs/counters.hh"

#include <sys/resource.h>

namespace stems::obs {

Counters &
Counters::get()
{
    static Counters c;
    return c;
}

void
Counters::reset()
{
    traceCacheHits = 0;
    traceCacheMisses = 0;
    traceSpillReplays = 0;
    baselineMemoHits = 0;
    baselineMemoMisses = 0;
    timingMemoHits = 0;
    timingMemoMisses = 0;
    systemPasses = 0;
    cellsExecuted = 0;
    dispatchRetries = 0;
    cellsRequeued = 0;
    workerRespawns = 0;
    wireBytesSent = 0;
    wireBytesReceived = 0;
    faultsInjected = 0;
    heartbeatsMissed = 0;
    journalCellsWritten = 0;
    journalCellsReplayed = 0;
    degradedCells = 0;
    traceBytesMapped = 0;
    tracePrefetchAhead = 0;
    streamStalls = 0;
    serveRequestsAdmitted = 0;
    serveRequestsQueued = 0;
    serveRequestsRejected = 0;
    serveCacheWarmHits = 0;
    cellsStolen = 0;
    socketBytesSent = 0;
    socketBytesReceived = 0;
}

std::vector<std::pair<std::string, uint64_t>>
snapshotCounters()
{
    const Counters &c = Counters::get();
    auto v = [](const std::atomic<uint64_t> &a) {
        return a.load(std::memory_order_relaxed);
    };
    return {
        {"trace_cache_hits", v(c.traceCacheHits)},
        {"trace_cache_misses", v(c.traceCacheMisses)},
        {"trace_spill_replays", v(c.traceSpillReplays)},
        {"baseline_memo_hits", v(c.baselineMemoHits)},
        {"baseline_memo_misses", v(c.baselineMemoMisses)},
        {"timing_memo_hits", v(c.timingMemoHits)},
        {"timing_memo_misses", v(c.timingMemoMisses)},
        {"system_passes", v(c.systemPasses)},
        {"cells_executed", v(c.cellsExecuted)},
        {"dispatch_retries", v(c.dispatchRetries)},
        {"cells_requeued", v(c.cellsRequeued)},
        {"worker_respawns", v(c.workerRespawns)},
        {"wire_bytes_sent", v(c.wireBytesSent)},
        {"wire_bytes_received", v(c.wireBytesReceived)},
        {"faults_injected", v(c.faultsInjected)},
        {"heartbeats_missed", v(c.heartbeatsMissed)},
        {"journal_cells_written", v(c.journalCellsWritten)},
        {"journal_cells_replayed", v(c.journalCellsReplayed)},
        {"degraded_cells", v(c.degradedCells)},
        {"trace_bytes_mapped", v(c.traceBytesMapped)},
        {"trace_prefetch_ahead", v(c.tracePrefetchAhead)},
        {"stream_stalls", v(c.streamStalls)},
        {"serve_requests_admitted", v(c.serveRequestsAdmitted)},
        {"serve_requests_queued", v(c.serveRequestsQueued)},
        {"serve_requests_rejected", v(c.serveRequestsRejected)},
        {"serve_cache_warm_hits", v(c.serveCacheWarmHits)},
        {"cells_stolen", v(c.cellsStolen)},
        {"socket_bytes_sent", v(c.socketBytesSent)},
        {"socket_bytes_received", v(c.socketBytesReceived)},
    };
}

uint64_t
peakRssKb()
{
    struct rusage ru = {};
    if (getrusage(RUSAGE_SELF, &ru) != 0)
        return 0;
    // ru_maxrss is KB on Linux
    return static_cast<uint64_t>(ru.ru_maxrss);
}

} // namespace stems::obs
