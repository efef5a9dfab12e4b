#include "obs/counters.hh"

#include <sys/resource.h>

#include <iterator>

namespace stems::obs {

Counters &
Counters::get()
{
    static Counters c;
    return c;
}

namespace {

/**
 * Every counter with its telemetry key, in telemetry order: the one
 * list reset() and snapshotCounters() walk.
 */
constexpr std::pair<const char *, std::atomic<uint64_t> Counters::*>
    kCounters[] = {
    {"trace_cache_hits", &Counters::traceCacheHits},
    {"trace_cache_misses", &Counters::traceCacheMisses},
    {"trace_spill_replays", &Counters::traceSpillReplays},
    {"baseline_memo_hits", &Counters::baselineMemoHits},
    {"baseline_memo_misses", &Counters::baselineMemoMisses},
    {"timing_memo_hits", &Counters::timingMemoHits},
    {"timing_memo_misses", &Counters::timingMemoMisses},
    {"system_passes", &Counters::systemPasses},
    {"cells_executed", &Counters::cellsExecuted},
    {"dispatch_retries", &Counters::dispatchRetries},
    {"cells_requeued", &Counters::cellsRequeued},
    {"worker_respawns", &Counters::workerRespawns},
    {"wire_bytes_sent", &Counters::wireBytesSent},
    {"wire_bytes_received", &Counters::wireBytesReceived},
    {"faults_injected", &Counters::faultsInjected},
    {"heartbeats_missed", &Counters::heartbeatsMissed},
    {"journal_cells_written", &Counters::journalCellsWritten},
    {"journal_cells_replayed", &Counters::journalCellsReplayed},
    {"degraded_cells", &Counters::degradedCells},
    {"trace_bytes_mapped", &Counters::traceBytesMapped},
    {"trace_prefetch_ahead", &Counters::tracePrefetchAhead},
    {"stream_stalls", &Counters::streamStalls},
    {"serve_requests_admitted", &Counters::serveRequestsAdmitted},
    {"serve_requests_queued", &Counters::serveRequestsQueued},
    {"serve_requests_rejected", &Counters::serveRequestsRejected},
    {"serve_cache_warm_hits", &Counters::serveCacheWarmHits},
    {"cells_stolen", &Counters::cellsStolen},
    {"socket_bytes_sent", &Counters::socketBytesSent},
    {"socket_bytes_received", &Counters::socketBytesReceived},
};
static_assert(sizeof(Counters) ==
                  std::size(kCounters) * sizeof(std::atomic<uint64_t>),
              "every Counters field needs a kCounters row");

} // anonymous namespace

void
Counters::reset()
{
    for (const auto &[name, member] : kCounters)
        (this->*member).store(0, std::memory_order_relaxed);
}

std::vector<std::pair<std::string, uint64_t>>
snapshotCounters()
{
    const Counters &c = Counters::get();
    std::vector<std::pair<std::string, uint64_t>> out;
    for (const auto &[name, member] : kCounters)
        out.emplace_back(name, (c.*member).load(std::memory_order_relaxed));
    return out;
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
