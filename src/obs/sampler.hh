/**
 * @file
 * Time-series sampling for the stems engine: a background thread
 * snapshots the counter registry, the scheduler gauges (pending /
 * busy / done), and the process RSS at a fixed interval and appends
 * one JSON document per line (JSONL) to a stats file.
 *
 * Off by default: nothing is allocated and no thread runs unless a
 * run asked for --stats-out=FILE. Sampling only *reads* the relaxed
 * atomics the engine already maintains, so an active sampler never
 * perturbs report bytes.
 *
 * Line schema (stable; checked by tests/golden/check_trace.py):
 *   {"schema":1,"ts_ms":<since start>,"rss_kb":N,
 *    "gauges":{"cells_pending":N,"workers_busy":N,"cells_done":N},
 *    "counters":{<every counter family, declaration order>}}
 */

#ifndef STEMS_OBS_SAMPLER_HH
#define STEMS_OBS_SAMPLER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <thread>

namespace stems::obs {

/**
 * Instantaneous scheduler state the sampler reads: unlike the
 * monotonic counters these move both ways. The writer (the cell
 * scheduler) adds with relaxed ordering — a gauge is a statistical
 * signal, not a synchronization point.
 */
struct Gauges
{
    std::atomic<int64_t> cellsPending{0};  //!< queued, no executor yet
    std::atomic<int64_t> workersBusy{0};   //!< threads/workers on a cell
    std::atomic<int64_t> cellsDone{0};     //!< results delivered

    static Gauges &get();

    /** Zero every gauge (run start / tests). */
    void reset();
};

/** Shorthand: adjust a gauge on the process-wide registry. */
inline void
gaugeAdd(std::atomic<int64_t> Gauges::*member, int64_t delta)
{
    (Gauges::get().*member).fetch_add(delta, std::memory_order_relaxed);
}

/**
 * The background sampler thread. start() opens the stats file and
 * begins ticking; stop() (or destruction) takes one final sample so
 * short runs still produce at least one line, then joins and closes.
 */
class StatsSampler
{
  public:
    StatsSampler() = default;
    ~StatsSampler();
    StatsSampler(const StatsSampler &) = delete;
    StatsSampler &operator=(const StatsSampler &) = delete;

    /**
     * Begin sampling every @p intervalMs ms into @p path (JSONL;
     * "-" = stdout). Throws std::runtime_error when the file cannot
     * be opened. @p intervalMs 0 is clamped to 1.
     */
    void start(const std::string &path, uint32_t intervalMs);

    /** Final sample, join the thread, flush and close the file. */
    void stop();

    bool running() const { return thread_.joinable(); }

    /**
     * Compose one sample line (no trailing newline) for @p tsMs.
     * Exposed for schema round-trip tests.
     */
    static std::string sampleLine(double tsMs);

  private:
    void loop(uint32_t intervalMs);
    void writeSample();

    std::FILE *file_ = nullptr;
    bool ownsFile_ = false;
    std::thread thread_;
    std::mutex mu_;
    std::condition_variable cv_;
    bool stopping_ = false;
    uint64_t startNs_ = 0;
};

} // namespace stems::obs

#endif // STEMS_OBS_SAMPLER_HH
