/**
 * @file
 * Benchmark-side spans: wall-clock intervals the benchmark records
 * around its own calls into the library's public functions. Spans are
 * kept in memory (name, start, end, parent, thread, args) and written
 * once at the end as Chrome trace-event JSON, so the library's own
 * obs::Recorder stays off and the program under test is unchanged.
 */

#ifndef STEMS_BENCHMARK_SPANS_HH
#define STEMS_BENCHMARK_SPANS_HH

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace stems::bench {

class SpanLog
{
  public:
    /** The process-wide log. */
    static SpanLog &get();

    /**
     * Open a span; its parent is the innermost span still open on the
     * calling thread. @p args is a JSON object body ("" = none).
     * @return the span's id
     */
    size_t begin(std::string name, std::string args = "");

    /** Close span @p id (opened on this thread); @return its ns. */
    int64_t end(size_t id);

    /** Chrome trace-event JSON ("X" events, ts/dur in µs). */
    std::string chromeJson() const;

  private:
    struct Span
    {
        std::string name;
        std::string args;
        int64_t startNs = 0;
        int64_t endNs = 0;
        int64_t parent = -1;
        uint32_t tid = 0;
    };

    mutable std::mutex mu;  //!< guards spans
    std::vector<Span> spans;
};

/** Run @p body inside a span named @p name; @return its ns. */
template <class F>
int64_t
timed(const std::string &name, F &&body, std::string args = "")
{
    SpanLog &log = SpanLog::get();
    const size_t id = log.begin(name, std::move(args));
    body();
    return log.end(id);
}

} // namespace stems::bench

#endif // STEMS_BENCHMARK_SPANS_HH
