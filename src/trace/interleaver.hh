/**
 * @file
 * Deterministic chunked interleaving of per-CPU reference streams,
 * modelling the fine-grain interleaving a multiprocessor's shared
 * memory system observes.
 *
 * Two forms share one chunk schedule: Interleaver::merge materialises
 * a merged trace (workloads::makeTrace, for tests and examples that
 * want one flat sequence), while InterleavedView walks the original
 * per-CPU streams in exactly the same global order without copying
 * them — the only form the study passes (study::runSystem,
 * study::runL1Study, and sim::runTiming riding runSystem) iterate,
 * saving a full trace of resident memory per concurrent run.
 */

#ifndef STEMS_TRACE_INTERLEAVER_HH
#define STEMS_TRACE_INTERLEAVER_HH

#include <cstdint>
#include <vector>

#include "trace/access.hh"
#include "trace/rng.hh"
#include "trace/stream.hh"

namespace stems::trace {

/**
 * A cursor over per-CPU streams in deterministic interleaved order.
 * CPUs take turns emitting chunks of random length in
 * [minChunk, maxChunk]; chunk lengths are drawn from a seeded PRNG so
 * the order is reproducible and identical to Interleaver::merge with
 * the same parameters. Interleaving granularity matters to SMS: the
 * paper shows interleaved accesses to independent spatial regions
 * defeat coupled training structures (Section 4.3), so the schedule
 * interleaves well below transaction granularity.
 *
 * The view only reads the streams. It walks StreamViews, so the
 * backing can be caller-owned vectors (kept alive and unchanged while
 * iterating) or sections of an mmap'd spill — in the mapped case the
 * cursor reports consumption back to each view so pages behind it are
 * dropped and peak RSS tracks the interleave window, not the trace
 * length. Each access's cpu field is rewritten to its stream index in
 * the copy handed out by next().
 */
class InterleavedView
{
  public:
    /** Walk per-stream cursors (StreamSet::views()). */
    explicit InterleavedView(std::vector<StreamView> views,
                             uint32_t min_chunk = 1,
                             uint32_t max_chunk = 16, uint64_t seed = 42)
        : views_(std::move(views)), minChunk(min_chunk),
          maxChunk(max_chunk), seed_(seed)
    {
        reset();
    }

    /** Rewind to the first access (chunk schedule restarts). */
    void reset();

    /**
     * Copy the next access (cpu field rewritten to its stream index)
     * into @p out.
     * @return false when the streams are exhausted.
     */
    bool
    next(MemAccess &out)
    {
        if (spanLeft == 0 && !refill())
            return false;
        out = *spanNext++;
        out.cpu = spanCpu;
        --spanLeft;
        return true;
    }

    /**
     * Hand out the next contiguous run of accesses, all from one
     * stream (the caller rewrites the cpu field to @p stream_index
     * when it matters). Spans follow each other in exactly the order
     * next() would emit individual accesses; the per-reference state
     * machine runs once per chunk instead of once per access.
     * @return the span length, 0 when exhausted.
     */
    size_t
    nextSpan(const MemAccess *&base, uint32_t &stream_index)
    {
        if (spanLeft == 0 && !refill())
            return 0;
        base = spanNext;
        stream_index = spanCpu;
        const size_t n = spanLeft;
        spanNext += n;
        spanLeft = 0;
        return n;
    }

    /** Total number of accesses across all streams. */
    size_t size() const { return total; }

    /** Number of per-CPU streams. */
    size_t numStreams() const { return views_.size(); }

  private:
    /**
     * Advance the chunk schedule to the next non-empty run and expose
     * it as [spanNext, spanNext + spanLeft) from stream spanCpu.
     * @return false when all streams are exhausted.
     */
    bool
    refill()
    {
        while (live > 0) {
            StreamView &s = views_[cpu];
            const size_t remaining = s.size() - pos[cpu];
            if (remaining == 0) {
                cpu = (cpu + 1) % views_.size();
                continue;
            }
            const uint64_t chunk = rng.range(minChunk, maxChunk);
            const size_t n =
                static_cast<size_t>(chunk < remaining ? chunk
                                                      : remaining);
            spanNext = s.data() + pos[cpu];
            spanLeft = n;
            spanCpu = static_cast<uint32_t>(cpu);
            pos[cpu] += n;
            // mapped backings drop pages behind the cursor
            s.consumed(pos[cpu]);
            if (pos[cpu] == s.size())
                --live;
            cpu = (cpu + 1) % views_.size();
            if (n != 0)
                return true;
            // chunk == 0 (minChunk == 0): an empty turn, keep going
        }
        return false;
    }

    std::vector<StreamView> views_;
    uint32_t minChunk;
    uint32_t maxChunk;
    uint64_t seed_;
    Rng rng{0};
    std::vector<size_t> pos;
    size_t total = 0;
    size_t live = 0;
    size_t cpu = 0;
    const MemAccess *spanNext = nullptr;
    size_t spanLeft = 0;
    uint32_t spanCpu = 0;
};

/**
 * Merge per-CPU streams into a single globally-ordered trace, using
 * the same schedule as InterleavedView with identical parameters.
 */
class Interleaver
{
  public:
    Interleaver(uint32_t min_chunk = 1, uint32_t max_chunk = 16,
                uint64_t seed = 42)
        : minChunk(min_chunk), maxChunk(max_chunk), seed_(seed)
    {}

    /**
     * Merge @p streams (index = cpu) into one trace. Every access's
     * cpu field is rewritten to its stream index.
     */
    Trace merge(const std::vector<Trace> &streams) const;

  private:
    uint32_t minChunk;
    uint32_t maxChunk;
    uint64_t seed_;
};

/**
 * THE engine-wide interleave schedule: chunk lengths in [1, 16] and
 * the workload seed mixed as seed * 977 + 13. Every production site —
 * trace generation, spill record/replay, the system study, the timing
 * model, the benches — must interleave through these helpers so the
 * global order (and with it, byte-identical reports and .stmt replay)
 * can never drift between call sites.
 */
inline Interleaver
canonicalInterleaver(uint64_t workload_seed)
{
    return Interleaver(1, 16, workload_seed * 977 + 13);
}

/**
 * Canonical-order cursor over a StreamSet's backing, whatever it is —
 * borrowed/owned vectors or a mapped spill. The schedule depends only
 * on stream sizes and the seed, so the emitted order (and with it
 * every downstream report byte) is identical across backings.
 */
inline InterleavedView
canonicalView(const StreamSet &set, uint64_t workload_seed)
{
    return InterleavedView(set.views(), 1, 16, workload_seed * 977 + 13);
}

} // namespace stems::trace

#endif // STEMS_TRACE_INTERLEAVER_HH
