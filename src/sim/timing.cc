#include "sim/timing.hh"

#include <algorithm>

#include "trace/interleaver.hh"
#include "util/ring.hh"

namespace stems::sim {

namespace {

enum class Cat : uint8_t { L1, OnChip, OffChip };

/**
 * One CPU's analytic out-of-order core, advanced one reference at a
 * time. Keeping the model per-CPU lets the functional annotation pass
 * feed it in place: the simulation makes a single pass over the
 * interleaved view, with no merged trace, no per-CPU re-copy, and no
 * materialised annotation buffer between the two phases.
 */
/**
 * How far back a dependence distance can reach. Completion times are
 * kept in a fixed power-of-two ring instead of an O(nrefs) vector so
 * the core model's footprint is independent of trace length — the
 * point of the streaming pipeline. Workload generators emit distances
 * of a few references; anything beyond the window (impossible today)
 * would conservatively drop the dependence edge.
 */
constexpr size_t kDepWindow = 8192;
static_assert((kDepWindow & (kDepWindow - 1)) == 0);

struct CoreModel
{
    CoreModel(const CoreConfig &cfg)
        : cfg(cfg), rob_window(cfg.robEntries + 1), mshr(cfg.mshrs + 1),
          sb(cfg.storeBuffer + 1)
    {
        complete.resize(kDepWindow, 0.0);
    }

    double &completeAt(size_t pos) { return complete[pos & (kDepWindow - 1)]; }

    const CoreConfig &cfg;
    std::vector<double> complete;  //!< ring, indexed mod kDepWindow
    size_t i = 0;  //!< per-CPU reference position
    double retire = 0.0;
    double dispatch = 0.0;
    uint64_t instr_so_far = 0;
    uint64_t userInstructions = 0;
    uint64_t systemInstructions = 0;
    util::FixedRing<std::pair<uint64_t, double>> rob_window;
    util::FixedMinHeap<double> mshr;
    util::FixedRing<double> sb;
    TimeBreakdown bd;

    void
    step(const trace::MemAccess &a, uint32_t lat, Cat cat)
    {
        const uint32_t instrs = a.ninst + 1;
        const double slot = double(instrs) / cfg.width;
        instr_so_far += instrs;

        // dispatch: bounded by fetch width and the ROB window
        dispatch += slot;
        while (!rob_window.empty() &&
               instr_so_far - rob_window.front().first >
                   cfg.robEntries) {
            dispatch = std::max(dispatch, rob_window.front().second);
            rob_window.pop_front();
        }

        double start = dispatch;
        if (a.dep != 0 && a.dep <= i && a.dep < kDepWindow)
            start = std::max(start, completeAt(i - a.dep));

        if (!a.isWrite) {
            if (cat != Cat::L1) {
                // misses occupy an MSHR until their fill returns
                while (!mshr.empty() && mshr.top() <= start)
                    mshr.pop();
                if (mshr.size() >= cfg.mshrs) {
                    start = std::max(start, mshr.top());
                    mshr.pop();
                }
                completeAt(i) = start + lat;
                mshr.push(completeAt(i));
            } else {
                completeAt(i) = start + lat;
            }
        } else {
            // stores leave the critical path at retire
            completeAt(i) = start + 1.0;
        }

        // in-order retirement at the configured width
        const double earliest = retire + slot;
        double r = earliest;
        if (!a.isWrite)
            r = std::max(r, completeAt(i));

        if (a.isWrite) {
            while (!sb.empty() && sb.front() <= r)
                sb.pop_front();
            if (sb.size() >= cfg.storeBuffer) {
                double wait = sb.front();
                sb.pop_front();
                if (wait > r) {
                    bd.storeBuffer += wait - r;
                    r = wait;
                }
            }
            const double drain_start =
                std::max(sb.empty() ? 0.0 : sb.back(), r);
            sb.push_back(drain_start + lat);
        } else if (r > earliest) {
            const double stall = r - earliest;
            switch (cat) {
              case Cat::OffChip:
                bd.offChipRead += stall;
                break;
              case Cat::OnChip:
                bd.onChipRead += stall;
                break;
              case Cat::L1:
                bd.other += stall;
                break;
            }
        }

        // busy and fixed overhead accounting
        if (a.isKernel)
            bd.systemBusy += slot;
        else
            bd.userBusy += slot;
        const double other = cfg.otherStallPerInstr * instrs;
        bd.other += other;
        retire = r + other;
        rob_window.push_back({instr_so_far, retire});

        if (a.isKernel)
            systemInstructions += instrs;
        else
            userInstructions += instrs;
        ++i;
    }
};

/** One annotated reference, staged between the two batch loops. */
struct Annotated
{
    trace::MemAccess a;
    uint32_t lat;
    Cat cat;
};

/** Accesses staged per batch; amortizes the annotate/retire switch. */
constexpr size_t kBatch = 128;

/**
 * Single fused pass over @p view: each reference is annotated by the
 * coherent memory system and retired through its CPU's core model.
 * Batched in groups of kBatch — the annotate loop (cache hierarchy +
 * latency classification) runs back to back, then the core-model
 * retire loop drains the batch. The two loops touch disjoint state
 * (annotation never reads core time), so the split is numerically
 * identical to the interleaved form while keeping each loop's
 * branches and data hot.
 *
 * Kept out of line: with a single caller left, LTO inlines this loop
 * into runTiming, and the timing-heavy paper suite then ran ~5% slower
 * end to end (gcc, 4-vCPU x86-64).
 */
[[gnu::noinline]] TimingResult
runTimingView(trace::InterleavedView &view, const TimingConfig &cfg,
              const prefetch::PfAttach &attach)
{
    const uint32_t ncpu = cfg.sys.ncpu;
    Torus torus(4, 4, cfg.core.hopLatency);

    mem::MemorySystem sys(cfg.sys);
    prefetch::AttachedPrefetcher *pf = attach ? attach(sys) : nullptr;

    std::vector<CoreModel> cores;
    cores.reserve(ncpu);
    for (uint32_t c = 0; c < ncpu; ++c)
        cores.emplace_back(cfg.core);

    std::vector<Annotated> batch(kBatch);
    size_t filled = 0;
    auto drain = [&] {
        for (size_t k = 0; k < filled; ++k)
            cores[batch[k].a.cpu].step(batch[k].a, batch[k].lat,
                                       batch[k].cat);
        filled = 0;
    };

    const trace::MemAccess *span;
    uint32_t spanCpu;
    size_t spanLen;
    while ((spanLen = view.nextSpan(span, spanCpu)) != 0) {
        for (size_t k = 0; k < spanLen; ++k) {
            trace::MemAccess a = span[k];
            a.cpu = spanCpu;
            mem::AccessOutcome out = sys.access(a);
            uint32_t lat;
            Cat cat;
            switch (out.level) {
              case mem::HitLevel::L1:
                lat = cfg.core.l1Latency;
                cat = Cat::L1;
                break;
              case mem::HitLevel::L2:
                lat = cfg.core.l2Latency;
                cat = Cat::OnChip;
                break;
              case mem::HitLevel::Remote:
                lat = cfg.core.l2Latency +
                    torus.roundTrip(a.cpu, torus.homeNode(a.addr)) +
                    cfg.core.l2Latency;
                cat = Cat::OffChip;
                break;
              default:  // HitLevel::Memory
                lat = cfg.core.l2Latency +
                    torus.roundTrip(a.cpu, torus.homeNode(a.addr)) +
                    cfg.core.memLatency;
                cat = Cat::OffChip;
                break;
            }
            if (a.isWrite && out.l1PrefetchHit) {
                // the attached engine streamed this block read-only;
                // the store still pays a full fetch-for-ownership
                // round trip before the store buffer can drain it
                // (Section 4.7's Qry1 observation) — uniform for any
                // into-L1 prefetcher, not an SMS special case
                lat = std::max<uint32_t>(
                    cfg.core.upgradeLatency,
                    cfg.core.l2Latency +
                        torus.roundTrip(a.cpu, torus.homeNode(a.addr)) +
                        cfg.core.memLatency);
                cat = Cat::OffChip;
            }
            batch[filled++] = {a, lat, cat};
            if (filled == kBatch)
                drain();
        }
    }
    drain();

    if (pf)
        pf->drain();

    // harvest in CPU order (matches the former per-CPU second phase)
    TimingResult res;
    for (uint32_t c = 0; c < ncpu; ++c) {
        res.cycles = std::max(res.cycles, cores[c].retire);
        res.breakdown += cores[c].bd;
        res.userInstructions += cores[c].userInstructions;
        res.systemInstructions += cores[c].systemInstructions;
    }
    return res;
}

} // anonymous namespace

TimingResult
runTiming(const trace::StreamSet &set, const TimingConfig &cfg,
          uint64_t seed, const prefetch::PfAttach &attach)
{
    trace::InterleavedView view = trace::canonicalView(set, seed);
    return runTimingView(view, cfg, attach);
}

} // namespace stems::sim
