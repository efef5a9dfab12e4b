/**
 * @file
 * Full-system trace study on the multiprocessor memory hierarchy:
 * drives a MemorySystem (optionally with a prefetcher attached) over
 * per-CPU streams in interleaved order and collects the measurements
 * behind Figures 4, 5 and 11 — per-level miss rates, oracle
 * opportunity at a set of region sizes, access-density histograms,
 * off-chip coverage, and the true/false sharing split.
 *
 * The study's per-reference loop is the repository's one walk of the
 * coherent hierarchy. runSystem takes an observer that sees each
 * reference together with the hierarchy's outcome, so the timing
 * model (sim::CoreTimer) rides the same pass: one walk yields both
 * the system study and the timing result.
 *
 * A pass borrows its MemorySystem. A caller that runs many passes
 * (driver::CellExecutor) lends each one a built system and reset()s
 * it afterwards, so the hierarchy's tens of megabytes of tables are
 * allocated once per concurrent pass, not once per pass; the
 * overloads without a system build a private one.
 */

#ifndef STEMS_STUDY_MEMSTUDY_HH
#define STEMS_STUDY_MEMSTUDY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "mem/memsys.hh"
#include "prefetch/attach.hh"
#include "study/density.hh"
#include "trace/access.hh"
#include "trace/interleaver.hh"
#include "trace/stream.hh"

namespace stems::study {

/**
 * The attach seam (see prefetch/attach.hh): the experiment engine's
 * registry (driver::registryAttach) returns these, and it is the one
 * way an engine joins runSystem and the timing model riding it.
 */
using AttachedPrefetcher = prefetch::AttachedPrefetcher;
using PfAttach = prefetch::PfAttach;

/** Configuration of one full-system run; the engine comes by attach. */
struct SystemStudyConfig
{
    mem::MemSysConfig sys;
    /** Track oracle generations at these region sizes (L1 and L2). */
    std::vector<uint32_t> oracleRegionSizes;
    bool trackDensity = false;
    uint32_t densityRegionSize = 2048;
};

/** Everything a system run measures. */
struct SystemStudyResult
{
    uint64_t instructions = 0;
    uint64_t l1ReadAccesses = 0;
    uint64_t l1ReadMisses = 0;
    uint64_t l2ReadMisses = 0;   //!< off-chip read misses
    uint64_t l1Misses = 0;       //!< all demand L1 misses (incl writes)
    uint64_t l2Misses = 0;       //!< all demand off-chip misses
    uint64_t l1Covered = 0;      //!< reads hitting L1-prefetched blocks
    uint64_t l2Covered = 0;      //!< first uses of L2-prefetched blocks
    uint64_t l1Overpred = 0;
    uint64_t l2Overpred = 0;
    uint64_t trueSharing = 0;
    uint64_t falseSharing = 0;
    uint64_t readCohMisses = 0;
    uint64_t memWritebacks = 0;
    std::vector<uint64_t> oracleL1Gens;  //!< parallel to region sizes
    std::vector<uint64_t> oracleL2Gens;
    std::array<uint64_t, kDensityBuckets> l1Density{};
    std::array<uint64_t, kDensityBuckets> l2Density{};
};

/**
 * One system pass in progress on a borrowed hierarchy, with the
 * attached engine and the study's trackers. access() services one
 * reference and records what the study measures; finish() drains the
 * engine and harvests. The trackers hold this object's address and
 * subscribe to the hierarchy, so it neither copies nor moves, and the
 * hierarchy must be reset() before it serves another pass.
 */
class SystemPass
{
  public:
    /**
     * @param sys a system in its freshly constructed state (new, or
     *            reset()) whose config() is cfg.sys
     */
    SystemPass(const SystemStudyConfig &cfg, mem::MemorySystem &sys,
               const PfAttach &attach);
    ~SystemPass();
    SystemPass(const SystemPass &) = delete;
    SystemPass &operator=(const SystemPass &) = delete;

    mem::AccessOutcome access(const trace::MemAccess &a);
    SystemStudyResult finish();

  private:
    class OracleListener;

    const uint32_t ncpu;
    const size_t nsizes;  //!< oracle region sizes tracked
    const bool trackDensity;
    mem::MemorySystem &sys;
    AttachedPrefetcher *pf;
    //! indexed [size * ncpu + cpu]
    std::vector<std::unique_ptr<OracleListener>> oracleL1, oracleL2;
    std::vector<std::unique_ptr<DensityTracker>> densL1, densL2;
    SystemStudyResult res;
};

/** A runSystem observer that watches nothing: the study alone. */
struct NoObserver
{
    void observe(const trace::MemAccess &, const mem::AccessOutcome &) {}
};

/**
 * Drive per-CPU streams through @p sys in the canonical interleaved
 * order for workload seed @p seed (trace::canonicalView), without
 * building a merged trace. The StreamSet's backing may be an mmap'd
 * spill (consumed pages are dropped behind the cursor) or in-memory
 * vectors (StreamSet::borrowed).
 *
 * @param sys      the borrowed hierarchy: freshly constructed or
 *                 reset(), of geometry cfg.sys. The pass leaves its
 *                 end state and its listeners on it, so reset() it
 *                 before it serves another pass.
 * @param attach   builds a prefetcher deployment onto @p sys before
 *                 the first reference (empty = no prefetcher);
 *                 drained after the last one, before harvest.
 * @param observer observe(a, outcome) sees every reference right after
 *                 the hierarchy serviced it (NoObserver,
 *                 sim::CoreTimer).
 */
template <typename Observer>
SystemStudyResult
runSystem(const trace::StreamSet &set, const SystemStudyConfig &cfg,
          uint64_t seed, mem::MemorySystem &sys, const PfAttach &attach,
          Observer &observer)
{
    SystemPass pass(cfg, sys, attach);
    trace::InterleavedView view = trace::canonicalView(set, seed);
    const trace::MemAccess *span;
    uint32_t spanCpu;
    size_t n;
    while ((n = view.nextSpan(span, spanCpu)) != 0) {
        for (size_t k = 0; k < n; ++k) {
            trace::MemAccess a = span[k];
            a.cpu = spanCpu;
            observer.observe(a, pass.access(a));
        }
    }
    return pass.finish();
}

/** As above, on a private system built from cfg.sys. */
template <typename Observer>
SystemStudyResult
runSystem(const trace::StreamSet &set, const SystemStudyConfig &cfg,
          uint64_t seed, const PfAttach &attach, Observer &observer)
{
    mem::MemorySystem sys(cfg.sys);
    return runSystem(set, cfg, seed, sys, attach, observer);
}

/** The system study alone, on a private system (see above). */
SystemStudyResult runSystem(const trace::StreamSet &set,
                            const SystemStudyConfig &cfg, uint64_t seed,
                            const PfAttach &attach = {});

} // namespace stems::study

#endif // STEMS_STUDY_MEMSTUDY_HH
