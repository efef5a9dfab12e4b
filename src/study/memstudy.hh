/**
 * @file
 * Full-system trace study on the multiprocessor memory hierarchy:
 * drives a MemorySystem (optionally with SMS or GHB attached) over an
 * interleaved trace and collects the measurements behind Figures 4, 5
 * and 11 — per-level miss rates, oracle opportunity at a set of
 * region sizes, access-density histograms, off-chip coverage, and the
 * true/false sharing split.
 */

#ifndef STEMS_STUDY_MEMSTUDY_HH
#define STEMS_STUDY_MEMSTUDY_HH

#include <array>
#include <cstdint>
#include <functional>
#include <vector>

#include "core/sms.hh"
#include "mem/memsys.hh"
#include "prefetch/attach.hh"
#include "prefetch/ghb.hh"
#include "study/density.hh"
#include "trace/access.hh"
#include "trace/stream.hh"

namespace stems::study {

/**
 * The attach seam (see prefetch/attach.hh): the experiment engine's
 * registry returns these so runSystem — and sim::runTiming — can host
 * any deployment, not just the built-in PfKind set.
 */
using AttachedPrefetcher = prefetch::AttachedPrefetcher;
using PfAttach = prefetch::PfAttach;

/** Which prefetcher (if any) to deploy in a system run. */
enum class PfKind { None, Sms, Ghb };

/** Configuration of one full-system run. */
struct SystemStudyConfig
{
    mem::MemSysConfig sys;
    PfKind pf = PfKind::None;
    core::SmsConfig sms;
    prefetch::GhbConfig ghb;
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

    double
    l1MissesPerKilo() const
    {
        return instructions
                   ? 1000.0 * double(l1ReadMisses) / double(instructions)
                   : 0.0;
    }

    double
    l2MissesPerKilo() const
    {
        return instructions
                   ? 1000.0 * double(l2ReadMisses) / double(instructions)
                   : 0.0;
    }
};

/** Run one trace through a configured system. */
SystemStudyResult runSystem(const trace::Trace &t,
                            const SystemStudyConfig &cfg);

/**
 * Run one trace through a configured system with a caller-supplied
 * prefetcher deployment (cfg.pf is ignored). The handle returned by
 * @p attach is drained after the trace completes, before harvest.
 */
SystemStudyResult runSystem(const trace::Trace &t,
                            const SystemStudyConfig &cfg,
                            const PfAttach &attach);

/**
 * Zero-materialization form: drive the system from per-CPU streams in
 * canonical interleaved order (the same order workloads::makeTrace
 * materialises for workload seed @p seed), without building the
 * merged trace. The StreamSet's backing may be an mmap'd spill
 * (consumed pages are dropped behind the cursor) or in-memory vectors
 * (StreamSet::borrowed). Results are byte-identical to the
 * merged-trace overloads by construction.
 */
SystemStudyResult runSystem(const trace::StreamSet &set,
                            const SystemStudyConfig &cfg, uint64_t seed,
                            const PfAttach &attach = {});

} // namespace stems::study

#endif // STEMS_STUDY_MEMSTUDY_HH
