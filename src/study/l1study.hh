/**
 * @file
 * The trace-based L1 coverage study used by Sections 4.2-4.5
 * (Figures 6-10 and the AGT sizing result). Per-CPU shadow L1 caches
 * consume the interleaved trace; remote writes broadcast 64 B
 * invalidations (the coherence behaviour that matters at L1 for
 * generation lifetimes); an SMS unit per CPU trains on its cache's
 * access and departure streams and streams predictions back into it.
 *
 * Coverage is reported against a baseline (no-prefetch) pass over the
 * same trace, matching the paper's definition: coverage = fraction of
 * baseline L1 read misses eliminated; overpredictions = prefetched
 * blocks evicted or invalidated unused, as a fraction of baseline
 * misses (so bars can exceed 100%).
 */

#ifndef STEMS_STUDY_L1STUDY_HH
#define STEMS_STUDY_L1STUDY_HH

#include <cstdint>

#include "core/sectored.hh"
#include "core/sms.hh"
#include "mem/cache.hh"
#include "trace/access.hh"
#include "trace/stream.hh"

namespace stems::study {

/** Which training structure drives prediction (Figure 8). */
enum class TrainerKind { AGT, LogicalSectored, DecoupledSectored };

inline const char *
trainerName(TrainerKind k)
{
    switch (k) {
      case TrainerKind::AGT: return "AGT";
      case TrainerKind::LogicalSectored: return "LS";
      case TrainerKind::DecoupledSectored: return "DS";
    }
    return "?";
}

/** Configuration of one L1 coverage experiment. */
struct L1StudyConfig
{
    uint32_t ncpu = 16;
    mem::CacheConfig l1{64 * 1024, 2, 64};
    core::SmsConfig sms;  //!< geometry/index/PHT/AGT parameters
    TrainerKind trainer = TrainerKind::AGT;
    core::DsConfig ds;    //!< used when trainer == DecoupledSectored
    bool prefetch = true; //!< false = baseline measurement
};

/** Outcome of one L1 coverage experiment. */
struct L1StudyResult
{
    uint64_t instructions = 0;
    uint64_t readAccesses = 0;
    uint64_t readMisses = 0;       //!< demand read misses (with pf)
    uint64_t coveredReads = 0;     //!< read hits on prefetched blocks
    uint64_t overpredictions = 0;  //!< prefetched blocks dropped unused
    uint64_t peakAccumOccupancy = 0;  //!< max AGT accumulation demand
    uint64_t peakFilterOccupancy = 0; //!< max AGT filter demand
};

/**
 * Run one pass through the shadow-L1 pipeline: per-CPU streams in the
 * canonical interleaved order for workload seed @p seed
 * (trace::canonicalView), without building a merged trace.
 */
L1StudyResult runL1Study(const trace::StreamSet &set,
                         const L1StudyConfig &cfg, uint64_t seed);

} // namespace stems::study

#endif // STEMS_STUDY_L1STUDY_HH
