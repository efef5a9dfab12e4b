/**
 * @file
 * Global History Buffer prefetcher, PC/DC variant (Nesbit & Smith,
 * HPCA 2004) — the strongest prior prefetcher the paper compares
 * against (Section 4.6 / Figure 11). An index table maps a miss PC to
 * the head of that PC's linked list threaded through a circular
 * global history buffer of miss addresses; delta correlation over the
 * per-PC address list predicts the next deltas.
 *
 * Like the paper, GHB observes the off-chip-bound miss stream at L2
 * (its multi-access lookup makes it impractical at L1) and prefetches
 * into L2.
 */

#ifndef STEMS_PREFETCH_GHB_HH
#define STEMS_PREFETCH_GHB_HH

#include <cstdint>
#include <vector>

#include "prefetch/prefetcher.hh"

namespace stems::prefetch {

/** GHB PC/DC parameters. */
struct GhbConfig
{
    uint32_t ghbEntries = 256;  //!< history buffer size (256 or 16k)
    uint32_t itEntries = 256;   //!< index table entries (direct-mapped)
    uint32_t degree = 4;        //!< max prefetches per trigger
    uint32_t maxWalk = 64;      //!< link-list walk bound
    uint32_t blockSize = 64;    //!< delta granularity
};

/** GHB event counters. */
struct GhbStats
{
    uint64_t triggers = 0;      //!< misses observed
    uint64_t walks = 0;         //!< chains of length >= 3 examined
    uint64_t correlations = 0;  //!< delta pairs matched in history
    uint64_t issued = 0;        //!< prefetch addresses produced
};

/** One per-CPU GHB PC/DC engine. */
class GhbPcDc : public PrefetchAlgorithm
{
  public:
    explicit GhbPcDc(const GhbConfig &config);

    void observe(const ObservedAccess &a,
                 std::vector<uint64_t> &out) override;

    bool intoL1() const override { return false; }
    const char *name() const override { return "ghb-pc/dc"; }

    const GhbStats &stats() const { return stats_; }

  private:
    struct GhbEntry
    {
        uint64_t blockAddr = 0;  //!< miss address in blocks
        uint64_t link = 0;       //!< global seq of previous same-PC entry
        uint32_t linkSlot = 0;   //!< buffer index of that entry
        bool hasLink = false;
    };

    struct ItEntry
    {
        uint64_t pc = 0;
        uint64_t head = 0;  //!< global seq of newest GHB entry for pc
        uint32_t headSlot = 0;  //!< buffer index of that entry
        bool valid = false;
    };

    bool
    inWindow(uint64_t seq) const
    {
        return seq < head && head - seq <= cfg.ghbEntries;
    }

    GhbConfig cfg;
    std::vector<GhbEntry> buffer;
    std::vector<ItEntry> indexTable;
    uint64_t head = 0;  //!< next global sequence number
    uint32_t headSlot = 0;  //!< buffer index of sequence number head
    std::vector<uint64_t> walkScratch;
    std::vector<int64_t> deltaScratch;
    GhbStats stats_;
};

} // namespace stems::prefetch

#endif // STEMS_PREFETCH_GHB_HH
