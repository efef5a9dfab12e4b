/**
 * @file
 * Prior-work training structures compared against the AGT in
 * Section 4.3 / Figures 8-9:
 *
 *  - LogicalSectoredTags models the spatial pattern predictor's [4]
 *    logical sectored-cache tag array: a sector-granularity tag
 *    structure maintained beside a traditional cache. It observes
 *    accesses and defines generations by its own tag residency, so
 *    interleaved regions conflict in its sets and fragment
 *    generations, but it does not constrain the real cache.
 *
 *  - DecoupledSectoredCache models the spatial footprint predictor's
 *    [17] decoupled sectored cache [22]: the cache itself is sectored,
 *    with a decoupled tag array holding several times more sector tags
 *    than sectors of data capacity. The data array is a mem::Cache of
 *    the data geometry, so its lookups, victims and counters are the
 *    shadow L1's own. A block may only reside while its sector tag
 *    does, so sector conflicts invalidate unrelated blocks and raise
 *    the miss rate — the effect Figure 8 quantifies.
 */

#ifndef STEMS_CORE_SECTORED_HH
#define STEMS_CORE_SECTORED_HH

#include <cstdint>
#include <vector>

#include "core/region.hh"
#include "core/trainer.hh"
#include "mem/cache.hh"

namespace stems::core {

/** Geometry of a sectored tag array. */
struct SectoredTagConfig
{
    uint32_t sets = 16;   //!< power of two
    uint32_t assoc = 2;
};

/**
 * Logical sectored-cache tag array (trainer only). Trains every ended
 * generation — including single-block ones, which is part of why it
 * needs roughly twice the PHT capacity of the AGT (Figure 9).
 */
class LogicalSectoredTags : public PatternTrainer
{
  public:
    LogicalSectoredTags(const RegionGeometry &geom,
                        const SectoredTagConfig &config);

    void onAccess(uint64_t pc, uint64_t addr) override;
    void onBlockRemoved(uint64_t block_addr, bool invalidation) override;
    void drain() override;

    uint64_t generationsTrained() const { return trained; }

  private:
    struct Entry
    {
        uint64_t rid = 0;  //!< region id (full; set derived from it)
        TriggerInfo trigger;
        SpatialPattern pattern;
        uint64_t lastUse = 0;
        bool valid = false;
    };

    Entry *findEntry(uint64_t rid);
    void endGeneration(Entry &e);

    RegionGeometry geom;
    SectoredTagConfig cfg;
    std::vector<Entry> entries;
    uint64_t tick = 0;
    uint64_t trained = 0;
};

/** Geometry of the decoupled sectored cache. */
struct DsConfig
{
    uint64_t dataBytes = 64 * 1024;
    uint32_t dataAssoc = 2;
    uint32_t blockSize = 64;
    uint32_t sectorSize = 2048;
    uint32_t tagMult = 4;  //!< decoupling: tag entries per data sector
};

/**
 * Decoupled sectored cache: a complete L1 model (its misses are the
 * experiment's misses) that also emits generation events from sector
 * residency. Implements PatternTrainer so an SmsUnit can drive it
 * directly; onAccess performs the cache access.
 */
class DecoupledSectoredCache : public PatternTrainer
{
  public:
    explicit DecoupledSectoredCache(const DsConfig &config);

    /** Demand access; updates miss statistics and generation state. */
    mem::AccessResult access(uint64_t pc, uint64_t addr, bool is_write);

    /** Insert a streamed block; requires the sector tag be present. */
    bool fillPrefetch(uint64_t addr);

    /** Coherence invalidation of one block. */
    void invalidateBlock(uint64_t addr);

    // PatternTrainer (onAccess loses the read/write split; the study
    // calls access() directly when it needs the AccessResult)
    void
    onAccess(uint64_t pc, uint64_t addr) override
    {
        access(pc, addr, false);
    }

    void
    onBlockRemoved(uint64_t block_addr, bool invalidation) override
    {
        if (invalidation)
            invalidateBlock(block_addr);
    }

    void drain() override;

    const mem::CacheStats &stats() const { return data.stats(); }
    const RegionGeometry &geometry() const { return geom; }

  private:
    struct SectorEntry
    {
        uint64_t rid = 0;
        TriggerInfo trigger;
        SpatialPattern accessed;  //!< demand-touched blocks (pattern)
        uint64_t lastUse = 0;
        bool valid = false;
    };

    SectorEntry *findSector(uint64_t rid);
    /** Allocate a sector entry, ending the victim's generation. */
    SectorEntry &allocSector(uint64_t rid);
    /** End @p e's generation and drop its resident blocks. */
    void endSector(SectorEntry &e);

    DsConfig cfg;
    RegionGeometry geom;
    uint32_t tagSets;
    uint32_t tagAssoc;
    std::vector<SectorEntry> sectors;
    mem::Cache data;  //!< the data array, {dataBytes, dataAssoc, blockSize}
    uint64_t tick = 0;
};

} // namespace stems::core

#endif // STEMS_CORE_SECTORED_HH
