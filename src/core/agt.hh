/**
 * @file
 * The Active Generation Table (Section 3.1): SMS's decoupled training
 * structure. Logically one table, implemented as two CAMs — a filter
 * table holding generations that have seen only their trigger access,
 * and an accumulation table recording the spatial pattern of
 * generations with two or more distinct blocks. Decoupling training
 * from the cache organization is the paper's second contribution: it
 * tolerates interleaved accesses to independent regions that fragment
 * sectored training structures.
 *
 * Bounded tables are modelled as what they are in hardware: small
 * fully-associative CAMs, stored struct-of-arrays so the region-id
 * match and LRU victim scans stream through a few L1 cache lines.
 * Unbounded tables (the figures' limit studies) fall back to a
 * FlatMap.
 */

#ifndef STEMS_CORE_AGT_HH
#define STEMS_CORE_AGT_HH

#include <algorithm>
#include <array>
#include <cassert>
#include <cstdint>
#include <vector>

#include "core/region.hh"
#include "core/trainer.hh"
#include "util/flat_map.hh"

namespace stems::core {

/** AGT capacities. Zero means unbounded (for limit studies). */
struct AgtConfig
{
    uint32_t filterEntries = 32;
    uint32_t accumEntries = 64;
};

/** AGT event counters. */
struct AgtStats
{
    uint64_t generationsStarted = 0;  //!< trigger accesses observed
    uint64_t promotions = 0;          //!< filter -> accumulation moves
    uint64_t filterDiscards = 0;      //!< single-access generations ended
    uint64_t filterVictims = 0;       //!< filter entries lost to capacity
    uint64_t accumVictims = 0;        //!< generations ended by capacity
    uint64_t generationsTrained = 0;  //!< patterns sent to the PHT
    uint64_t peakFilterOccupancy = 0;
    uint64_t peakAccumOccupancy = 0;
};

/**
 * A fixed-capacity fully-associative table with LRU victimization,
 * keyed by region id. Keys, use stamps and payloads live in parallel
 * arrays; a zero stamp marks a free way (stamps issued by the AGT
 * start at 1). Match, free-way and victim scans are linear over
 * at most `capacity` contiguous words — L1-resident for the paper's
 * 32/64-entry tables.
 */
template <typename Payload>
class AgtCam
{
  public:
    static constexpr size_t kNone = static_cast<size_t>(-1);

    explicit AgtCam(uint32_t capacity)
        : cap(capacity), rids(capacity, 0), last(capacity, 0),
          pay(capacity)
    {}

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ >= cap; }

    size_t
    find(uint64_t rid) const
    {
        // spatial streams touch the same region many times in a row:
        // a one-entry memo short-circuits the associative scan
        if (lastWay != kNone && rids[lastWay] == rid &&
            last[lastWay] != 0)
            return lastWay;
        // counting presence filter: most remaining lookups come from
        // the L1's eviction stream and miss, so reject them without
        // scanning
        const uint64_t h = util::Mix64{}(rid);
        if (presence[h & kPresenceMask] == 0 ||
            presence[(h >> 8) & kPresenceMask] == 0)
            return kNone;
        for (size_t i = 0; i < cap; ++i) {
            if (rids[i] == rid && last[i] != 0) {
                lastWay = i;
                return i;
            }
        }
        return kNone;
    }

    /** @pre !full() and rid absent */
    size_t
    insert(uint64_t rid, uint64_t tick)
    {
        const uint64_t h = util::Mix64{}(rid);
        ++presence[h & kPresenceMask];
        ++presence[(h >> 8) & kPresenceMask];
        for (size_t i = 0; i < cap; ++i) {
            if (last[i] == 0) {
                rids[i] = rid;
                last[i] = tick;
                pay[i] = Payload{};
                ++size_;
                lastWay = i;
                return i;
            }
        }
        assert(false && "AgtCam::insert on full table");
        return kNone;
    }

    void
    erase(size_t i)
    {
        const uint64_t h = util::Mix64{}(rids[i]);
        --presence[h & kPresenceMask];
        --presence[(h >> 8) & kPresenceMask];
        last[i] = 0;
        --size_;
        if (lastWay == i)
            lastWay = kNone;
    }

    /** Way holding the least-recently-used entry. @pre !empty() */
    size_t
    lruWay() const
    {
        size_t best = kNone;
        uint64_t bestUse = UINT64_MAX;
        for (size_t i = 0; i < cap; ++i) {
            if (last[i] != 0 && last[i] < bestUse) {
                bestUse = last[i];
                best = i;
            }
        }
        return best;
    }

    /** Any valid way (drain loops). @pre !empty() */
    size_t
    firstValid() const
    {
        for (size_t i = 0; i < cap; ++i)
            if (last[i] != 0)
                return i;
        return kNone;
    }

    uint64_t rid(size_t i) const { return rids[i]; }
    uint64_t lastUse(size_t i) const { return last[i]; }
    void touch(size_t i, uint64_t tick) { last[i] = tick; }
    Payload &payload(size_t i) { return pay[i]; }

    void
    clear()
    {
        std::fill(last.begin(), last.end(), 0);
        presence.fill(0);
        size_ = 0;
        lastWay = kNone;
    }

  private:
    static constexpr size_t kPresenceMask = 255;

    uint32_t cap;
    std::vector<uint64_t> rids;
    std::vector<uint64_t> last;  //!< LRU stamp; 0 = way free
    std::vector<Payload> pay;
    std::array<uint16_t, 256> presence{};  //!< 2-hash counting filter
    mutable size_t lastWay = kNone;        //!< one-entry find() memo
    size_t size_ = 0;
};

/**
 * The AGT. Observes every L1 demand access plus the L1's
 * eviction/invalidation stream, and reports generation lifecycles to
 * a GenerationListener.
 */
class ActiveGenerationTable : public PatternTrainer
{
  public:
    ActiveGenerationTable(const RegionGeometry &geom,
                          const AgtConfig &config);

    void onAccess(uint64_t pc, uint64_t addr) override;
    void onBlockRemoved(uint64_t block_addr, bool invalidation) override;
    void drain() override;

    const AgtStats &stats() const { return stats_; }

    size_t
    filterOccupancy() const
    {
        return boundedFilter() ? filterCam.size() : filterMap.size();
    }

    size_t
    accumOccupancy() const
    {
        return boundedAccum() ? accumCam.size() : accumMap.size();
    }

    const RegionGeometry &geometry() const { return geom; }

  private:
    struct FilterPayload
    {
        TriggerInfo trigger;
    };

    struct AccumPayload
    {
        TriggerInfo trigger;
        SpatialPattern pattern;
    };

    /** Unbounded-mode entries carry the LRU stamp inline. */
    struct FilterEntry
    {
        TriggerInfo trigger;
        uint64_t lastUse = 0;
    };

    struct AccumEntry
    {
        TriggerInfo trigger;
        SpatialPattern pattern;
        uint64_t lastUse = 0;
    };

    bool boundedFilter() const { return cfg.filterEntries != 0; }
    bool boundedAccum() const { return cfg.accumEntries != 0; }

    /** Make room in the filter table if at capacity. */
    void victimizeFilter();
    /** Make room in the accumulation table, training the victim. */
    void victimizeAccum();

    /** Move a trigger into the accumulation table with @p off set. */
    void promote(const TriggerInfo &trigger, uint64_t rid, uint32_t off);

    RegionGeometry geom;
    AgtConfig cfg;
    AgtCam<FilterPayload> filterCam;
    AgtCam<AccumPayload> accumCam;
    util::FlatMap<uint64_t, FilterEntry> filterMap;  //!< unbounded mode
    util::FlatMap<uint64_t, AccumEntry> accumMap;    //!< unbounded mode
    uint64_t tick = 0;
    AgtStats stats_;
};

} // namespace stems::core

#endif // STEMS_CORE_AGT_HH
