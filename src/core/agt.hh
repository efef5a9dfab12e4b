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
 * fully-associative CAMs (AgtCam) where a match, an insert, a touch
 * and a victim choice each take one step, as one CAM operation does.
 * Unbounded tables (the figures' limit studies) fall back to a
 * FlatMap.
 */

#ifndef STEMS_CORE_AGT_HH
#define STEMS_CORE_AGT_HH

#include <algorithm>
#include <bit>
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

/** The hash AgtCam indexes a region id by (Fibonacci hashing). */
inline uint64_t
regionHash(uint64_t rid)
{
    return rid * 0x9e3779b97f4a7c15ULL;
}

/**
 * A fixed-capacity fully-associative table with LRU victimization,
 * keyed by region id, at one step per event:
 *
 *  - an exact open-addressed index maps region id to way: a power of
 *    two at least twice the capacity of (region id, way) slots, linear
 *    probing and backward-shift deletion, as util::FlatMap does, so a
 *    lookup (hit or miss) probes about two slots;
 *  - an intrusive doubly-linked list orders the ways by use: insert()
 *    and touch() move a way to the head, erase() unlinks it, and the
 *    tail is the LRU victim;
 *  - a bitmask of occupied ways, one word per 64 ways, gives insert()
 *    the lowest free way and drains their lowest-way-first order.
 *
 * Callers hash the region id once per event (regionHash()) and hand
 * the hash to every table they probe.
 */
template <typename Payload>
class AgtCam
{
  public:
    static constexpr uint32_t kNone = UINT32_MAX;

    explicit AgtCam(uint32_t capacity)
        : cap(capacity), used((capacity + 63) / 64, 0), prev(capacity),
          next(capacity), slotOf(capacity), pay(capacity)
    {
        uint32_t bits = 1;
        while ((uint64_t{1} << bits) < 2 * uint64_t{capacity})
            ++bits;
        shift = 64 - bits;
        index.assign(size_t{1} << bits, Slot{});
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ >= cap; }

    /** Way holding region @p rid, or kNone. @p h = regionHash(rid). */
    uint32_t
    find(uint64_t rid, uint64_t h) const
    {
        const size_t mask = index.size() - 1;
        for (size_t i = h >> shift;; i = (i + 1) & mask) {
            const Slot &s = index[i];
            if (s.way == kNone || s.rid == rid)
                return s.way;
        }
    }

    /**
     * Take the lowest free way for @p rid as the most recently used.
     * @pre !full() and rid absent; @p h = regionHash(rid)
     */
    uint32_t
    insert(uint64_t rid, uint64_t h)
    {
        assert(!full() && "AgtCam::insert on full table");
        size_t w = 0;
        while (freeBits(w) == 0)
            ++w;
        const uint32_t way = static_cast<uint32_t>(
            w * 64 + std::countr_zero(freeBits(w)));
        used[w] |= uint64_t{1} << (way & 63);

        const size_t mask = index.size() - 1;
        size_t i = h >> shift;
        while (index[i].way != kNone)
            i = (i + 1) & mask;
        index[i] = {rid, way, static_cast<uint32_t>(h >> shift)};
        slotOf[way] = static_cast<uint32_t>(i);

        pay[way] = Payload{};
        linkHead(way);
        ++size_;
        return way;
    }

    void
    erase(uint32_t way)
    {
        used[way >> 6] &= ~(uint64_t{1} << (way & 63));
        unlink(way);
        eraseSlot(slotOf[way]);
        --size_;
    }

    /** Mark @p way the most recently used. */
    void
    touch(uint32_t way)
    {
        if (way == head)
            return;
        unlink(way);
        linkHead(way);
    }

    /** Way holding the least-recently-used entry. @pre !empty() */
    uint32_t lruWay() const { return tail; }

    /** The lowest occupied way (drain order). @pre !empty() */
    uint32_t
    firstValid() const
    {
        size_t w = 0;
        while (used[w] == 0)
            ++w;
        return static_cast<uint32_t>(w * 64 + std::countr_zero(used[w]));
    }

    Payload &payload(uint32_t way) { return pay[way]; }

    void
    clear()
    {
        std::fill(used.begin(), used.end(), 0);
        std::fill(index.begin(), index.end(), Slot{});
        head = tail = kNone;
        size_ = 0;
    }

  private:
    /** One index slot; way == kNone marks it empty. */
    struct Slot
    {
        uint64_t rid = 0;
        uint32_t way = kNone;
        uint32_t home = 0;  //!< the slot its hash maps to
    };

    /** Free ways of bitmask word @p w (ways past the capacity are not). */
    uint64_t
    freeBits(size_t w) const
    {
        const uint32_t past = static_cast<uint32_t>(cap - w * 64);
        const uint64_t valid =
            past >= 64 ? ~uint64_t{0} : (uint64_t{1} << past) - 1;
        return ~used[w] & valid;
    }

    void
    linkHead(uint32_t way)
    {
        prev[way] = kNone;
        next[way] = head;
        if (head != kNone)
            prev[head] = way;
        else
            tail = way;
        head = way;
    }

    void
    unlink(uint32_t way)
    {
        if (prev[way] != kNone)
            next[prev[way]] = next[way];
        else
            head = next[way];
        if (next[way] != kNone)
            prev[next[way]] = prev[way];
        else
            tail = prev[way];
    }

    /**
     * Backward-shift deletion: slide back every later entry of the
     * probe cluster whose probe path covers the hole, so chains stay
     * tombstone-free.
     */
    void
    eraseSlot(size_t hole)
    {
        const size_t mask = index.size() - 1;
        for (size_t i = (hole + 1) & mask; index[i].way != kNone;
             i = (i + 1) & mask) {
            if (((i - index[i].home) & mask) >= ((i - hole) & mask)) {
                index[hole] = index[i];
                slotOf[index[hole].way] = static_cast<uint32_t>(hole);
                hole = i;
            }
        }
        index[hole] = Slot{};
    }

    uint32_t cap;
    uint32_t shift = 0;             //!< index slot = hash >> shift
    std::vector<Slot> index;        //!< region id -> way
    std::vector<uint64_t> used;     //!< occupied-way bitmask
    std::vector<uint32_t> prev;     //!< LRU list, towards the head
    std::vector<uint32_t> next;     //!< LRU list, towards the tail
    std::vector<uint32_t> slotOf;   //!< each way's index slot
    std::vector<Payload> pay;
    uint32_t head = kNone;          //!< most recently used way
    uint32_t tail = kNone;          //!< least recently used way
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
    struct FilterEntry
    {
        TriggerInfo trigger;
    };

    struct AccumEntry
    {
        TriggerInfo trigger;
        SpatialPattern pattern;
    };

    bool boundedFilter() const { return cfg.filterEntries != 0; }
    bool boundedAccum() const { return cfg.accumEntries != 0; }

    /** Make room in the filter table if at capacity. */
    void victimizeFilter();
    /** Make room in the accumulation table, training the victim. */
    void victimizeAccum();

    /**
     * Move a trigger into the accumulation table with @p off set.
     * @p h = regionHash(rid)
     */
    void promote(const TriggerInfo &trigger, uint64_t rid, uint64_t h,
                 uint32_t off);

    RegionGeometry geom;
    AgtConfig cfg;
    AgtCam<FilterEntry> filterCam;
    AgtCam<AccumEntry> accumCam;
    util::FlatMap<uint64_t, FilterEntry> filterMap;  //!< unbounded mode
    util::FlatMap<uint64_t, AccumEntry> accumMap;    //!< unbounded mode
    AgtStats stats_;
};

} // namespace stems::core

#endif // STEMS_CORE_AGT_HH
