/**
 * @file
 * A paper-text reference model of one SMS unit (Sections 3.1-3.2),
 * written for legibility rather than speed, to run in lockstep with
 * core::SmsUnit:
 *
 *  - the AGT's filter and accumulation tables are ordered maps from
 *    region id to entry, each with a std::list LRU stack (front =
 *    most recently used) and a set of free entry numbers, so a new
 *    entry takes the lowest free one and a drain ends generations in
 *    entry order;
 *  - the PHT is a vector of sets, each a std::list LRU stack of
 *    (key, pattern) entries;
 *  - the prediction registers are a vector walked by a plain loop from
 *    a round-robin cursor.
 *
 * Every structure keeps the same event counters as its optimised
 * counterpart, so a lockstep test can compare them after every event.
 */

#ifndef STEMS_TESTS_REF_SMS_REF_HH
#define STEMS_TESTS_REF_SMS_REF_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <list>
#include <map>
#include <optional>
#include <set>
#include <vector>

#include "core/agt.hh"
#include "core/indexing.hh"
#include "core/pht.hh"
#include "core/prediction_register.hh"
#include "core/sms.hh"

namespace stems::ref {

using core::SpatialPattern;
using core::TriggerInfo;

/** One AGT table: region id -> entry, an LRU stack, free entries. */
template <typename Entry>
class RefAgtTable
{
  public:
    struct Slot
    {
        Entry entry;
        uint32_t number = 0;  //!< the entry's position in the CAM
        std::list<uint64_t>::iterator lru;
    };

    explicit RefAgtTable(uint32_t capacity) : cap(capacity)
    {
        for (uint32_t i = 0; i < capacity; ++i)
            freeNumbers.insert(i);
    }

    bool bounded() const { return cap != 0; }
    bool full() const { return bounded() && slots.size() >= cap; }
    size_t size() const { return slots.size(); }

    Slot *
    find(uint64_t rid)
    {
        auto it = slots.find(rid);
        return it == slots.end() ? nullptr : &it->second;
    }

    void
    touch(uint64_t rid)
    {
        Slot &s = slots.at(rid);
        lru.splice(lru.begin(), lru, s.lru);
    }

    Entry &
    insert(uint64_t rid)
    {
        Slot s;
        if (bounded()) {
            s.number = *freeNumbers.begin();
            freeNumbers.erase(freeNumbers.begin());
        }
        lru.push_front(rid);
        s.lru = lru.begin();
        return slots.emplace(rid, std::move(s)).first->second.entry;
    }

    void
    erase(uint64_t rid)
    {
        Slot &s = slots.at(rid);
        lru.erase(s.lru);
        if (bounded())
            freeNumbers.insert(s.number);
        slots.erase(rid);
    }

    /** The least recently used region. @pre size() > 0 */
    uint64_t lruRegion() const { return lru.back(); }

    /**
     * Live regions in entry-number order (drain order); an unbounded
     * table numbers nothing and lists them by region id.
     */
    std::vector<uint64_t>
    byNumber() const
    {
        std::set<std::pair<uint32_t, uint64_t>> order;
        for (const auto &[rid, s] : slots)
            order.emplace(s.number, rid);
        std::vector<uint64_t> out;
        for (const auto &[n, rid] : order)
            out.push_back(rid);
        return out;
    }

    void
    clear()
    {
        while (!slots.empty())
            erase(slots.begin()->first);
    }

  private:
    uint32_t cap;
    std::map<uint64_t, Slot> slots;
    std::list<uint64_t> lru;
    std::set<uint32_t> freeNumbers;
};

/** The Active Generation Table as Section 3.1 and Figure 2 tell it. */
class RefAgt
{
  public:
    RefAgt(const core::RegionGeometry &geom, const core::AgtConfig &cfg)
        : geom(geom), filter(cfg.filterEntries), accum(cfg.accumEntries)
    {}

    std::function<void(const TriggerInfo &)> onStart;
    std::function<void(const TriggerInfo &, const SpatialPattern &)> onEnd;

    void
    access(uint64_t pc, uint64_t addr)
    {
        const uint64_t rid = geom.regionId(addr);
        const uint32_t off = geom.offsetOf(addr);

        // an accumulating generation records the block
        if (auto *s = accum.find(rid)) {
            s->entry.pattern.set(off);
            accum.touch(rid);
            return;
        }

        // a second distinct block moves the generation to accumulation
        if (auto *s = filter.find(rid)) {
            if (s->entry.trigger.offset == off) {
                filter.touch(rid);
                return;
            }
            const TriggerInfo trigger = s->entry.trigger;
            filter.erase(rid);
            ++stats.promotions;
            if (accum.full()) {
                const uint64_t victim = accum.lruRegion();
                ++stats.accumVictims;
                end(victim);
            }
            Accum &a = accum.insert(rid);
            a.trigger = trigger;
            a.pattern.set(trigger.offset);
            a.pattern.set(off);
            stats.peakAccumOccupancy =
                std::max<uint64_t>(stats.peakAccumOccupancy, accum.size());
            return;
        }

        // otherwise this access triggers a new generation
        TriggerInfo t;
        t.pc = pc;
        t.address = addr;
        t.regionBase = geom.regionBase(addr);
        t.offset = off;
        if (filter.full()) {
            filter.erase(filter.lruRegion());
            ++stats.filterVictims;
        }
        filter.insert(rid).trigger = t;
        stats.peakFilterOccupancy =
            std::max<uint64_t>(stats.peakFilterOccupancy, filter.size());
        ++stats.generationsStarted;
        if (onStart)
            onStart(t);
    }

    /** Eviction or invalidation of any block ends its generation. */
    void
    blockRemoved(uint64_t block_addr)
    {
        const uint64_t rid = geom.regionId(block_addr);
        if (filter.find(rid)) {
            filter.erase(rid);
            ++stats.filterDiscards;
            return;
        }
        if (accum.find(rid))
            end(rid);
    }

    void
    drain()
    {
        for (uint64_t rid : accum.byNumber())
            end(rid);
        stats.filterDiscards += filter.size();
        filter.clear();
    }

    core::AgtStats stats;
    size_t filterOccupancy() const { return filter.size(); }
    size_t accumOccupancy() const { return accum.size(); }

  private:
    struct Filter
    {
        TriggerInfo trigger;
    };

    struct Accum
    {
        TriggerInfo trigger;
        SpatialPattern pattern;
    };

    void
    end(uint64_t rid)
    {
        const Accum a = accum.find(rid)->entry;
        accum.erase(rid);
        ++stats.generationsTrained;
        if (onEnd)
            onEnd(a.trigger, a.pattern);
    }

    core::RegionGeometry geom;
    RefAgtTable<Filter> filter;
    RefAgtTable<Accum> accum;
};

/**
 * A set-associative PHT with a std::list LRU stack per set, or an
 * ordered map when unbounded (entries == 0).
 */
class RefPht
{
  public:
    explicit RefPht(const core::PhtConfig &cfg)
        : cfg(cfg), sets(cfg.entries ? cfg.entries / cfg.assoc : 1),
          table(sets)
    {}

    std::optional<SpatialPattern>
    lookup(uint64_t key)
    {
        ++stats.lookups;
        if (cfg.entries == 0) {
            auto it = unbounded.find(key);
            if (it == unbounded.end())
                return std::nullopt;
            ++stats.hits;
            return it->second;
        }
        auto &set = table[key % sets];
        auto it = findIn(set, key);
        if (it == set.end())
            return std::nullopt;
        set.splice(set.begin(), set, it);
        ++stats.hits;
        return it->second;
    }

    void
    update(uint64_t key, const SpatialPattern &p)
    {
        ++stats.updates;
        if (cfg.entries == 0) {
            auto [it, fresh] = unbounded.try_emplace(key, p);
            if (fresh)
                ++stats.inserts;
            else if (cfg.update == core::PhtUpdateMode::Union)
                it->second |= p;
            else
                it->second = p;
            return;
        }
        auto &set = table[key % sets];
        auto it = findIn(set, key);
        if (it != set.end()) {
            if (cfg.update == core::PhtUpdateMode::Union)
                it->second |= p;
            else
                it->second = p;
            set.splice(set.begin(), set, it);
            return;
        }
        if (set.size() >= cfg.assoc) {
            set.pop_back();
            ++stats.evictions;
        } else {
            ++stats.inserts;
        }
        set.emplace_front(key, p);
    }

    core::PhtStats stats;

  private:
    using Set = std::list<std::pair<uint64_t, SpatialPattern>>;

    static Set::iterator
    findIn(Set &set, uint64_t key)
    {
        for (auto it = set.begin(); it != set.end(); ++it)
            if (it->first == key)
                return it;
        return set.end();
    }

    core::PhtConfig cfg;
    uint64_t sets;
    std::vector<Set> table;
    std::map<uint64_t, SpatialPattern> unbounded;
};

/** Prediction registers serviced round-robin by a plain loop. */
class RefPrf
{
  public:
    RefPrf(uint32_t nregs, const core::RegionGeometry &geom)
        : geom(geom), regs(nregs)
    {}

    bool
    allocate(uint64_t region_base, SpatialPattern p, uint32_t trigger_off)
    {
        p.clear(trigger_off);
        if (p.none())
            return false;
        for (auto &r : regs) {
            if (r.pending.none()) {
                r.base = region_base;
                r.pending = p;
                ++stats.allocations;
                return true;
            }
        }
        ++stats.rejections;
        return false;
    }

    std::optional<uint64_t>
    next()
    {
        const size_t n = regs.size();
        for (size_t i = 0; i < n; ++i) {
            Reg &r = regs[(cursor + i) % n];
            if (r.pending.none())
                continue;
            const uint32_t off = r.pending.lowestSet();
            r.pending.clear(off);
            cursor = (cursor + i + 1) % n;
            ++stats.requests;
            return geom.blockAddr(r.base, off);
        }
        return std::nullopt;
    }

    uint32_t
    busy() const
    {
        uint32_t n = 0;
        for (const auto &r : regs)
            n += r.pending.any() ? 1 : 0;
        return n;
    }

    core::PrfStats stats;

  private:
    struct Reg
    {
        uint64_t base = 0;
        SpatialPattern pending;
    };

    core::RegionGeometry geom;
    std::vector<Reg> regs;
    size_t cursor = 0;
};

/**
 * One SMS unit: the AGT's generation starts consult the PHT and
 * stream every predicted block at once (the trace studies' eager
 * drain); its generation ends train the PHT.
 */
class RefSms
{
  public:
    /** A block to stream, or a lookup's outcome (before its blocks). */
    std::function<void(uint64_t block_addr)> issue;
    std::function<void(uint64_t key, bool hit)> looked;
    std::function<void(const TriggerInfo &)> started;
    std::function<void(const TriggerInfo &, const SpatialPattern &)> ended;

    explicit RefSms(const core::SmsConfig &cfg)
        : cfg(cfg), agt(cfg.geometry, cfg.agt), pht(cfg.pht),
          prf(cfg.predictionRegisters, cfg.geometry)
    {
        agt.onStart = [this](const TriggerInfo &t) { start(t); };
        agt.onEnd = [this](const TriggerInfo &t, const SpatialPattern &p) {
            if (ended)
                ended(t, p);
            ++sms.trained;
            pht.update(core::makeIndex(this->cfg.index, t,
                                       this->cfg.geometry), p);
        };
    }

    void access(uint64_t pc, uint64_t addr) { agt.access(pc, addr); }
    void blockRemoved(uint64_t block_addr) { agt.blockRemoved(block_addr); }
    void drain() { agt.drain(); }

    core::SmsConfig cfg;
    RefAgt agt;
    RefPht pht;
    RefPrf prf;
    core::SmsStats sms;

  private:
    void
    start(const TriggerInfo &t)
    {
        if (started)
            started(t);
        ++sms.triggers;
        const uint64_t key = core::makeIndex(cfg.index, t, cfg.geometry);
        const auto pattern = pht.lookup(key);
        if (looked)
            looked(key, pattern.has_value());
        if (!pattern)
            return;
        ++sms.phtHits;
        if (!prf.allocate(t.regionBase, *pattern, t.offset))
            return;
        while (auto block = prf.next()) {
            ++sms.streamRequests;
            if (issue)
                issue(*block);
        }
    }
};

} // namespace stems::ref

#endif // STEMS_TESTS_REF_SMS_REF_HH
