#include "core/agt.hh"

#include <algorithm>

namespace stems::core {

ActiveGenerationTable::ActiveGenerationTable(const RegionGeometry &geom,
                                             const AgtConfig &config)
    : geom(geom), cfg(config), filterCam(config.filterEntries),
      accumCam(config.accumEntries)
{}

void
ActiveGenerationTable::victimizeFilter()
{
    if (!boundedFilter() || !filterCam.full())
        return;
    // a filter victim carries only its trigger access: drop silently
    filterCam.erase(filterCam.lruWay());
    ++stats_.filterVictims;
}

void
ActiveGenerationTable::victimizeAccum()
{
    if (!boundedAccum() || !accumCam.full())
        return;
    // capacity terminates the generation: transfer the pattern to the
    // PHT exactly as an eviction-triggered ending would
    const uint32_t way = accumCam.lruWay();
    TriggerInfo trigger = accumCam.payload(way).trigger;
    SpatialPattern pattern = accumCam.payload(way).pattern;
    accumCam.erase(way);
    ++stats_.accumVictims;
    ++stats_.generationsTrained;
    if (listener)
        listener->generationEnd(trigger, pattern);
}

void
ActiveGenerationTable::promote(const TriggerInfo &trigger, uint64_t rid,
                               uint64_t h, uint32_t off)
{
    ++stats_.promotions;
    if (boundedAccum()) {
        victimizeAccum();
        const uint32_t way = accumCam.insert(rid, h);
        AccumEntry &p = accumCam.payload(way);
        p.trigger = trigger;
        p.pattern.set(trigger.offset);
        p.pattern.set(off);
        stats_.peakAccumOccupancy = std::max<uint64_t>(
            stats_.peakAccumOccupancy, accumCam.size());
    } else {
        AccumEntry &e = accumMap[rid];
        e.trigger = trigger;
        e.pattern.set(trigger.offset);
        e.pattern.set(off);
        stats_.peakAccumOccupancy = std::max<uint64_t>(
            stats_.peakAccumOccupancy, accumMap.size());
    }
}

void
ActiveGenerationTable::onAccess(uint64_t pc, uint64_t addr)
{
    const uint64_t rid = geom.regionId(addr);
    const uint64_t h = regionHash(rid);
    const uint32_t off = geom.offsetOf(addr);

    // 1) already accumulating: record the block (step 3 in Figure 2)
    if (boundedAccum()) {
        if (const uint32_t way = accumCam.find(rid, h);
            way != AgtCam<AccumEntry>::kNone) {
            accumCam.payload(way).pattern.set(off);
            accumCam.touch(way);
            return;
        }
    } else if (auto it = accumMap.find(rid); it != accumMap.end()) {
        it->second.pattern.set(off);
        return;
    }

    // 2) in the filter table: second distinct block promotes the
    //    generation into the accumulation table (step 2 in Figure 2)
    if (boundedFilter()) {
        if (const uint32_t way = filterCam.find(rid, h);
            way != AgtCam<FilterEntry>::kNone) {
            if (filterCam.payload(way).trigger.offset == off) {
                filterCam.touch(way);  // re-touch trigger block
                return;
            }
            TriggerInfo trigger = filterCam.payload(way).trigger;
            filterCam.erase(way);
            promote(trigger, rid, h, off);
            return;
        }
    } else if (auto it = filterMap.find(rid); it != filterMap.end()) {
        if (it->second.trigger.offset == off)
            return;  // re-touching the trigger block
        TriggerInfo trigger = it->second.trigger;
        filterMap.erase(it);
        promote(trigger, rid, h, off);
        return;
    }

    // 3) trigger access of a new generation (step 1 in Figure 2)
    TriggerInfo trigger;
    trigger.pc = pc;
    trigger.address = addr;
    trigger.regionBase = geom.regionBase(addr);
    trigger.offset = off;
    if (boundedFilter()) {
        victimizeFilter();
        const uint32_t way = filterCam.insert(rid, h);
        filterCam.payload(way).trigger = trigger;
        stats_.peakFilterOccupancy = std::max<uint64_t>(
            stats_.peakFilterOccupancy, filterCam.size());
    } else {
        filterMap[rid].trigger = trigger;
        stats_.peakFilterOccupancy = std::max<uint64_t>(
            stats_.peakFilterOccupancy, filterMap.size());
    }
    ++stats_.generationsStarted;
    if (listener)
        listener->generationStart(trigger);
}

void
ActiveGenerationTable::onBlockRemoved(uint64_t block_addr,
                                      bool invalidation)
{
    (void)invalidation;  // replacements and invalidations both end here
    const uint64_t rid = geom.regionId(block_addr);
    const uint64_t h = regionHash(rid);

    if (boundedFilter()) {
        if (const uint32_t way = filterCam.find(rid, h);
            way != AgtCam<FilterEntry>::kNone) {
            // only the trigger access happened: nothing to predict
            filterCam.erase(way);
            ++stats_.filterDiscards;
            return;
        }
    } else if (auto it = filterMap.find(rid); it != filterMap.end()) {
        filterMap.erase(it);
        ++stats_.filterDiscards;
        return;
    }

    if (boundedAccum()) {
        if (const uint32_t way = accumCam.find(rid, h);
            way != AgtCam<AccumEntry>::kNone) {
            TriggerInfo trigger = accumCam.payload(way).trigger;
            SpatialPattern pattern = accumCam.payload(way).pattern;
            accumCam.erase(way);
            ++stats_.generationsTrained;
            if (listener)
                listener->generationEnd(trigger, pattern);
        }
    } else if (auto it = accumMap.find(rid); it != accumMap.end()) {
        TriggerInfo trigger = it->second.trigger;
        SpatialPattern pattern = it->second.pattern;
        accumMap.erase(it);
        ++stats_.generationsTrained;
        if (listener)
            listener->generationEnd(trigger, pattern);
    }
}

void
ActiveGenerationTable::drain()
{
    // end every live multi-block generation (end-of-run bookkeeping)
    if (boundedAccum()) {
        while (!accumCam.empty()) {
            const uint32_t way = accumCam.firstValid();
            TriggerInfo trigger = accumCam.payload(way).trigger;
            SpatialPattern pattern = accumCam.payload(way).pattern;
            accumCam.erase(way);
            ++stats_.generationsTrained;
            if (listener)
                listener->generationEnd(trigger, pattern);
        }
    } else {
        while (!accumMap.empty()) {
            auto it = accumMap.begin();
            TriggerInfo trigger = it->second.trigger;
            SpatialPattern pattern = it->second.pattern;
            accumMap.erase(it);
            ++stats_.generationsTrained;
            if (listener)
                listener->generationEnd(trigger, pattern);
        }
    }
    if (boundedFilter()) {
        stats_.filterDiscards += filterCam.size();
        filterCam.clear();
    } else {
        stats_.filterDiscards += filterMap.size();
        filterMap.clear();
    }
}

} // namespace stems::core
