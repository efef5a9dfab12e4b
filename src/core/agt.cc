#include "core/agt.hh"

#include <algorithm>

namespace stems::core {

ActiveGenerationTable::ActiveGenerationTable(const RegionGeometry &geom,
                                             const AgtConfig &config)
    : geom(geom), filterCam(config.filterEntries),
      accumCam(config.accumEntries)
{}

void
ActiveGenerationTable::victimizeFilter()
{
    if (!filterCam.full())
        return;
    // a filter victim carries only its trigger access: drop silently
    filterCam.erase(filterCam.lruWay());
    ++stats_.filterVictims;
}

void
ActiveGenerationTable::victimizeAccum()
{
    if (!accumCam.full())
        return;
    // capacity terminates the generation: transfer the pattern to the
    // PHT exactly as an eviction-triggered ending would
    ++stats_.accumVictims;
    endGeneration(accumCam.lruWay());
}

void
ActiveGenerationTable::endGeneration(uint32_t way)
{
    TriggerInfo trigger = accumCam.payload(way).trigger;
    SpatialPattern pattern = accumCam.payload(way).pattern;
    accumCam.erase(way);
    ++stats_.generationsTrained;
    if (listener)
        listener->generationEnd(trigger, pattern);
}

void
ActiveGenerationTable::promote(const TriggerInfo &trigger, uint64_t rid,
                               uint64_t h, uint32_t off)
{
    ++stats_.promotions;
    victimizeAccum();
    const uint32_t way = accumCam.insert(rid, h);
    AccumEntry &p = accumCam.payload(way);
    p.trigger = trigger;
    p.pattern.set(trigger.offset);
    p.pattern.set(off);
    stats_.peakAccumOccupancy =
        std::max<uint64_t>(stats_.peakAccumOccupancy, accumCam.size());
}

void
ActiveGenerationTable::onAccess(uint64_t pc, uint64_t addr)
{
    const uint64_t rid = geom.regionId(addr);
    const uint64_t h = regionHash(rid);
    const uint32_t off = geom.offsetOf(addr);

    // 1) already accumulating: record the block (step 3 in Figure 2)
    if (const uint32_t way = accumCam.find(rid, h);
        way != AgtCam<AccumEntry>::kNone) {
        accumCam.payload(way).pattern.set(off);
        accumCam.touch(way);
        return;
    }

    // 2) in the filter table: second distinct block promotes the
    //    generation into the accumulation table (step 2 in Figure 2)
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

    // 3) trigger access of a new generation (step 1 in Figure 2)
    TriggerInfo trigger;
    trigger.pc = pc;
    trigger.address = addr;
    trigger.regionBase = geom.regionBase(addr);
    trigger.offset = off;
    victimizeFilter();
    filterCam.payload(filterCam.insert(rid, h)).trigger = trigger;
    stats_.peakFilterOccupancy =
        std::max<uint64_t>(stats_.peakFilterOccupancy, filterCam.size());
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

    if (const uint32_t way = filterCam.find(rid, h);
        way != AgtCam<FilterEntry>::kNone) {
        // only the trigger access happened: nothing to predict
        filterCam.erase(way);
        ++stats_.filterDiscards;
        return;
    }
    if (const uint32_t way = accumCam.find(rid, h);
        way != AgtCam<AccumEntry>::kNone)
        endGeneration(way);
}

void
ActiveGenerationTable::drain()
{
    // end every live multi-block generation (end-of-run bookkeeping)
    while (!accumCam.empty())
        endGeneration(accumCam.firstValid());
    stats_.filterDiscards += filterCam.size();
    filterCam.clear();
}

} // namespace stems::core
