#include "core/sectored.hh"

#include <stdexcept>

namespace stems::core {

// ---------------------------------------------------------------------
// LogicalSectoredTags
// ---------------------------------------------------------------------

LogicalSectoredTags::LogicalSectoredTags(const RegionGeometry &geom,
                                         const SectoredTagConfig &config)
    : geom(geom), cfg(config),
      entries(static_cast<size_t>(config.sets) * config.assoc)
{
    if (!isPow2(cfg.sets) || cfg.assoc == 0)
        throw std::invalid_argument("bad sectored tag geometry");
}

LogicalSectoredTags::Entry *
LogicalSectoredTags::findEntry(uint64_t rid)
{
    const uint32_t set = static_cast<uint32_t>(rid & (cfg.sets - 1));
    Entry *base = &entries[static_cast<size_t>(set) * cfg.assoc];
    for (uint32_t w = 0; w < cfg.assoc; ++w) {
        if (base[w].valid && base[w].rid == rid)
            return &base[w];
    }
    return nullptr;
}

void
LogicalSectoredTags::endGeneration(Entry &e)
{
    ++trained;
    TriggerInfo trigger = e.trigger;
    SpatialPattern pattern = e.pattern;
    e.valid = false;
    if (listener)
        listener->generationEnd(trigger, pattern);
}

void
LogicalSectoredTags::onAccess(uint64_t pc, uint64_t addr)
{
    const uint64_t rid = geom.regionId(addr);
    const uint32_t off = geom.offsetOf(addr);
    ++tick;

    if (Entry *e = findEntry(rid)) {
        e->pattern.set(off);
        e->lastUse = tick;
        return;
    }

    // allocate; a valid victim's generation ends prematurely
    const uint32_t set = static_cast<uint32_t>(rid & (cfg.sets - 1));
    Entry *base = &entries[static_cast<size_t>(set) * cfg.assoc];
    Entry *victim = nullptr;
    for (uint32_t w = 0; w < cfg.assoc; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (!victim || base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    if (victim->valid)
        endGeneration(*victim);

    victim->valid = true;
    victim->rid = rid;
    victim->trigger.pc = pc;
    victim->trigger.address = addr;
    victim->trigger.regionBase = geom.regionBase(addr);
    victim->trigger.offset = off;
    victim->pattern.reset();
    victim->pattern.set(off);
    victim->lastUse = tick;
    if (listener)
        listener->generationStart(victim->trigger);
}

void
LogicalSectoredTags::onBlockRemoved(uint64_t block_addr, bool invalidation)
{
    // the logical tags model their own (sectored) replacement, so real
    // cache evictions are invisible; coherence invalidations are not
    if (!invalidation)
        return;
    const uint64_t rid = geom.regionId(block_addr);
    if (Entry *e = findEntry(rid)) {
        if (e->pattern.test(geom.offsetOf(block_addr)))
            endGeneration(*e);
    }
}

void
LogicalSectoredTags::drain()
{
    for (auto &e : entries)
        if (e.valid)
            endGeneration(e);
}

// ---------------------------------------------------------------------
// DecoupledSectoredCache
// ---------------------------------------------------------------------

DecoupledSectoredCache::DecoupledSectoredCache(const DsConfig &config)
    : cfg(config), geom(config.sectorSize, config.blockSize),
      data({config.dataBytes, config.dataAssoc, config.blockSize},
           "ds-data")
{
    uint64_t capacity_sectors = cfg.dataBytes / cfg.sectorSize;
    if (capacity_sectors == 0 || capacity_sectors % cfg.dataAssoc != 0 ||
        cfg.tagMult == 0)
        throw std::invalid_argument("bad DS sector geometry");
    tagSets = static_cast<uint32_t>(capacity_sectors / cfg.dataAssoc);
    tagAssoc = cfg.dataAssoc * cfg.tagMult;
    if (!isPow2(tagSets))
        throw std::invalid_argument("DS set counts must be powers of 2");
    sectors.resize(static_cast<size_t>(tagSets) * tagAssoc);
}

DecoupledSectoredCache::SectorEntry *
DecoupledSectoredCache::findSector(uint64_t rid)
{
    const uint32_t set = static_cast<uint32_t>(rid & (tagSets - 1));
    SectorEntry *base = &sectors[static_cast<size_t>(set) * tagAssoc];
    for (uint32_t w = 0; w < tagAssoc; ++w) {
        if (base[w].valid && base[w].rid == rid)
            return &base[w];
    }
    return nullptr;
}

void
DecoupledSectoredCache::endSector(SectorEntry &e)
{
    TriggerInfo trigger = e.trigger;
    SpatialPattern pattern = e.accessed;
    e.valid = false;
    // blocks cannot outlive their sector tag
    for (uint32_t off = 0; off < geom.blocksPerRegion(); ++off)
        data.invalidate(geom.blockAddr(trigger.regionBase, off));
    if (listener)
        listener->generationEnd(trigger, pattern);
}

DecoupledSectoredCache::SectorEntry &
DecoupledSectoredCache::allocSector(uint64_t rid)
{
    const uint32_t set = static_cast<uint32_t>(rid & (tagSets - 1));
    SectorEntry *base = &sectors[static_cast<size_t>(set) * tagAssoc];
    SectorEntry *victim = nullptr;
    for (uint32_t w = 0; w < tagAssoc; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (!victim || base[w].lastUse < victim->lastUse)
            victim = &base[w];
    }
    if (victim->valid)
        endSector(*victim);
    victim->valid = true;
    victim->rid = rid;
    victim->accessed.reset();
    return *victim;
}

mem::AccessResult
DecoupledSectoredCache::access(uint64_t pc, uint64_t addr, bool is_write)
{
    const uint64_t rid = geom.regionId(addr);
    const uint32_t off = geom.offsetOf(addr);
    ++tick;

    SectorEntry *sec = findSector(rid);
    bool new_generation = false;
    if (!sec) {
        sec = &allocSector(rid);
        sec->trigger.pc = pc;
        sec->trigger.address = addr;
        sec->trigger.regionBase = geom.regionBase(addr);
        sec->trigger.offset = off;
        new_generation = true;
    }
    sec->accessed.set(off);
    sec->lastUse = tick;

    const mem::AccessResult r = data.access(addr, is_write);

    // fire the trigger event after the access's own state settles so
    // streamed fills observe the new generation
    if (new_generation && listener)
        listener->generationStart(sec->trigger);
    return r;
}

bool
DecoupledSectoredCache::fillPrefetch(uint64_t addr)
{
    if (!findSector(geom.regionId(addr)))
        return false;  // blocks cannot live without their sector tag
    return data.fillPrefetch(addr);
}

void
DecoupledSectoredCache::invalidateBlock(uint64_t addr)
{
    data.invalidate(addr);
    if (SectorEntry *sec = findSector(geom.regionId(addr))) {
        if (sec->accessed.test(geom.offsetOf(addr)))
            endSector(*sec);
    }
}

void
DecoupledSectoredCache::drain()
{
    for (auto &s : sectors)
        if (s.valid)
            endSector(s);
}

} // namespace stems::core
