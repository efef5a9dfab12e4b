#include "mem/memsys.hh"

#include <stdexcept>

namespace stems::mem {

MemorySystem::MemorySystem(const MemSysConfig &config) : cfg(config)
{
    if (cfg.l2.blockSize < cfg.l1.blockSize)
        throw std::invalid_argument("L2 block must be >= L1 block");

    // reserve the directory from the machine configuration alone, for
    // the aggregate L2's blocks (in 32-block regions). Entries are
    // never erased, so the table holds every block a pass touched; a
    // reservation taken from the trace, or growth on demand, would
    // make a pass's directory memory depend on trace length, which
    // CI's streaming-replay peak-RSS step checks stays flat
    const uint64_t l2Blocks = uint64_t{cfg.ncpu} *
        (cfg.l2.sizeBytes / cfg.l2.blockSize);
    dir = std::make_unique<Directory>(cfg.ncpu, cfg.l2.blockSize, this,
                                      l2Blocks);

    for (uint32_t c = 0; c < cfg.ncpu; ++c) {
        l1s.push_back(std::make_unique<Cache>(
            cfg.l1, "l1." + std::to_string(c)));
        l2s.push_back(std::make_unique<Cache>(
            cfg.l2, "l2." + std::to_string(c)));
        l1Hooks.push_back(std::make_unique<L1Hook>(this, c));
        l2Hooks.push_back(std::make_unique<L2Hook>(this, c));
        l1s.back()->setListener(l1Hooks.back().get());
        l2s.back()->setListener(l2Hooks.back().get());
    }
}

void
MemorySystem::reset()
{
    for (uint32_t c = 0; c < cfg.ncpu; ++c) {
        l1s[c]->reset();
        l2s[c]->reset();
        l1Hooks[c]->clear();
        l2Hooks[c]->clear();
    }
    dir->reset();
    observers.clear();
    memWritebacks = 0;
}

void
MemorySystem::L1Hook::evicted(uint64_t addr, bool dirty, bool wasPf)
{
    if (dirty) {
        // write back into the inclusive L2 (refill if it raced out)
        if (!sys->l2s[cpu]->setDirty(addr))
            sys->l2s[cpu]->fill(addr, true);
    }
    for (auto *l : extra)
        l->evicted(addr, dirty, wasPf);
}

void
MemorySystem::L1Hook::invalidated(uint64_t addr, bool wasPf)
{
    for (auto *l : extra)
        l->invalidated(addr, wasPf);
}

void
MemorySystem::L2Hook::evicted(uint64_t addr, bool dirty, bool wasPf)
{
    // the directory entry for the victim is about to be walked; start
    // its fetch so it overlaps the L1 inclusion invalidations
    sys->dir->prefetchEntry(addr);
    sys->invalidateL1Range(cpu, addr);
    sys->dir->evicted(cpu, addr);
    if (dirty)
        ++sys->memWritebacks;
    for (auto *l : extra)
        l->evicted(addr, dirty, wasPf);
}

void
MemorySystem::L2Hook::invalidated(uint64_t addr, bool wasPf)
{
    sys->invalidateL1Range(cpu, addr);
    for (auto *l : extra)
        l->invalidated(addr, wasPf);
}

void
MemorySystem::invalidateL1Range(uint32_t cpu, uint64_t l2_block_addr)
{
    uint64_t step = cfg.l1.blockSize;
    uint64_t end = l2_block_addr + cfg.l2.blockSize;
    for (uint64_t a = l2_block_addr; a < end; a += step)
        l1s[cpu]->invalidate(a);
}

void
MemorySystem::invalidateBlock(uint32_t cpu, uint64_t addr)
{
    // directory-initiated: drop the L2 copy; inclusion cascades to L1
    if (!l2s[cpu]->invalidate(addr)) {
        // L2 never held it (e.g., pure-L1 state after a race); still
        // enforce the L1 side
        invalidateL1Range(cpu, addr);
    }
}

AccessOutcome
MemorySystem::access(const trace::MemAccess &a)
{
    const uint32_t cpu = a.cpu;
    AccessOutcome out;

    dir->noteAccess(cpu, a.addr);

    Directory::WriteOutcome wr;
    if (a.isWrite)
        wr = dir->write(cpu, a.addr);

    // on an L1 miss the L2 tags and likely the directory — both
    // footprint-sized, cold structures — get walked next: kick their
    // lines off the moment the miss is known so the fetches overlap
    // the L1 victim processing.
    struct PreMissCtx
    {
        MemorySystem *sys;
        uint32_t cpu;
    } pm{this, cpu};
    AccessResult r1 = l1s[cpu]->access(
        a.addr, a.isWrite,
        [](void *ctx, uint64_t addr) {
            auto *c = static_cast<PreMissCtx *>(ctx);
            c->sys->l2s[c->cpu]->prefetchTags(addr);
            c->sys->dir->prefetchEntry(addr);
        },
        &pm);
    out.l1PrefetchHit = r1.prefetchHit;
    if (r1.prefetchHit) {
        // the L1-prefetched block's first use also vindicates the L2
        // copy the stream brought in (off-chip coverage)
        out.l2PrefetchHit = l2s[cpu]->clearPrefetch(a.addr);
    }

    if (r1.hit) {
        out.level = HitLevel::L1;
        out.coherenceMiss = a.isWrite && wr.coherenceMiss;
    } else {
        AccessResult r2 = l2s[cpu]->access(a.addr, a.isWrite);
        out.l2PrefetchHit = out.l2PrefetchHit || r2.prefetchHit;
        if (r2.hit) {
            out.level = HitLevel::L2;
            out.coherenceMiss = a.isWrite && wr.coherenceMiss;
        } else if (a.isWrite) {
            out.level = wr.remoteTransfer ? HitLevel::Remote
                                          : HitLevel::Memory;
            out.coherenceMiss = wr.coherenceMiss;
        } else {
            Directory::ReadOutcome rd = dir->read(cpu, a.addr);
            out.level = rd.remoteTransfer ? HitLevel::Remote
                                          : HitLevel::Memory;
            out.coherenceMiss = rd.coherenceMiss;
        }
    }

    for (auto *o : observers)
        o->onAccess(a, out);
    return out;
}

HitLevel
MemorySystem::prefetch(uint32_t cpu, uint64_t addr, bool into_l1)
{
    if (l1s[cpu]->contains(addr))
        return HitLevel::L1;

    HitLevel src;
    if (l2s[cpu]->contains(addr)) {
        src = HitLevel::L2;
    } else {
        Directory::ReadOutcome rd = dir->read(cpu, addr, false);
        src = rd.remoteTransfer ? HitLevel::Remote : HitLevel::Memory;
        l2s[cpu]->fillPrefetch(addr);
    }
    if (into_l1)
        l1s[cpu]->fillPrefetch(addr);
    return src;
}

void
MemorySystem::addL1Listener(uint32_t cpu, CacheListener *l)
{
    l1Hooks[cpu]->add(l);
}

void
MemorySystem::addL2Listener(uint32_t cpu, CacheListener *l)
{
    l2Hooks[cpu]->add(l);
}

uint64_t
MemorySystem::l1ReadMisses() const
{
    uint64_t n = 0;
    for (const auto &c : l1s)
        n += c->stats().readMisses;
    return n;
}

uint64_t
MemorySystem::l2ReadMisses() const
{
    uint64_t n = 0;
    for (const auto &c : l2s)
        n += c->stats().readMisses;
    return n;
}

uint64_t
MemorySystem::l1ReadAccesses() const
{
    uint64_t n = 0;
    for (const auto &c : l1s)
        n += c->stats().readAccesses;
    return n;
}

} // namespace stems::mem
