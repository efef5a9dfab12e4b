#include "mem/cache.hh"

#include <cassert>
#include <stdexcept>

namespace stems::mem {

Cache::Cache(const CacheConfig &config, std::string name)
    : cfg(config), name_(std::move(name))
{
    if (!isPow2(cfg.blockSize))
        throw std::invalid_argument(name_ + ": block size not power of 2");
    if (cfg.assoc == 0 || cfg.assoc > kMaxAssoc)
        throw std::invalid_argument(name_ + ": associativity not in 1.." +
                                    std::to_string(kMaxAssoc));
    uint64_t set_bytes = uint64_t{cfg.blockSize} * cfg.assoc;
    if (cfg.sizeBytes < set_bytes || cfg.sizeBytes % set_bytes != 0)
        throw std::invalid_argument(name_ + ": size not a multiple of "
                                            "assoc * blockSize");
    sets = static_cast<uint32_t>(cfg.sizeBytes / set_bytes);
    if (!isPow2(sets))
        throw std::invalid_argument(name_ + ": set count not power of 2");
    blockShift = log2i(cfg.blockSize);
    setShift = blockShift + log2i(sets);
    frames.reset(static_cast<size_t>(sets) * cfg.assoc);
    reset();
}

void
Cache::reset()
{
    // way w starts at rank assoc-1-w: the back of every LRU stack is
    // way 0, matching timestamp LRU's untouched lowest-way-first order
    for (uint32_t s = 0; s < sets; ++s) {
        Frame *base = &frames[static_cast<size_t>(s) * cfg.assoc];
        for (uint32_t w = 0; w < cfg.assoc; ++w)
            base[w] = uint64_t{cfg.assoc - 1 - w} << kRankShift;
    }
    stats_.reset();
}

uint32_t
Cache::setIndex(uint64_t addr) const
{
    return static_cast<uint32_t>((addr >> blockShift) & (sets - 1));
}

uint64_t
Cache::tagOf(uint64_t addr) const
{
    return addr >> setShift;
}

uint64_t
Cache::addrOf(uint32_t set, uint64_t tag) const
{
    return (tag << setShift) | (uint64_t{set} << blockShift);
}

uint32_t
Cache::findWay(const Frame *base, uint64_t tag) const
{
    for (uint32_t w = 0; w < cfg.assoc; ++w) {
        const Frame f = base[w];
        if (valid(f) && tagBits(f) == tag)
            return w;
    }
    return cfg.assoc;
}

Cache::Frame *
Cache::find(uint64_t addr)
{
    Frame *base = &frames[static_cast<size_t>(setIndex(addr)) * cfg.assoc];
    const uint32_t way = findWay(base, tagOf(addr));
    return way < cfg.assoc ? &base[way] : nullptr;
}

const Cache::Frame *
Cache::find(uint64_t addr) const
{
    return const_cast<Cache *>(this)->find(addr);
}

Cache::Frame &
Cache::allocate(uint32_t set, uint64_t tag)
{
    Frame *base = &frames[static_cast<size_t>(set) * cfg.assoc];

    // prefer an invalid way
    uint32_t way = cfg.assoc;
    for (uint32_t w = 0; w < cfg.assoc; ++w) {
        if (!valid(base[w])) {
            way = w;
            break;
        }
    }
    if (way == cfg.assoc) {
        way = victimRepl(base);
        const Frame victim = base[way];
        assert(valid(victim));
        ++stats_.evictions;
        if (dirty(victim))
            ++stats_.writebacks;
        if (prefetch(victim))
            ++stats_.prefetchUnused;
        if (listener)
            listener->evicted(addrOf(set, tagBits(victim)),
                              dirty(victim), prefetch(victim));
    }

    Frame &f = base[way];
    f = (tag << kTagShift) | (f & kRankMask) | kValid;
    touchRepl(base, way);
    return f;
}

AccessResult
Cache::access(uint64_t addr, bool is_write, PreMissHook pre_miss,
              void *pre_miss_ctx)
{
    ++stats_.accesses;
    if (!is_write)
        ++stats_.readAccesses;

    // index math computed once for the whole access
    const uint32_t set = setIndex(addr);
    const uint64_t tag = tagOf(addr);
    Frame *base = &frames[static_cast<size_t>(set) * cfg.assoc];

    AccessResult r;
    const uint32_t way = findWay(base, tag);
    if (way < cfg.assoc) {
        Frame &f = base[way];
        r.hit = true;
        ++stats_.hits;
        if (prefetch(f)) {
            r.prefetchHit = true;
            ++stats_.prefetchHits;
            f &= ~kPrefetch;
        }
        if (is_write)
            f |= kDirty;
        touchRepl(base, way);
        return r;
    }

    if (pre_miss)
        pre_miss(pre_miss_ctx, addr);

    ++stats_.misses;
    if (is_write)
        ++stats_.writeMisses;
    else
        ++stats_.readMisses;

    Frame &f = allocate(set, tag);
    if (is_write)
        f |= kDirty;
    return r;
}

bool
Cache::fillPrefetch(uint64_t addr)
{
    const uint32_t set = setIndex(addr);
    const uint64_t tag = tagOf(addr);
    if (findWay(&frames[static_cast<size_t>(set) * cfg.assoc], tag) <
        cfg.assoc)
        return false;
    Frame &f = allocate(set, tag);
    f |= kPrefetch;
    ++stats_.prefetchFills;
    return true;
}

bool
Cache::fill(uint64_t addr, bool is_dirty)
{
    const uint32_t set = setIndex(addr);
    const uint64_t tag = tagOf(addr);
    Frame *base = &frames[static_cast<size_t>(set) * cfg.assoc];
    const uint32_t way = findWay(base, tag);
    if (way < cfg.assoc) {
        if (is_dirty)
            base[way] |= kDirty;
        return false;
    }
    Frame &f = allocate(set, tag);
    if (is_dirty)
        f |= kDirty;
    return true;
}

bool
Cache::invalidate(uint64_t addr)
{
    Frame *f = find(addr);
    if (!f)
        return false;
    ++stats_.invalidations;
    if (dirty(*f))
        ++stats_.writebacks;
    if (prefetch(*f))
        ++stats_.prefetchUnused;
    const bool was_prefetch = prefetch(*f);
    *f &= kRankMask;  // clear the frame, keep its LRU-stack position
    if (listener)
        listener->invalidated(blockBase(addr), was_prefetch);
    return true;
}

bool
Cache::contains(uint64_t addr) const
{
    return find(addr) != nullptr;
}

bool
Cache::isPrefetched(uint64_t addr) const
{
    const Frame *f = find(addr);
    return f && prefetch(*f);
}

bool
Cache::setDirty(uint64_t addr)
{
    Frame *f = find(addr);
    if (!f)
        return false;
    *f |= kDirty;
    return true;
}

bool
Cache::clearPrefetch(uint64_t addr)
{
    Frame *f = find(addr);
    if (!f || !prefetch(*f))
        return false;
    *f &= ~kPrefetch;
    ++stats_.prefetchHits;
    return true;
}

void
Cache::flush()
{
    for (auto &f : frames)
        f &= kRankMask;
}

} // namespace stems::mem
