/**
 * @file
 * Set-associative write-back cache model with per-frame prefetch bits
 * and eviction/invalidation listeners. The listener stream is what
 * defines spatial region generations for SMS trainers, so the cache
 * reports *every* departure of a valid block, clean or dirty.
 */

#ifndef STEMS_MEM_CACHE_HH
#define STEMS_MEM_CACHE_HH

#include <bit>
#include <cstdint>
#include <string>

#include "util/bits.hh"
#include "util/hugepage.hh"

namespace stems::mem {

/** Geometry of one cache; replacement is always true LRU. */
struct CacheConfig
{
    uint64_t sizeBytes = 64 * 1024;  //!< total data capacity
    uint32_t assoc = 2;              //!< ways per set
    uint32_t blockSize = 64;         //!< bytes per block (power of two)

    bool operator==(const CacheConfig &) const = default;
};

/**
 * Observer of block departures. Implemented by SMS trainers (to end
 * spatial region generations) and by the memory system (to maintain
 * inclusion and coherence bookkeeping).
 */
class CacheListener
{
  public:
    virtual ~CacheListener() = default;

    /** A valid block left by replacement. @p addr is block-aligned. */
    virtual void
    evicted(uint64_t addr, bool dirty, bool was_prefetch)
    {
        (void)addr; (void)dirty; (void)was_prefetch;
    }

    /** A valid block left by external invalidation. */
    virtual void
    invalidated(uint64_t addr, bool was_prefetch)
    {
        (void)addr; (void)was_prefetch;
    }
};

/** Outcome of one demand access. */
struct AccessResult
{
    bool hit = false;          //!< block was present
    bool prefetchHit = false;  //!< present only because of a prefetch
};

/** Event counters for one cache. */
struct CacheStats
{
    uint64_t accesses = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t readAccesses = 0;
    uint64_t readMisses = 0;
    uint64_t writeMisses = 0;
    uint64_t evictions = 0;
    uint64_t writebacks = 0;
    uint64_t invalidations = 0;
    uint64_t prefetchFills = 0;     //!< blocks inserted by a prefetcher
    uint64_t prefetchHits = 0;      //!< first demand touch of such block
    uint64_t prefetchUnused = 0;    //!< prefetched blocks dropped unused

    void
    reset()
    {
        *this = CacheStats{};
    }

    bool operator==(const CacheStats &) const = default;
};

/**
 * A single-level set-associative cache holding tags only (no data),
 * sufficient for miss/coverage studies and timing simulation.
 */
class Cache
{
  public:
    /** Widest set the in-frame LRU rank field (16 bits) can order. */
    static constexpr uint32_t kMaxAssoc = uint32_t{1} << 16;

    /**
     * @param config geometry; size, assoc and blockSize must
     *               describe at least one full set, and assoc must
     *               not exceed kMaxAssoc
     * @param name   label used in assertions and debug output
     */
    explicit Cache(const CacheConfig &config, std::string name = "cache");

    /** Subscribe to eviction/invalidation events (one listener). */
    void setListener(CacheListener *l) { listener = l; }

    /**
     * Called the moment a demand access is known to miss, before the
     * victim/allocate work: the owner uses it to start fetching the
     * next level's state so cold lookups overlap the eviction chain.
     */
    using PreMissHook = void (*)(void *ctx, uint64_t addr);

    /**
     * Perform a demand access. Misses allocate the block, evicting a
     * victim if needed (listener notified). Demand hits on a
     * prefetched block clear the prefetch bit and report prefetchHit.
     */
    AccessResult access(uint64_t addr, bool is_write,
                        PreMissHook pre_miss = nullptr,
                        void *pre_miss_ctx = nullptr);

    /**
     * Insert a block on behalf of a prefetcher; no-op if present.
     * @return true if the block was newly inserted.
     */
    bool fillPrefetch(uint64_t addr);

    /**
     * Insert a block without counting a demand access (used by upper
     * levels maintaining inclusion). No-op if present.
     * @return true if newly inserted.
     */
    bool fill(uint64_t addr, bool dirty = false);

    /**
     * Remove a block (coherence invalidation or inclusion victim).
     * @return true if the block was present.
     */
    bool invalidate(uint64_t addr);

    /** @return true if the block holding @p addr is resident. */
    bool contains(uint64_t addr) const;

    /** @return true if resident with its prefetch bit still set. */
    bool isPrefetched(uint64_t addr) const;

    /** Mark the resident block dirty. @return false if absent. */
    bool setDirty(uint64_t addr);

    /**
     * Clear the prefetch bit of a resident block because a consumer
     * above this level made first use of the prefetched data (counts
     * as a useful prefetch here, too).
     * @return true if the block was resident with its bit set.
     */
    bool clearPrefetch(uint64_t addr);

    /** Drop all blocks without listener notification. */
    void flush();

    /**
     * Return to the freshly constructed state: every frame invalid,
     * every LRU stack in its initial order, every counter zero. The
     * listener stays subscribed. The constructor ends here too.
     */
    void reset();

    /**
     * Start fetching the tag line for @p addr's set so an imminent
     * access()/fill() overlaps the latency of a cold tag array.
     */
    void
    prefetchTags(uint64_t addr) const
    {
#if defined(__GNUC__) || defined(__clang__)
        __builtin_prefetch(
            &frames[static_cast<size_t>(setIndex(addr)) * cfg.assoc]);
#else
        (void)addr;
#endif
    }

    const CacheStats &stats() const { return stats_; }
    CacheStats &stats() { return stats_; }

    uint32_t blockSize() const { return cfg.blockSize; }
    uint32_t numSets() const { return sets; }
    uint32_t associativity() const { return cfg.assoc; }
    uint64_t capacityBytes() const { return cfg.sizeBytes; }
    const std::string &name() const { return name_; }

    /** Block-align @p addr to this cache's block size. */
    uint64_t
    blockBase(uint64_t addr) const
    {
        return addr & ~uint64_t{cfg.blockSize - 1};
    }

  private:
    /**
     * One tag frame packed into a word: bit 0 valid, bit 1 dirty,
     * bit 2 prefetch, bits 3..18 the way's LRU rank (0 = MRU), tag in
     * bits 19..63. Packing shrinks the tag-array footprint (the
     * dominant resident cost of a 16-node system's L2s) to one word
     * per frame, and embedding the recency rank means a hit updates
     * LRU state on the cache line the tag probe just loaded instead
     * of touching a second array. Ranks always form a permutation of
     * the set's ways — invalidation clears a frame but keeps its rank
     * — which is exactly the classic LRU-stack semantics, for every
     * associativity up to kMaxAssoc.
     * Tags are addr >> setShift and keep 45 bits, so a frame
     * represents addresses below 2^45 * sets * blockSize bytes: 2^51
     * for one set of 64 B blocks, above any 48-bit virtual address.
     */
    using Frame = uint64_t;

    static constexpr uint64_t kValid = 1;
    static constexpr uint64_t kDirty = 2;
    static constexpr uint64_t kPrefetch = 4;
    static constexpr uint32_t kRankShift = 3;
    static constexpr uint64_t kRankMask = uint64_t{kMaxAssoc - 1}
                                          << kRankShift;
    static constexpr uint32_t kTagShift =
        kRankShift + std::countr_zero(kMaxAssoc);

    static bool valid(Frame f) { return f & kValid; }
    static bool dirty(Frame f) { return f & kDirty; }
    static bool prefetch(Frame f) { return f & kPrefetch; }
    static uint64_t tagBits(Frame f) { return f >> kTagShift; }

    static uint32_t
    rankOf(Frame f)
    {
        return static_cast<uint32_t>((f & kRankMask) >> kRankShift);
    }

    uint32_t setIndex(uint64_t addr) const;
    uint64_t tagOf(uint64_t addr) const;
    uint64_t addrOf(uint32_t set, uint64_t tag) const;
    Frame *find(uint64_t addr);
    const Frame *find(uint64_t addr) const;

    /** Way of (set, tag) in the set's frame array, or assoc if absent. */
    uint32_t findWay(const Frame *base, uint64_t tag) const;

    /** Allocate a way in @p set for @p tag, evicting if necessary. */
    Frame &allocate(uint32_t set, uint64_t tag);

    /** Move @p way to the front of its set's LRU stack. */
    void
    touchRepl(Frame *base, uint32_t way)
    {
        const uint64_t r = base[way] & kRankMask;
        for (uint32_t w = 0; w < cfg.assoc; ++w) {
            if ((base[w] & kRankMask) < r)
                base[w] += uint64_t{1} << kRankShift;
        }
        base[way] &= ~kRankMask;
    }

    /** The way at the back of @p base's LRU stack. */
    uint32_t
    victimRepl(const Frame *base) const
    {
        const uint64_t back =
            uint64_t{cfg.assoc - 1} << kRankShift;
        for (uint32_t w = 0; w < cfg.assoc; ++w) {
            if ((base[w] & kRankMask) == back)
                return w;
        }
        return 0;  // unreachable: ranks are a permutation
    }

    CacheConfig cfg;
    std::string name_;
    uint32_t sets;
    uint32_t blockShift;
    uint32_t setShift;  //!< blockShift + log2(sets), hoisted
    util::HugeArray<Frame> frames;
    CacheListener *listener = nullptr;
    CacheStats stats_;
};

} // namespace stems::mem

#endif // STEMS_MEM_CACHE_HH
