/**
 * @file
 * The multiprocessor memory system: per-node private L1 and L2 caches
 * kept inclusive, glued by a full-map invalidation directory. This is
 * the substrate every trace-based experiment in the paper runs on.
 *
 * A 16-node system is tens of megabytes of tables, so a system is
 * built once and reused: reset() returns it to exactly its freshly
 * constructed state between passes, through the same code the
 * constructors end with (Cache::reset, Directory::reset).
 */

#ifndef STEMS_MEM_MEMSYS_HH
#define STEMS_MEM_MEMSYS_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "mem/cache.hh"
#include "mem/directory.hh"
#include "trace/access.hh"

namespace stems::mem {

/** Where a demand access was satisfied. */
enum class HitLevel { L1, L2, Remote, Memory };

/** Full outcome of one demand access through the hierarchy. */
struct AccessOutcome
{
    HitLevel level = HitLevel::L1;
    bool l1PrefetchHit = false;  //!< hit a prefetched L1 block (coverage)
    bool l2PrefetchHit = false;  //!< first use of an L2-prefetched block
    bool coherenceMiss = false;  //!< miss caused by a remote write
};

/**
 * Observer of the demand access stream with hierarchy outcomes.
 * Prefetchers subscribe here: SMS trains on all L1 accesses; GHB
 * filters for L1 misses.
 */
class AccessObserver
{
  public:
    virtual ~AccessObserver() = default;
    virtual void onAccess(const trace::MemAccess &a,
                          const AccessOutcome &o) = 0;
};

/** Configuration of the full memory system. */
struct MemSysConfig
{
    uint32_t ncpu = 16;
    CacheConfig l1{64 * 1024, 2, 64};
    CacheConfig l2{8 * 1024 * 1024, 8, 64};

    bool operator==(const MemSysConfig &) const = default;
};

/**
 * 16-node (configurable) shared-memory system. Each node has a
 * private L1 and a private L2; the L2s are kept inclusive of their
 * L1s; a directory maintains single-writer/multi-reader coherence at
 * L2 block granularity; dirty L1 victims write back into the L2.
 */
class MemorySystem : public CoherenceClient
{
  public:
    explicit MemorySystem(const MemSysConfig &config);

    /**
     * Return to the freshly constructed state, keeping every table's
     * storage: all caches and the directory reset, every listener
     * added by addL1Listener/addL2Listener and every observer
     * dropped, the memory writeback count zero. A pass that borrows a
     * built system (study::runSystem) leaves its listeners behind;
     * reset() is what makes the system safe to lend again.
     */
    void reset();

    /**
     * Run one demand access through node a.cpu's hierarchy, updating
     * coherence, inclusion and false-sharing bookkeeping, and
     * notifying observers.
     */
    AccessOutcome access(const trace::MemAccess &a);

    /**
     * Issue a prefetch/stream request on behalf of node @p cpu. The
     * request behaves like a read in the coherence protocol.
     *
     * @param into_l1 stream into L1 (SMS) or stop at L2 (GHB)
     * @return the level that supplied the data
     */
    HitLevel prefetch(uint32_t cpu, uint64_t addr, bool into_l1);

    /**
     * Attach an additional listener to node @p cpu's L1 (e.g., an SMS
     * trainer that must see evictions and invalidations).
     */
    void addL1Listener(uint32_t cpu, CacheListener *l);

    /** Attach an additional listener to node @p cpu's L2. */
    void addL2Listener(uint32_t cpu, CacheListener *l);

    /** Subscribe to the demand access stream. */
    void addObserver(AccessObserver *o) { observers.push_back(o); }

    Cache &l1(uint32_t cpu) { return *l1s[cpu]; }
    Cache &l2(uint32_t cpu) { return *l2s[cpu]; }
    const Cache &l1(uint32_t cpu) const { return *l1s[cpu]; }
    const Cache &l2(uint32_t cpu) const { return *l2s[cpu]; }
    Directory &directory() { return *dir; }
    uint32_t numCpus() const { return cfg.ncpu; }
    const MemSysConfig &config() const { return cfg; }

    /** Sum of demand read misses over all L1s. */
    uint64_t l1ReadMisses() const;
    /** Sum of demand read misses over all L2s (off-chip read misses). */
    uint64_t l2ReadMisses() const;
    /** Sum of demand read accesses over all L1s. */
    uint64_t l1ReadAccesses() const;

    /** Blocks written back to main memory (from L2 victims). */
    uint64_t memoryWritebacks() const { return memWritebacks; }

    // CoherenceClient
    void invalidateBlock(uint32_t cpu, uint64_t addr) override;

  private:
    /** Per-node L1 hook: forwards events, performs dirty writeback. */
    class L1Hook : public CacheListener
    {
      public:
        L1Hook(MemorySystem *s, uint32_t c) : sys(s), cpu(c) {}
        void evicted(uint64_t addr, bool dirty, bool wasPf) override;
        void invalidated(uint64_t addr, bool wasPf) override;
        void add(CacheListener *l) { extra.push_back(l); }
        void clear() { extra.clear(); }

      private:
        MemorySystem *sys;
        uint32_t cpu;
        std::vector<CacheListener *> extra;
    };

    /** Per-node L2 hook: enforces inclusion, informs the directory. */
    class L2Hook : public CacheListener
    {
      public:
        L2Hook(MemorySystem *s, uint32_t c) : sys(s), cpu(c) {}
        void evicted(uint64_t addr, bool dirty, bool wasPf) override;
        void invalidated(uint64_t addr, bool wasPf) override;
        void add(CacheListener *l) { extra.push_back(l); }
        void clear() { extra.clear(); }

      private:
        MemorySystem *sys;
        uint32_t cpu;
        std::vector<CacheListener *> extra;
    };

    void invalidateL1Range(uint32_t cpu, uint64_t l2_block_addr);

    MemSysConfig cfg;
    std::vector<std::unique_ptr<Cache>> l1s;
    std::vector<std::unique_ptr<Cache>> l2s;
    std::vector<std::unique_ptr<L1Hook>> l1Hooks;
    std::vector<std::unique_ptr<L2Hook>> l2Hooks;
    std::unique_ptr<Directory> dir;
    std::vector<AccessObserver *> observers;
    uint64_t memWritebacks = 0;
};

} // namespace stems::mem

#endif // STEMS_MEM_MEMSYS_HH
