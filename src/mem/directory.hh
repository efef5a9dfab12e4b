/**
 * @file
 * Directory-based invalidation coherence with deferred false-sharing
 * classification.
 *
 * The directory tracks, per coherence block, the owner / sharer set
 * across nodes and fans out invalidations on writes. For block sizes
 * above the 64 B reference grain it additionally classifies coherence
 * read misses as *true* or *false* sharing: an invalidated reader's
 * next-generation miss is false sharing iff the reader never touches a
 * 64 B sub-block dirtied by the remote writer while it re-holds the
 * block (the classic Dubois/Torrellas-style deferred classification).
 * This feeds the "false sharing beyond 64B" series of Figure 4.
 *
 * Entries are grouped by region, as SMS groups accesses: one table
 * slot holds the entries of 32 consecutive coherence blocks, so one
 * probe serves every block of a region (coarse-grain coherence
 * tracking, Cantin, Lipasti & Smith, ISCA 2005, keeps its state per
 * region for the same reason). The table is reserved once from the
 * machine configuration, never from the trace.
 */

#ifndef STEMS_MEM_DIRECTORY_HH
#define STEMS_MEM_DIRECTORY_HH

#include <cstdint>
#include <vector>

#include "util/bits.hh"
#include "util/flat_map.hh"
#include "util/hugepage.hh"

namespace stems::mem {

/** Callbacks the directory uses to reach into per-node caches. */
class CoherenceClient
{
  public:
    virtual ~CoherenceClient() = default;

    /** Remove the (block-aligned) block from node @p cpu's hierarchy. */
    virtual void invalidateBlock(uint32_t cpu, uint64_t addr) = 0;
};

/** Directory event counters. */
struct DirectoryStats
{
    uint64_t invalidationsSent = 0;  //!< copies invalidated by writes
    uint64_t downgrades = 0;         //!< M -> S transitions serving reads
    uint64_t readCohMisses = 0;      //!< read misses after invalidation
    uint64_t writeCohMisses = 0;     //!< write misses after invalidation
    uint64_t upgrades = 0;           //!< writes hitting a shared copy
    uint64_t trueSharing = 0;        //!< coherence read misses, true
    uint64_t falseSharing = 0;       //!< coherence read misses, false

    bool operator==(const DirectoryStats &) const = default;
};

/**
 * Full-map directory over an @p ncpu-node system at a fixed coherence
 * block size (the L2 block size in this repo's experiments).
 */
class Directory
{
  public:
    /** Outcome of a directory read request. */
    struct ReadOutcome
    {
        bool remoteTransfer = false;  //!< data sourced from a remote M copy
        bool coherenceMiss = false;   //!< requester lost its copy to a write
    };

    /** Outcome of a directory write notification. */
    struct WriteOutcome
    {
        bool coherenceMiss = false;  //!< writer lost its copy to a write
        bool upgrade = false;        //!< writer held a shared copy
        bool remoteTransfer = false; //!< ownership taken from a remote M copy
    };

    /**
     * @param ncpu            number of nodes (max 16)
     * @param block_size      coherence granularity in bytes (power of
     *                        two, >= 64)
     * @param client          invalidation sink; may be null for unit
     *                        tests, in which case invalidations are
     *                        counted only
     * @param expected_blocks footprint hint in coherence blocks:
     *                        the entry table is reserved for
     *                        expected_blocks / 32 regions (at most
     *                        64k regions), so steady-state runs skip
     *                        the biggest growth rehashes (0 = grow
     *                        on demand)
     */
    Directory(uint32_t ncpu, uint32_t block_size, CoherenceClient *client,
              uint64_t expected_blocks = 0);

    /**
     * Note a demand access by @p cpu (hit or miss, any level); resolves
     * pending false-sharing classifications. Must be called before the
     * caches process the access.
     */
    void noteAccess(uint32_t cpu, uint64_t addr);

    /**
     * Handle a read request that missed node @p cpu's L2.
     * @param demand false for prefetch/stream requests: coherence state
     *               updates happen but no miss is classified
     */
    ReadOutcome read(uint32_t cpu, uint64_t addr, bool demand = true);

    /**
     * Handle a write by @p cpu (called for every store, hit or miss,
     * so upgrades of shared copies are observed). Invalidates all
     * other copies through the CoherenceClient.
     */
    WriteOutcome write(uint32_t cpu, uint64_t addr);

    /** Node @p cpu's L2 silently dropped its copy (replacement). */
    void evicted(uint32_t cpu, uint64_t addr);

    /**
     * Start fetching the cache line that holds @p addr's directory
     * entry so an imminent read()/write()/evicted() overlaps the
     * memory latency of the footprint-sized entry table.
     */
    void
    prefetchEntry(uint64_t addr) const
    {
        const uint64_t bi = blockIndex(addr);
        entries.prefetchKey(bi >> kRegionShift,
                            (bi & kRegionMask) * sizeof(Entry));
    }

    /**
     * Resolve all still-pending classifications (as false sharing) and
     * return the stats. Call once at end of simulation.
     */
    const DirectoryStats &finalize();

    const DirectoryStats &stats() const { return stats_; }

    /**
     * Return to the freshly constructed state: no entries, no pending
     * classifications, an empty exclusive-store filter, zero stats,
     * not finalized. The tables keep their capacity. The constructor
     * ends here too.
     */
    void reset();

    uint32_t blockSize() const { return uint32_t{1} << blockShift; }

  private:
    struct Entry
    {
        uint16_t sharers = 0;  //!< bit per node holding a copy
        int8_t owner = -1;     //!< node with the modified copy, or -1
        uint16_t hadCopy = 0;  //!< nodes invalidated, not yet refetched
    };

    static constexpr uint32_t kRegionShift = 5;  //!< 32 blocks a region
    static constexpr uint64_t kRegionMask =
        (uint64_t{1} << kRegionShift) - 1;

    /** The entries of one region's 32 consecutive blocks. */
    struct Region
    {
        Entry block[kRegionMask + 1];
    };

    /** Unresolved classification for one (block, reader). */
    struct Pending
    {
        Bits128 written;  //!< 64 B sub-blocks dirtied while reader absent
    };

    uint64_t blockIndex(uint64_t addr) const { return addr >> blockShift; }

    /** Entry of block @p bi, created (with its region) if untouched. */
    Entry &
    entryOf(uint64_t bi)
    {
        return entries[bi >> kRegionShift].block[bi & kRegionMask];
    }

    /** Key for per-(block, cpu) side tables. */
    uint64_t
    key(uint64_t addr, uint32_t cpu) const
    {
        return (blockIndex(addr) << 4) | cpu;
    }

    /** Bit index of the 64 B chunk of @p addr within its block. */
    uint32_t
    chunkOf(uint64_t addr) const
    {
        return static_cast<uint32_t>(
            (addr & ((uint64_t{1} << blockShift) - 1)) >> 6);
    }

    void invalidateCopy(uint32_t cpu, uint64_t addr, Entry &e);
    void resolveAsFalse(uint64_t k);

    // ---- exclusive-store filter -------------------------------------
    // Per-CPU direct-mapped cache of block indices whose directory
    // state is known to be {owner == cpu, hadCopy == 0}: for such
    // blocks write() is a no-op (no stats, no invalidations, no
    // sub-block accumulation), so repeat stores to privately-owned
    // data skip the entry-table probe entirely. Entries are dropped
    // whenever ownership leaves the CPU or an absent former reader
    // appears, which keeps the filter exact.

    static constexpr uint32_t kExclBits = 13;  //!< 8k entries per CPU

    uint64_t &
    exclSlot(uint32_t cpu, uint64_t block_index)
    {
        return excl[(static_cast<size_t>(cpu) << kExclBits) |
                    (block_index & ((uint64_t{1} << kExclBits) - 1))];
    }

    /** Drop a (cpu, block) pair from the filter if present. */
    void
    exclDrop(uint32_t cpu, uint64_t block_index)
    {
        uint64_t &s = exclSlot(cpu, block_index);
        if (s == block_index + 1)
            s = 0;
    }

    uint32_t ncpu_;
    uint32_t blockShift;
    CoherenceClient *client;
    util::FlatMap<uint64_t, Region> entries;  //!< keyed by region
    /** keyed by key(): writes accumulated since reader was invalidated */
    util::FlatMap<uint64_t, Bits128> sinceInval;
    /** keyed by key(): classification pending while reader re-holds */
    util::FlatMap<uint64_t, Pending> pending;
    util::HugeArray<uint64_t> excl;  //!< block_index + 1, 0 = empty
    DirectoryStats stats_;
    bool finalized = false;
};

} // namespace stems::mem

#endif // STEMS_MEM_DIRECTORY_HH
