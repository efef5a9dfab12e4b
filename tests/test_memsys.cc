/** @file Multiprocessor memory system integration tests. */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "mem/memsys.hh"

using namespace stems::mem;
using stems::trace::MemAccess;

namespace {

MemSysConfig
smallSys(uint32_t ncpu = 4)
{
    MemSysConfig c;
    c.ncpu = ncpu;
    c.l1 = {4 * 1024, 2, 64};
    c.l2 = {64 * 1024, 8, 64};
    return c;
}

MemAccess
acc(uint32_t cpu, uint64_t addr, bool write = false, uint64_t pc = 0x1)
{
    MemAccess a;
    a.cpu = cpu;
    a.addr = addr;
    a.isWrite = write;
    a.pc = pc;
    return a;
}

} // anonymous namespace

TEST(MemSys, MissFillsBothLevels)
{
    MemorySystem sys(smallSys());
    auto out = sys.access(acc(0, 0x1000));
    EXPECT_EQ(out.level, HitLevel::Memory);
    EXPECT_TRUE(sys.l1(0).contains(0x1000));
    EXPECT_TRUE(sys.l2(0).contains(0x1000));
    EXPECT_EQ(sys.access(acc(0, 0x1000)).level, HitLevel::L1);
}

TEST(MemSys, L2HitAfterL1Eviction)
{
    MemorySystem sys(smallSys());
    sys.access(acc(0, 0x1000));
    sys.l1(0).invalidate(0x1000);  // drop the L1 copy only
    EXPECT_EQ(sys.access(acc(0, 0x1000)).level, HitLevel::L2);
}

TEST(MemSys, RemoteDirtyTransfer)
{
    MemorySystem sys(smallSys());
    sys.access(acc(1, 0x2000, true));  // cpu1 owns dirty copy
    auto out = sys.access(acc(0, 0x2000));
    EXPECT_EQ(out.level, HitLevel::Remote);
}

TEST(MemSys, WriteInvalidatesRemoteCopies)
{
    MemorySystem sys(smallSys());
    sys.access(acc(0, 0x3000));
    sys.access(acc(1, 0x3000));
    EXPECT_TRUE(sys.l1(0).contains(0x3000));
    sys.access(acc(2, 0x3000, true));
    EXPECT_FALSE(sys.l1(0).contains(0x3000));
    EXPECT_FALSE(sys.l2(0).contains(0x3000));
    EXPECT_FALSE(sys.l1(1).contains(0x3000));
}

TEST(MemSys, CoherenceMissFlagOnRefetch)
{
    MemorySystem sys(smallSys());
    sys.access(acc(0, 0x3000));
    sys.access(acc(1, 0x3000, true));
    auto out = sys.access(acc(0, 0x3000));
    EXPECT_TRUE(out.coherenceMiss);
}

TEST(MemSys, InclusionL2EvictionPurgesL1)
{
    // L2 64 kB 8-way: one set = 8 blocks with a 512-set stride
    MemorySystem sys(smallSys());
    const uint64_t stride = 64 * 1024 / 8 * 8;  // 64 kB (same set 0)
    for (int i = 0; i < 9; ++i)
        sys.access(acc(0, uint64_t(i) * stride));
    // the first block fell out of L2; inclusion says L1 lost it too
    EXPECT_FALSE(sys.l2(0).contains(0));
    EXPECT_FALSE(sys.l1(0).contains(0));
}

TEST(MemSys, DirtyL1EvictionWritesBackToL2)
{
    MemorySystem sys(smallSys());
    sys.access(acc(0, 0x0, true));  // dirty in L1
    // force the L1 set to turn over (4 kB 2-way -> set stride 2 kB)
    sys.access(acc(0, 0x0800));
    sys.access(acc(0, 0x1000));     // evicts dirty block 0
    EXPECT_FALSE(sys.l1(0).contains(0x0));
    EXPECT_TRUE(sys.l2(0).contains(0x0));
    // evicting it from L2 must write back to memory
    sys.l2(0).invalidate(0x0);
    EXPECT_GE(sys.l2(0).stats().writebacks, 1u);
}

TEST(MemSys, PrefetchIntoL1SetsBitsBothLevels)
{
    MemorySystem sys(smallSys());
    EXPECT_EQ(sys.prefetch(0, 0x5000, true), HitLevel::Memory);
    EXPECT_TRUE(sys.l1(0).isPrefetched(0x5000));
    EXPECT_TRUE(sys.l2(0).isPrefetched(0x5000));

    auto out = sys.access(acc(0, 0x5000));
    EXPECT_EQ(out.level, HitLevel::L1);
    EXPECT_TRUE(out.l1PrefetchHit);
    EXPECT_TRUE(out.l2PrefetchHit);  // off-chip miss was covered too
}

TEST(MemSys, PrefetchIntoL2Only)
{
    MemorySystem sys(smallSys());
    sys.prefetch(1, 0x6000, false);
    EXPECT_FALSE(sys.l1(1).contains(0x6000));
    EXPECT_TRUE(sys.l2(1).isPrefetched(0x6000));
    auto out = sys.access(acc(1, 0x6000));
    EXPECT_EQ(out.level, HitLevel::L2);
    EXPECT_TRUE(out.l2PrefetchHit);
    EXPECT_FALSE(out.l1PrefetchHit);
}

TEST(MemSys, PrefetchFindingL2CopyIsNotOffchipCoverage)
{
    MemorySystem sys(smallSys());
    sys.access(acc(0, 0x7000));        // block lands in L1+L2
    sys.l1(0).invalidate(0x7000);      // L2 retains it
    EXPECT_EQ(sys.prefetch(0, 0x7000, true), HitLevel::L2);
    auto out = sys.access(acc(0, 0x7000));
    EXPECT_TRUE(out.l1PrefetchHit);
    EXPECT_FALSE(out.l2PrefetchHit);   // there was no off-chip miss
}

TEST(MemSys, PrefetchBehavesAsReadInProtocol)
{
    MemorySystem sys(smallSys());
    sys.access(acc(1, 0x8000, true));  // cpu1 modified
    sys.prefetch(0, 0x8000, true);     // stream request downgrades
    // cpu1 keeps a shared copy; a later write by 1 re-invalidates 0
    EXPECT_TRUE(sys.l1(1).contains(0x8000));
    sys.access(acc(1, 0x8000, true));
    EXPECT_FALSE(sys.l1(0).contains(0x8000));
}

TEST(MemSys, ObserverSeesOutcome)
{
    struct Obs : AccessObserver
    {
        int calls = 0;
        HitLevel last = HitLevel::L1;
        void
        onAccess(const MemAccess &, const AccessOutcome &o) override
        {
            ++calls;
            last = o.level;
        }
    } obs;

    MemorySystem sys(smallSys());
    sys.addObserver(&obs);
    sys.access(acc(0, 0x9000));
    EXPECT_EQ(obs.calls, 1);
    EXPECT_EQ(obs.last, HitLevel::Memory);
    sys.access(acc(0, 0x9000));
    EXPECT_EQ(obs.last, HitLevel::L1);
}

TEST(MemSys, AggregateCountersSumAcrossCpus)
{
    MemorySystem sys(smallSys(2));
    sys.access(acc(0, 0x100));
    sys.access(acc(1, 0x200));
    sys.access(acc(1, 0x300));
    EXPECT_EQ(sys.l1ReadMisses(), 3u);
    EXPECT_EQ(sys.l2ReadMisses(), 3u);
    EXPECT_EQ(sys.l1ReadAccesses(), 3u);
}

TEST(MemSys, RejectsL2BlockSmallerThanL1)
{
    MemSysConfig c = smallSys();
    c.l1.blockSize = 128;
    c.l2.blockSize = 64;
    c.l1.sizeBytes = 4096;
    EXPECT_THROW(MemorySystem{c}, std::invalid_argument);
}

namespace {

/** One step of a random hierarchy workout. */
struct Op
{
    enum Kind { Access, PrefetchL1, PrefetchL2 } kind;
    MemAccess a;
};

/**
 * A random mix over @p ncpu nodes: loads, stores and L1/L2 prefetches
 * over a footprint large enough to evict from every level, and shared
 * enough to invalidate and downgrade.
 */
std::vector<Op>
randomOps(uint32_t ncpu, size_t n, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::vector<Op> ops;
    for (size_t i = 0; i < n; ++i) {
        const uint32_t cpu = static_cast<uint32_t>(rng() % ncpu);
        // 32k blocks of 64 B: 2 MiB, past the directory's reservation
        const uint64_t addr = (rng() % 32768) * 64 + rng() % 64;
        const uint64_t r = rng() % 10;
        ops.push_back({r == 0 ? Op::PrefetchL1
                              : r == 1 ? Op::PrefetchL2 : Op::Access,
                       acc(cpu, addr, r >= 7, 0x40 + rng() % 8)});
    }
    return ops;
}

/** What a system reports after @p ops: every outcome and counter. */
struct Observed
{
    std::vector<int> outcomes;
    std::vector<CacheStats> caches;
    DirectoryStats beforeFinalize;
    DirectoryStats dir;
    uint64_t writebacks = 0;

    bool operator==(const Observed &) const = default;
};

/** Run @p ops on @p sys; finalize its directory when @p finalize. */
Observed
drive(MemorySystem &sys, const std::vector<Op> &ops, bool finalize = true)
{
    Observed o;
    for (const Op &op : ops) {
        if (op.kind == Op::Access) {
            const AccessOutcome out = sys.access(op.a);
            o.outcomes.push_back(static_cast<int>(out.level) * 8 +
                                 out.l1PrefetchHit * 4 +
                                 out.l2PrefetchHit * 2 +
                                 out.coherenceMiss);
        } else {
            o.outcomes.push_back(static_cast<int>(sys.prefetch(
                op.a.cpu, op.a.addr, op.kind == Op::PrefetchL1)));
        }
    }
    for (uint32_t c = 0; c < sys.numCpus(); ++c) {
        o.caches.push_back(sys.l1(c).stats());
        o.caches.push_back(sys.l2(c).stats());
    }
    o.beforeFinalize = sys.directory().stats();
    o.dir = finalize ? sys.directory().finalize() : o.beforeFinalize;
    o.writebacks = sys.memoryWritebacks();
    return o;
}

} // anonymous namespace

TEST(MemorySystem, ResetEqualsFreshConstruction)
{
    struct Counting : AccessObserver, CacheListener
    {
        uint64_t events = 0;
        void onAccess(const MemAccess &, const AccessOutcome &) override
        {
            ++events;
        }
        void evicted(uint64_t, bool, bool) override { ++events; }
        void invalidated(uint64_t, bool) override { ++events; }
    };

    // 256 B coherence blocks track four 64 B chunks each, so stale
    // sharing bookkeeping from an earlier trace would show
    for (const auto &[ncpu, block] : {std::pair{2u, 64u},
                                      std::pair{16u, 256u}}) {
        SCOPED_TRACE(ncpu);
        MemSysConfig cfg = smallSys(ncpu);
        cfg.l2.blockSize = block;
        const auto a = randomOps(ncpu, 40000, ncpu);
        const auto b = randomOps(ncpu, 40000, ncpu + 100);

        // trace A with listeners and an observer attached, left
        // unfinalized, then reset
        MemorySystem reused(cfg);
        Counting listener;
        reused.addObserver(&listener);
        for (uint32_t c = 0; c < ncpu; ++c) {
            reused.addL1Listener(c, &listener);
            reused.addL2Listener(c, &listener);
        }
        const Observed onA = drive(reused, a, false);
        const uint64_t heard = listener.events;
        EXPECT_GT(onA.dir.invalidationsSent, 0u);
        EXPECT_GT(onA.writebacks, 0u);
        reused.reset();

        MemorySystem fresh(cfg);
        const Observed want = drive(fresh, b);
        EXPECT_GT(want.dir.trueSharing, 0u);
        // with 256 B blocks B ends with classifications still pending:
        // finalize counts them, so a reset must clear the finalized
        // flag too (a 64 B block's only chunk is always the written one)
        if (block > 64) {
            EXPECT_GT(want.dir.falseSharing,
                      want.beforeFinalize.falseSharing);
        }
        EXPECT_TRUE(drive(reused, b) == want);
        reused.reset();
        EXPECT_TRUE(drive(reused, b) == want);
        // reset dropped the listeners and the observer
        EXPECT_EQ(listener.events, heard);
    }
}
