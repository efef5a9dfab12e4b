/** @file Multiprocessor memory system integration tests. */

#include <gtest/gtest.h>

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
