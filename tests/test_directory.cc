/** @file Directory coherence and false-sharing classifier tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>
#include <utility>
#include <vector>

#include "mem/directory.hh"
#include "trace/rng.hh"

using namespace stems::mem;

namespace {

/** Captures invalidations instead of touching real caches. */
class FakeClient : public CoherenceClient
{
  public:
    void
    invalidateBlock(uint32_t cpu, uint64_t addr) override
    {
        invals.emplace_back(cpu, addr);
    }

    std::vector<std::pair<uint32_t, uint64_t>> invals;
};

} // anonymous namespace

TEST(Directory, ReadThenReadShares)
{
    FakeClient cl;
    Directory d(4, 64, &cl);
    auto r0 = d.read(0, 0x1000);
    auto r1 = d.read(1, 0x1000);
    EXPECT_FALSE(r0.remoteTransfer);
    EXPECT_FALSE(r1.remoteTransfer);
    EXPECT_TRUE(cl.invals.empty());
}

TEST(Directory, WriteInvalidatesSharers)
{
    FakeClient cl;
    Directory d(4, 64, &cl);
    d.read(0, 0x1000);
    d.read(1, 0x1000);
    d.read(2, 0x1000);
    d.write(3, 0x1000);
    EXPECT_EQ(cl.invals.size(), 3u);
    EXPECT_EQ(d.stats().invalidationsSent, 3u);
}

TEST(Directory, WriterNotSelfInvalidated)
{
    FakeClient cl;
    Directory d(4, 64, &cl);
    d.read(0, 0x1000);
    d.write(0, 0x1000);  // upgrade, no invalidation of self
    EXPECT_TRUE(cl.invals.empty());
    EXPECT_EQ(d.stats().upgrades, 1u);
}

TEST(Directory, ReadAfterRemoteWriteIsCoherenceMiss)
{
    FakeClient cl;
    Directory d(4, 64, &cl);
    d.read(0, 0x1000);
    d.write(1, 0x1000);
    auto r = d.read(0, 0x1000);
    EXPECT_TRUE(r.coherenceMiss);
    EXPECT_TRUE(r.remoteTransfer);  // data comes from cpu1's M copy
    EXPECT_EQ(d.stats().readCohMisses, 1u);
    EXPECT_EQ(d.stats().downgrades, 1u);
}

TEST(Directory, WriteAfterRemoteWriteIsWriteCohMiss)
{
    FakeClient cl;
    Directory d(4, 64, &cl);
    d.read(0, 0x1000);
    d.write(1, 0x1000);
    auto w = d.write(0, 0x1000);
    EXPECT_TRUE(w.coherenceMiss);
    EXPECT_EQ(d.stats().writeCohMisses, 1u);
}

TEST(Directory, PrefetchReadsAreNotClassified)
{
    FakeClient cl;
    Directory d(4, 64, &cl);
    d.read(0, 0x1000);
    d.write(1, 0x1000);
    auto r = d.read(0, 0x1000, /*demand=*/false);
    EXPECT_FALSE(r.coherenceMiss);
    EXPECT_EQ(d.stats().readCohMisses, 0u);
}

TEST(Directory, EvictionMakesNextMissNonCoherence)
{
    FakeClient cl;
    Directory d(4, 64, &cl);
    d.read(0, 0x1000);
    d.write(1, 0x1000);  // cpu0 invalidated
    d.evicted(1, 0x1000);
    // cpu0's record was invalidation-based; but cpu0 *evicting* clears
    d.read(0, 0x1000);
    EXPECT_EQ(d.stats().readCohMisses, 1u);
    d.evicted(0, 0x1000);
    auto r = d.read(0, 0x1000);
    EXPECT_FALSE(r.coherenceMiss);
}

TEST(Directory, FalseSharingWhenDisjointChunks)
{
    // 2 kB coherence blocks (32 chunks); cpu1 writes chunk 5, cpu0
    // refetches and only ever touches chunk 0 -> false sharing
    FakeClient cl;
    Directory d(4, 2048, &cl);
    d.read(0, 0x10000);              // cpu0 holds the block
    d.write(1, 0x10000 + 5 * 64);    // writes chunk 5, invalidates 0
    d.read(0, 0x10000);              // cpu0 refetch at chunk 0
    d.noteAccess(0, 0x10000 + 8);    // keeps touching chunk 0
    auto &s = d.finalize();
    EXPECT_EQ(s.falseSharing, 1u);
    EXPECT_EQ(s.trueSharing, 0u);
}

TEST(Directory, TrueSharingWhenReaderConsumesWrite)
{
    FakeClient cl;
    Directory d(4, 2048, &cl);
    d.read(0, 0x10000);
    d.write(1, 0x10000 + 5 * 64);
    d.read(0, 0x10000);                 // miss at chunk 0: pending
    d.noteAccess(0, 0x10000 + 5 * 64);  // reads the written chunk
    auto &s = d.finalize();
    EXPECT_EQ(s.trueSharing, 1u);
    EXPECT_EQ(s.falseSharing, 0u);
}

TEST(Directory, TrueSharingImmediateWhenMissChunkWasWritten)
{
    FakeClient cl;
    Directory d(4, 2048, &cl);
    d.read(0, 0x10000 + 5 * 64);
    d.write(1, 0x10000 + 5 * 64);
    d.read(0, 0x10000 + 5 * 64);  // refetches the written chunk itself
    auto &s = d.finalize();
    EXPECT_EQ(s.trueSharing, 1u);
    EXPECT_EQ(s.falseSharing, 0u);
}

TEST(Directory, At64BytesEveryCohMissIsTrueSharing)
{
    // single-chunk blocks cannot exhibit false sharing
    FakeClient cl;
    Directory d(4, 64, &cl);
    for (int round = 0; round < 10; ++round) {
        d.read(0, 0x40);
        d.write(1, 0x40);
        d.read(0, 0x40);
    }
    auto &s = d.finalize();
    EXPECT_EQ(s.falseSharing, 0u);
    EXPECT_EQ(s.trueSharing, s.readCohMisses);
}

TEST(Directory, SecondInvalidationResolvesPendingAsFalse)
{
    FakeClient cl;
    Directory d(4, 2048, &cl);
    d.read(0, 0x10000);
    d.write(1, 0x10000 + 5 * 64);
    d.read(0, 0x10000);            // pending classification
    d.write(1, 0x10000 + 6 * 64);  // invalidates cpu0 again
    EXPECT_EQ(d.stats().falseSharing, 1u);
}

TEST(Directory, RejectsBadConfig)
{
    FakeClient cl;
    EXPECT_THROW(Directory(0, 64, &cl), std::invalid_argument);
    EXPECT_THROW(Directory(17, 64, &cl), std::invalid_argument);
    EXPECT_THROW(Directory(4, 32, &cl), std::invalid_argument);
    EXPECT_THROW(Directory(4, 96, &cl), std::invalid_argument);
    EXPECT_THROW(Directory(4, 16384, &cl), std::invalid_argument);
}

namespace {

/** Reference model of one block's directory state. */
struct RefBlock
{
    uint16_t holders = 0;  //!< nodes holding a copy
    int owner = -1;        //!< node with the modified copy, or -1
    uint16_t hadCopy = 0;  //!< nodes invalidated, not yet refetched
};

/**
 * Drive random reads, writes and evictions over @p nblocks blocks and
 * check every outcome and invalidation against RefBlock. The blocks in
 * play grow from 16 to @p nblocks over the run, so with many blocks
 * the entry table keeps growing while writes invalidate sharers.
 */
void
checkRandomTraffic(uint32_t ncpu, uint32_t block_size, uint64_t nblocks,
                   int steps, uint64_t seed)
{
    FakeClient cl;
    Directory d(ncpu, block_size, &cl);
    stems::trace::Rng rng(seed);
    std::vector<RefBlock> ref(nblocks);
    const uint64_t base = 0x100000;
    const uint64_t chunks = block_size / 64;

    for (int i = 0; i < steps; ++i) {
        const uint32_t cpu = static_cast<uint32_t>(rng.below(ncpu));
        const uint16_t bit = static_cast<uint16_t>(1u << cpu);
        const uint64_t live = std::min<uint64_t>(nblocks, 16 + i / 8);
        const uint64_t blk = rng.below(live);
        const uint64_t addr =
            base + blk * block_size + rng.below(chunks) * 64;
        RefBlock &b = ref[blk];
        const double op = rng.uniform();
        if (op < 0.1) {
            d.evicted(cpu, addr);
            b.holders &= static_cast<uint16_t>(~bit);
            if (b.owner == static_cast<int>(cpu))
                b.owner = -1;
            b.hadCopy &= static_cast<uint16_t>(~bit);
        } else if (op < 0.45) {
            const size_t before = cl.invals.size();
            auto w = d.write(cpu, addr);
            EXPECT_EQ(w.coherenceMiss, (b.hadCopy & bit) != 0) << i;
            b.hadCopy &= static_cast<uint16_t>(~bit);
            uint16_t victims = 0;
            if (b.owner != static_cast<int>(cpu)) {
                EXPECT_EQ(w.remoteTransfer, b.owner >= 0) << i;
                EXPECT_EQ(w.upgrade, (b.holders & bit) != 0) << i;
                victims = b.holders & static_cast<uint16_t>(~bit);
                b.hadCopy |= victims;
                b.holders = bit;
                b.owner = static_cast<int>(cpu);
            }
            // the single writer's copy is the only one left
            ASSERT_EQ(cl.invals.size() - before,
                      static_cast<size_t>(std::popcount(victims)))
                << i;
            for (size_t k = before; k < cl.invals.size(); ++k) {
                EXPECT_TRUE(victims & (1u << cl.invals[k].first)) << i;
                EXPECT_EQ(cl.invals[k].second, base + blk * block_size)
                    << i;
            }
        } else {
            auto r = d.read(cpu, addr);
            EXPECT_EQ(r.coherenceMiss, (b.hadCopy & bit) != 0) << i;
            b.hadCopy &= static_cast<uint16_t>(~bit);
            // a read sources from the modified copy, which downgrades
            const bool remote =
                b.owner >= 0 && b.owner != static_cast<int>(cpu);
            EXPECT_EQ(r.remoteTransfer, remote) << i;
            if (remote)
                b.owner = -1;
            b.holders |= bit;
        }
    }
}

} // anonymous namespace

/**
 * Invariant under random traffic: at most one writer, and a writer
 * excludes other sharers. Every outcome and invalidation is checked
 * against a per-block reference model, on a few hot blocks and on
 * 4096 blocks (128 regions) entered without a size hint.
 */
TEST(Directory, SingleWriterInvariantUnderRandomTraffic)
{
    {
        SCOPED_TRACE("16 blocks of 256 B");
        checkRandomTraffic(8, 256, 16, 5000, 77);
    }
    for (uint32_t bs : {64u, 2048u}) {
        SCOPED_TRACE("4096 blocks of " + std::to_string(bs) + " B");
        checkRandomTraffic(8, bs, 4096, 40000, 78);
    }
}

/**
 * Blocks that share a region share a table slot but nothing else:
 * traffic on the region's last block leaves its first block, and the
 * next region's first block, exactly as they would be without it.
 */
TEST(Directory, RegionNeighboursAreIndependent)
{
    for (uint32_t bs : {64u, 2048u}) {
        SCOPED_TRACE(std::to_string(bs) + " B blocks");
        const uint64_t region = 0x400000;  // region-aligned at both sizes
        const uint64_t first = region;
        const uint64_t last = region + 31 * uint64_t{bs};
        const uint64_t next = region + 32 * uint64_t{bs};

        // outcomes of a fixed script on `first` and `next`, with or
        // without interleaved traffic on `last`
        auto script = [&](bool noisy) {
            FakeClient cl;
            Directory d(4, bs, &cl);
            std::vector<int> out;
            std::vector<uint64_t> invals;
            auto noise = [&](uint32_t cpu) {
                if (!noisy)
                    return;
                d.read(cpu, last);
                d.write((cpu + 1) % 4, last);
                d.evicted((cpu + 2) % 4, last);
                d.noteAccess(cpu, last);
            };
            auto rd = [&](uint32_t cpu, uint64_t a) {
                auto r = d.read(cpu, a);
                out.push_back(r.coherenceMiss * 2 + r.remoteTransfer);
            };
            auto wr = [&](uint32_t cpu, uint64_t a) {
                auto w = d.write(cpu, a);
                out.push_back(w.coherenceMiss * 4 + w.upgrade * 2 +
                              w.remoteTransfer);
            };
            for (uint64_t a : {first, next}) {
                rd(0, a);
                noise(0);
                rd(1, a);
                noise(1);
                wr(2, a);
                noise(2);
                rd(0, a);
                noise(3);
                wr(1, a);
                d.evicted(3, a);
                noise(1);
                d.evicted(2, a);
                wr(2, a);
                noise(0);
                rd(1, a);
            }
            for (const auto &[cpu, a] : cl.invals)
                if (a != last)
                    invals.push_back(a * 16 + cpu);
            return std::make_pair(out, invals);
        };
        EXPECT_EQ(script(true), script(false));

        // evicting an untouched block of a touched region is a no-op
        FakeClient cl;
        Directory d(4, bs, &cl);
        d.read(0, first);
        d.write(1, first);  // cpu0 now awaits a coherence miss
        const DirectoryStats before = d.stats();
        d.evicted(0, last);
        d.evicted(2, last);
        EXPECT_TRUE(d.stats() == before);
        auto r = d.read(0, last);
        EXPECT_FALSE(r.coherenceMiss);
        EXPECT_FALSE(r.remoteTransfer);
        // and leaves its neighbour's pending coherence miss in place
        EXPECT_TRUE(d.read(0, first).coherenceMiss);
        EXPECT_EQ(cl.invals.size(), 1u);
    }
}
