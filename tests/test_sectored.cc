/** @file Logical sectored and decoupled sectored structure tests. */

#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/sectored.hh"
#include "mem/cache.hh"
#include "trace/rng.hh"

using namespace stems::core;

namespace {

class Collector : public GenerationListener
{
  public:
    void
    generationStart(const TriggerInfo &t) override
    {
        starts.push_back(t);
    }

    void
    generationEnd(const TriggerInfo &t, const SpatialPattern &p) override
    {
        ends.emplace_back(t, p);
    }

    std::vector<TriggerInfo> starts;
    std::vector<std::pair<TriggerInfo, SpatialPattern>> ends;
};

} // anonymous namespace

TEST(LogicalSectored, RecordsPatternWithinEntry)
{
    RegionGeometry g;
    LogicalSectoredTags ls(g, SectoredTagConfig{16, 2});
    Collector col;
    ls.setListener(&col);

    ls.onAccess(0x1, 0x10000);
    ls.onAccess(0x2, 0x10000 + 5 * 64);
    ls.drain();
    ASSERT_EQ(col.ends.size(), 1u);
    EXPECT_TRUE(col.ends[0].second.test(0));
    EXPECT_TRUE(col.ends[0].second.test(5));
}

TEST(LogicalSectored, SetConflictFragmentsGeneration)
{
    // 2 sets, 1 way: regions with equal set bit evict each other —
    // exactly the interleaving pathology of Section 4.3
    RegionGeometry g;
    LogicalSectoredTags ls(g, SectoredTagConfig{2, 1});
    Collector col;
    ls.setListener(&col);

    ls.onAccess(0x1, 0x00000);          // region id 0 -> set 0
    ls.onAccess(0x1, 0x00800);          // region id 1 -> set 1
    ls.onAccess(0x1, 0x10000);          // region id 32 -> set 0: evicts
    ASSERT_EQ(col.ends.size(), 1u);
    EXPECT_EQ(col.ends[0].second.count(), 1u);  // fragmented: 1 block
    EXPECT_EQ(col.starts.size(), 3u);
}

TEST(LogicalSectored, TrainsSingleBlockGenerations)
{
    // unlike the AGT, prior-work structures train 1-block patterns,
    // which is part of their extra PHT pressure (Figure 9)
    RegionGeometry g;
    LogicalSectoredTags ls(g, SectoredTagConfig{2, 1});
    Collector col;
    ls.setListener(&col);
    ls.onAccess(0x1, 0x00000);
    ls.drain();
    ASSERT_EQ(col.ends.size(), 1u);
    EXPECT_EQ(col.ends[0].second.count(), 1u);
}

TEST(LogicalSectored, IgnoresRealEvictionsReactsToInvalidations)
{
    RegionGeometry g;
    LogicalSectoredTags ls(g, SectoredTagConfig{16, 2});
    Collector col;
    ls.setListener(&col);

    ls.onAccess(0x1, 0x10000);
    ls.onBlockRemoved(0x10000, false);  // cache eviction: invisible
    EXPECT_TRUE(col.ends.empty());
    ls.onBlockRemoved(0x10000, true);   // invalidation: ends it
    ASSERT_EQ(col.ends.size(), 1u);
}

TEST(LogicalSectored, InvalidationOfUntouchedBlockIgnored)
{
    RegionGeometry g;
    LogicalSectoredTags ls(g, SectoredTagConfig{16, 2});
    Collector col;
    ls.setListener(&col);
    ls.onAccess(0x1, 0x10000);
    ls.onBlockRemoved(0x10000 + 9 * 64, true);
    EXPECT_TRUE(col.ends.empty());
}

TEST(DecoupledSectored, HitsAndMisses)
{
    DsConfig cfg;
    DecoupledSectoredCache ds(cfg);
    EXPECT_FALSE(ds.access(0x1, 0x10000, false).hit);
    EXPECT_TRUE(ds.access(0x1, 0x10000, false).hit);
    EXPECT_TRUE(ds.access(0x1, 0x10020, false).hit);   // same block
    EXPECT_FALSE(ds.access(0x1, 0x10040, false).hit);  // same sector
    EXPECT_EQ(ds.stats().misses, 2u);
}

TEST(DecoupledSectored, SectorEvictionDropsAllItsBlocks)
{
    // tiny DS: 4 kB data, 2 kB sectors, 2-way data, 1 sector set
    DsConfig cfg;
    cfg.dataBytes = 4096;
    cfg.dataAssoc = 2;
    cfg.sectorSize = 2048;
    cfg.tagMult = 1;  // 2 sector entries total, 1 set
    DecoupledSectoredCache ds(cfg);
    Collector col;
    ds.setListener(&col);

    ds.access(0x1, 0x00000, false);
    ds.access(0x1, 0x00040, false);
    ds.access(0x1, 0x00800, false);  // second sector
    ds.access(0x1, 0x10000, false);  // third: evicts LRU sector 0
    ASSERT_GE(col.ends.size(), 1u);
    EXPECT_EQ(col.ends[0].second.count(), 2u);
    // the evicted sector's blocks are gone
    EXPECT_FALSE(ds.access(0x1, 0x00000, false).hit);
}

TEST(DecoupledSectored, PrefetchNeedsResidentSector)
{
    DsConfig cfg;
    DecoupledSectoredCache ds(cfg);
    EXPECT_FALSE(ds.fillPrefetch(0x20000 + 64));  // sector not present
    ds.access(0x1, 0x20000, false);               // allocates sector
    EXPECT_TRUE(ds.fillPrefetch(0x20000 + 64));
    auto r = ds.access(0x1, 0x20000 + 64, false);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.prefetchHit);
    EXPECT_EQ(ds.stats().prefetchHits, 1u);
}

TEST(DecoupledSectored, InvalidationOfAccessedBlockEndsSector)
{
    DsConfig cfg;
    DecoupledSectoredCache ds(cfg);
    Collector col;
    ds.setListener(&col);

    ds.access(0x1, 0x30000, false);
    ds.access(0x1, 0x30040, false);
    ds.invalidateBlock(0x30000);
    ASSERT_EQ(col.ends.size(), 1u);
    EXPECT_EQ(col.ends[0].second.count(), 2u);
    EXPECT_FALSE(ds.access(0x1, 0x30040, false).hit);
}

TEST(DecoupledSectored, TriggerEventCarriesPcAndOffset)
{
    DsConfig cfg;
    DecoupledSectoredCache ds(cfg);
    Collector col;
    ds.setListener(&col);
    ds.access(0xBEEF, 0x40000 + 7 * 64, false);
    ASSERT_EQ(col.starts.size(), 1u);
    EXPECT_EQ(col.starts[0].pc, 0xBEEFu);
    EXPECT_EQ(col.starts[0].offset, 7u);
}

TEST(DecoupledSectored, MoreConflictMissesThanTraditionalShape)
{
    // interleaved sparse regions: DS pays sector conflicts that a
    // traditional cache of equal capacity does not (Figure 8's story)
    DsConfig cfg;
    cfg.dataBytes = 16 * 1024;
    cfg.tagMult = 2;
    DecoupledSectoredCache ds(cfg);

    // touch one block in each of 64 regions, twice around
    uint64_t misses_round2 = 0;
    for (int round = 0; round < 2; ++round) {
        for (uint64_t r = 0; r < 64; ++r) {
            bool hit = ds.access(0x1, r * 2048, false).hit;
            if (round == 1 && !hit)
                ++misses_round2;
        }
    }
    // 64 single-block regions fit 16 kB of data capacity easily, but
    // the sector tag array cannot hold 64 sectors
    EXPECT_GT(misses_round2, 0u);
}

TEST(DecoupledSectored, DataArrayMatchesCacheModel)
{
    // DS's data array beside a plain cache of its data geometry: 8 kB
    // 2-way data under 2 sector sets of 8 tags, so resident sectors
    // span four times the data capacity and both data-array victims
    // and sector conflicts drop blocks often. The mirror drops a
    // region's blocks when its generation ends and refuses a prefetch
    // fill whose sector is not resident, as DS does; the two must
    // agree on every outcome.
    DsConfig cfg;
    cfg.dataBytes = 8192;
    cfg.dataAssoc = 2;
    cfg.tagMult = 4;
    DecoupledSectoredCache ds(cfg);
    stems::mem::Cache mirror({cfg.dataBytes, cfg.dataAssoc, cfg.blockSize});
    const RegionGeometry &geom = ds.geometry();

    struct Mirror : GenerationListener
    {
        void
        generationStart(const TriggerInfo &t) override
        {
            resident.insert(t.regionBase);
        }

        void
        generationEnd(const TriggerInfo &t, const SpatialPattern &) override
        {
            resident.erase(t.regionBase);
            ++ends;
            for (uint32_t off = 0; off < geom->blocksPerRegion(); ++off)
                cache->invalidate(geom->blockAddr(t.regionBase, off));
        }

        stems::mem::Cache *cache = nullptr;
        const RegionGeometry *geom = nullptr;
        std::set<uint64_t> resident;
        uint64_t ends = 0;
    } listener;
    listener.cache = &mirror;
    listener.geom = &geom;
    ds.setListener(&listener);

    stems::trace::Rng rng(29);
    for (int step = 0; step < 20000; ++step) {
        const uint64_t addr = 0x100000 +
            rng.below(24) * geom.regionSize() +
            rng.below(geom.blocksPerRegion()) * geom.blockSize() +
            rng.below(8) * 8;
        const uint64_t op = rng.below(8);
        std::string why;
        if (op < 5) {
            const bool is_write = op == 4;
            const stems::mem::AccessResult got =
                ds.access(0x400000 + rng.below(8) * 4, addr, is_write);
            const stems::mem::AccessResult want =
                mirror.access(addr, is_write);
            if (got.hit != want.hit || got.prefetchHit != want.prefetchHit)
                why = "access outcome";
        } else if (op < 7) {
            const bool resident =
                listener.resident.count(geom.regionBase(addr)) != 0;
            const bool got = ds.fillPrefetch(addr);
            const bool want = resident && mirror.fillPrefetch(addr);
            if (got != want)
                why = "prefetch fill";
        } else {
            mirror.invalidate(addr);
            ds.invalidateBlock(addr);
        }
        ASSERT_TRUE(why.empty()) << why << " differs at step " << step;
    }
    EXPECT_GT(listener.ends, 1000u);
    EXPECT_GT(ds.stats().prefetchUnused, 0u);
    EXPECT_EQ(ds.stats().readMisses, mirror.stats().readMisses);
    EXPECT_EQ(ds.stats().prefetchUnused, mirror.stats().prefetchUnused);
}

TEST(DecoupledSectored, ZeroTagMultiplierIsRejected)
{
    // no sector tags at all would leave every allocation without a way
    DsConfig cfg;
    cfg.tagMult = 0;
    EXPECT_THROW(DecoupledSectoredCache ds(cfg), std::invalid_argument);
}
