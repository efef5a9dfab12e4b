/** @file Unit + property tests for the set-associative cache model. */

#include <gtest/gtest.h>

#include <algorithm>
#include <unordered_set>
#include <vector>

#include "mem/cache.hh"
#include "trace/rng.hh"

using namespace stems::mem;

namespace {

CacheConfig
smallCache(uint32_t assoc = 2, uint32_t block = 64, uint64_t size = 1024)
{
    return CacheConfig{size, assoc, block};
}

/** Records every departure for verification. */
class Recorder : public CacheListener
{
  public:
    struct Event
    {
        uint64_t addr;
        bool dirty;
        bool prefetch;
        bool invalidation;
    };

    void
    evicted(uint64_t addr, bool dirty, bool pf) override
    {
        events.push_back({addr, dirty, pf, false});
    }

    void
    invalidated(uint64_t addr, bool pf) override
    {
        events.push_back({addr, false, pf, true});
    }

    std::vector<Event> events;
};

} // anonymous namespace

TEST(Cache, RejectsBadGeometry)
{
    EXPECT_THROW(Cache(CacheConfig{1024, 2, 48}), std::invalid_argument);
    EXPECT_THROW(Cache(CacheConfig{1000, 2, 64}), std::invalid_argument);
    EXPECT_THROW(Cache(CacheConfig{1024, 0, 64}), std::invalid_argument);
    // wider than the in-frame LRU rank field can order
    const uint32_t wide = Cache::kMaxAssoc * 2;
    EXPECT_THROW(Cache(CacheConfig{uint64_t{wide} * 64, wide, 64}),
                 std::invalid_argument);
}

TEST(Cache, ColdMissThenHit)
{
    Cache c(smallCache());
    EXPECT_FALSE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x100, false).hit);
    EXPECT_TRUE(c.access(0x13F, false).hit);   // same 64 B block
    EXPECT_FALSE(c.access(0x140, false).hit);  // next block
    EXPECT_EQ(c.stats().misses, 2u);
    EXPECT_EQ(c.stats().hits, 2u);
}

TEST(Cache, ReadWriteMissSplit)
{
    Cache c(smallCache());
    c.access(0x0, false);
    c.access(0x1000, true);
    EXPECT_EQ(c.stats().readMisses, 1u);
    EXPECT_EQ(c.stats().writeMisses, 1u);
    EXPECT_EQ(c.stats().readAccesses, 1u);
}

TEST(Cache, ConflictEvictsLruWay)
{
    // 1 kB, 2-way, 64 B blocks -> 8 sets; set stride = 512 B
    Cache c(smallCache());
    c.access(0x0000, false);
    c.access(0x0200, false);  // same set, second way
    c.access(0x0000, false);  // touch way 0 -> way with 0x200 is LRU
    c.access(0x0400, false);  // evicts 0x200
    EXPECT_TRUE(c.contains(0x0000));
    EXPECT_FALSE(c.contains(0x0200));
    EXPECT_TRUE(c.contains(0x0400));
    EXPECT_EQ(c.stats().evictions, 1u);
}

// LRU victims, observed through the eviction stream

TEST(Lru, VictimIsLeastRecentlyTouched)
{
    Cache c(smallCache(4, 64, 256));  // one set of 4 ways
    Recorder rec;
    c.setListener(&rec);
    for (uint64_t b = 0; b < 4; ++b)
        c.access(b * 64, false);
    c.access(4 * 64, false);
    ASSERT_EQ(rec.events.size(), 1u);
    EXPECT_EQ(rec.events[0].addr, 0u);
    c.access(1 * 64, false);  // block 1 becomes MRU
    c.access(5 * 64, false);
    ASSERT_EQ(rec.events.size(), 2u);
    EXPECT_EQ(rec.events[1].addr, 2u * 64);
}

TEST(Lru, SetsAreIndependent)
{
    Cache c(smallCache(2, 64, 256));  // 2 sets of 2 ways; stride 128 B
    Recorder rec;
    c.setListener(&rec);
    c.access(0x000, false);  // set 0: 0x000 then 0x080
    c.access(0x080, false);
    c.access(0x0c0, false);  // set 1: 0x0c0 then 0x040
    c.access(0x040, false);
    c.access(0x100, false);  // set 0 evicts its LRU, 0x000
    c.access(0x140, false);  // set 1 evicts its LRU, 0x0c0
    ASSERT_EQ(rec.events.size(), 2u);
    EXPECT_EQ(rec.events[0].addr, 0x000u);
    EXPECT_EQ(rec.events[1].addr, 0x0c0u);
}

TEST(Lru, RetouchingMovesToMru)
{
    Cache c(smallCache(3, 64, 192));  // one set of 3 ways
    Recorder rec;
    c.setListener(&rec);
    c.access(0x00, false);
    c.access(0x40, false);
    c.access(0x80, false);
    c.access(0x00, false);  // block 0 becomes MRU
    c.access(0xc0, false);
    ASSERT_EQ(rec.events.size(), 1u);
    EXPECT_EQ(rec.events[0].addr, 0x40u);
}

TEST(Cache, DirtyEvictionWritesBack)
{
    Cache c(smallCache());
    Recorder rec;
    c.setListener(&rec);
    c.access(0x0000, true);   // dirty
    c.access(0x0200, false);
    c.access(0x0400, false);  // evicts dirty 0x0000
    EXPECT_EQ(c.stats().writebacks, 1u);
    ASSERT_EQ(rec.events.size(), 1u);
    EXPECT_EQ(rec.events[0].addr, 0x0000u);
    EXPECT_TRUE(rec.events[0].dirty);
    EXPECT_FALSE(rec.events[0].invalidation);
}

TEST(Cache, CleanEvictionAlsoNotifies)
{
    // the AGT must see clean evictions too (Section 3.1)
    Cache c(smallCache());
    Recorder rec;
    c.setListener(&rec);
    c.access(0x0000, false);
    c.access(0x0200, false);
    c.access(0x0400, false);
    ASSERT_EQ(rec.events.size(), 1u);
    EXPECT_FALSE(rec.events[0].dirty);
}

TEST(Cache, InvalidateRemovesAndNotifies)
{
    Cache c(smallCache());
    Recorder rec;
    c.setListener(&rec);
    c.access(0x80, false);
    EXPECT_TRUE(c.invalidate(0x80));
    EXPECT_FALSE(c.contains(0x80));
    EXPECT_FALSE(c.invalidate(0x80));  // second time: not present
    ASSERT_EQ(rec.events.size(), 1u);
    EXPECT_TRUE(rec.events[0].invalidation);
    EXPECT_EQ(c.stats().invalidations, 1u);
}

TEST(Cache, PrefetchFillAndDemandHit)
{
    Cache c(smallCache());
    EXPECT_TRUE(c.fillPrefetch(0x300));
    EXPECT_FALSE(c.fillPrefetch(0x300));  // already present
    EXPECT_TRUE(c.isPrefetched(0x300));

    AccessResult r = c.access(0x300, false);
    EXPECT_TRUE(r.hit);
    EXPECT_TRUE(r.prefetchHit);
    EXPECT_FALSE(c.isPrefetched(0x300));  // bit cleared on first use

    r = c.access(0x300, false);
    EXPECT_FALSE(r.prefetchHit);  // only the first use counts
    EXPECT_EQ(c.stats().prefetchHits, 1u);
}

TEST(Cache, UnusedPrefetchCountsOnEviction)
{
    Cache c(smallCache());
    c.fillPrefetch(0x0000);
    c.access(0x0200, false);
    c.access(0x0400, false);  // evicts the unused prefetch (LRU)
    EXPECT_EQ(c.stats().prefetchUnused, 1u);
}

TEST(Cache, UnusedPrefetchCountsOnInvalidation)
{
    Cache c(smallCache());
    c.fillPrefetch(0x0000);
    c.invalidate(0x0000);
    EXPECT_EQ(c.stats().prefetchUnused, 1u);
}

TEST(Cache, ClearPrefetchMarksUseful)
{
    Cache c(smallCache());
    c.fillPrefetch(0x100);
    EXPECT_TRUE(c.clearPrefetch(0x100));
    EXPECT_FALSE(c.clearPrefetch(0x100));
    c.invalidate(0x100);
    EXPECT_EQ(c.stats().prefetchUnused, 0u);
    EXPECT_EQ(c.stats().prefetchHits, 1u);
}

TEST(Cache, FillRespectsDirtyFlag)
{
    Cache c(smallCache());
    EXPECT_TRUE(c.fill(0x40, true));
    Recorder rec;
    c.setListener(&rec);
    c.invalidate(0x40);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

TEST(Cache, FlushDropsEverythingSilently)
{
    Cache c(smallCache());
    Recorder rec;
    c.setListener(&rec);
    c.access(0x0, false);
    c.access(0x40, false);
    c.flush();
    EXPECT_FALSE(c.contains(0x0));
    EXPECT_TRUE(rec.events.empty());
}

TEST(Cache, BlockBaseAlignment)
{
    Cache c(smallCache(2, 128, 2048));
    EXPECT_EQ(c.blockBase(0x17F), 0x100u);
    EXPECT_EQ(c.numSets(), 8u);
    EXPECT_EQ(c.blockSize(), 128u);
}

TEST(Cache, WriteHitSetsDirty)
{
    Cache c(smallCache());
    c.access(0x0, false);
    c.access(0x0, true);  // write hit dirties the block
    Recorder rec;
    c.setListener(&rec);
    c.invalidate(0x0);
    EXPECT_EQ(c.stats().writebacks, 1u);
}

// ---------------------------------------------------------------------
// Parameterized property test: the cache agrees with a fully
// associative reference model on hit/miss *content* across random
// traces, for several geometries (contents may differ transiently with
// limited associativity, but a direct check holds at assoc >= sets*ways
// when the reference uses the same LRU per set).
// ---------------------------------------------------------------------

struct Geometry
{
    uint64_t size;
    uint32_t assoc;
    uint32_t block;
};

class CacheGeometry : public ::testing::TestWithParam<Geometry>
{};

TEST_P(CacheGeometry, MatchesReferenceModel)
{
    const Geometry g = GetParam();
    Cache c(CacheConfig{g.size, g.assoc, g.block});

    // reference: per-set LRU lists
    const uint32_t sets = static_cast<uint32_t>(
        g.size / (uint64_t{g.block} * g.assoc));
    std::vector<std::vector<uint64_t>> ref(sets);  // MRU at back

    // at least twice the ways per set, so the widest sets evict too
    const uint64_t span =
        std::max<uint64_t>(64, 2 * g.assoc) * g.block * sets;
    stems::trace::Rng rng(g.size ^ g.assoc ^ g.block);
    for (int i = 0; i < 20000; ++i) {
        uint64_t addr = rng.below(span);
        uint64_t blk = addr / g.block;
        uint32_t set = static_cast<uint32_t>(blk % sets);

        auto &l = ref[set];
        bool ref_hit = false;
        for (size_t k = 0; k < l.size(); ++k) {
            if (l[k] == blk) {
                l.erase(l.begin() + k);
                l.push_back(blk);
                ref_hit = true;
                break;
            }
        }
        if (!ref_hit) {
            if (l.size() == g.assoc)
                l.erase(l.begin());
            l.push_back(blk);
        }

        bool hit = c.access(addr, false).hit;
        ASSERT_EQ(hit, ref_hit)
            << "divergence at step " << i << " addr " << std::hex << addr;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, CacheGeometry,
    ::testing::Values(Geometry{1024, 1, 64}, Geometry{1024, 2, 64},
                      Geometry{2048, 4, 64}, Geometry{4096, 2, 128},
                      Geometry{8192, 8, 64}, Geometry{16384, 2, 512},
                      Geometry{8192, 32, 64},    // 4 sets of 32 ways
                      Geometry{4096, 64, 64}));  // fully associative
