/** @file Active Generation Table behaviour tests (Section 3.1). */

#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "core/agt.hh"
#include "trace/rng.hh"

using namespace stems::core;

namespace {

/** Collects generation events. */
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

constexpr uint64_t kRegion = 0x10000;  // 2 kB aligned

} // anonymous namespace

TEST(Agt, TriggerAllocatesInFilterAndFiresStart)
{
    RegionGeometry g;
    ActiveGenerationTable agt(g, AgtConfig{32, 64});
    Collector col;
    agt.setListener(&col);

    agt.onAccess(0x400100, kRegion + 3 * 64);
    EXPECT_EQ(agt.filterOccupancy(), 1u);
    EXPECT_EQ(agt.accumOccupancy(), 0u);
    ASSERT_EQ(col.starts.size(), 1u);
    EXPECT_EQ(col.starts[0].pc, 0x400100u);
    EXPECT_EQ(col.starts[0].offset, 3u);
    EXPECT_EQ(col.starts[0].regionBase, kRegion);
}

TEST(Agt, SecondDistinctBlockPromotes)
{
    RegionGeometry g;
    ActiveGenerationTable agt(g, AgtConfig{32, 64});
    Collector col;
    agt.setListener(&col);

    agt.onAccess(0x400100, kRegion + 3 * 64);  // trigger (Figure 2)
    agt.onAccess(0x400104, kRegion + 2 * 64);  // promotes
    EXPECT_EQ(agt.filterOccupancy(), 0u);
    EXPECT_EQ(agt.accumOccupancy(), 1u);
    EXPECT_EQ(agt.stats().promotions, 1u);
    // only one generation started (promotion is not a new trigger)
    EXPECT_EQ(col.starts.size(), 1u);
}

TEST(Agt, ReaccessingTriggerBlockStaysInFilter)
{
    RegionGeometry g;
    ActiveGenerationTable agt(g, AgtConfig{32, 64});
    agt.onAccess(0x1, kRegion + 3 * 64);
    agt.onAccess(0x1, kRegion + 3 * 64 + 8);  // same block, other word
    EXPECT_EQ(agt.filterOccupancy(), 1u);
    EXPECT_EQ(agt.accumOccupancy(), 0u);
}

TEST(Agt, EvictionEndsGenerationWithFigure2Pattern)
{
    RegionGeometry g;
    ActiveGenerationTable agt(g, AgtConfig{32, 64});
    Collector col;
    agt.setListener(&col);

    // the exact sequence of Figure 2: A+3, A+2, A+0, evict A+2
    agt.onAccess(0x1, kRegion + 3 * 64);
    agt.onAccess(0x2, kRegion + 2 * 64);
    agt.onAccess(0x3, kRegion + 0 * 64);
    agt.onBlockRemoved(kRegion + 2 * 64, false);

    ASSERT_EQ(col.ends.size(), 1u);
    const SpatialPattern &p = col.ends[0].second;
    EXPECT_TRUE(p.test(0));
    EXPECT_FALSE(p.test(1));
    EXPECT_TRUE(p.test(2));
    EXPECT_TRUE(p.test(3));
    EXPECT_EQ(p.count(), 3u);
    EXPECT_EQ(agt.accumOccupancy(), 0u);
    EXPECT_EQ(agt.stats().generationsTrained, 1u);
}

TEST(Agt, FilterOnlyGenerationDiscardedSilently)
{
    RegionGeometry g;
    ActiveGenerationTable agt(g, AgtConfig{32, 64});
    Collector col;
    agt.setListener(&col);

    agt.onAccess(0x1, kRegion);
    agt.onBlockRemoved(kRegion, true);
    EXPECT_TRUE(col.ends.empty());  // single-access: nothing to train
    EXPECT_EQ(agt.stats().filterDiscards, 1u);
    EXPECT_EQ(agt.filterOccupancy(), 0u);
}

TEST(Agt, NextAccessAfterEndIsNewTrigger)
{
    RegionGeometry g;
    ActiveGenerationTable agt(g, AgtConfig{32, 64});
    Collector col;
    agt.setListener(&col);

    agt.onAccess(0x1, kRegion);
    agt.onAccess(0x2, kRegion + 64);
    agt.onBlockRemoved(kRegion, false);
    agt.onAccess(0x3, kRegion + 5 * 64);
    EXPECT_EQ(col.starts.size(), 2u);
    EXPECT_EQ(col.starts[1].offset, 5u);
    EXPECT_EQ(agt.stats().generationsStarted, 2u);
}

TEST(Agt, IndependentRegionsInterleaveWithoutConflict)
{
    // the decoupled AGT's whole point: interleaved regions coexist
    RegionGeometry g;
    ActiveGenerationTable agt(g, AgtConfig{32, 64});
    Collector col;
    agt.setListener(&col);

    for (uint32_t r = 0; r < 16; ++r) {
        agt.onAccess(0x1, kRegion + r * 2048);
        agt.onAccess(0x2, kRegion + r * 2048 + 64);
    }
    EXPECT_EQ(agt.accumOccupancy(), 16u);
    for (uint32_t r = 0; r < 16; ++r)
        agt.onBlockRemoved(kRegion + r * 2048, false);
    EXPECT_EQ(col.ends.size(), 16u);
    for (auto &[t, p] : col.ends)
        EXPECT_EQ(p.count(), 2u);
}

TEST(Agt, FilterCapacityDropsLruVictimSilently)
{
    RegionGeometry g;
    ActiveGenerationTable agt(g, AgtConfig{2, 4});
    Collector col;
    agt.setListener(&col);

    agt.onAccess(0x1, 0 * 2048);
    agt.onAccess(0x1, 1 * 2048);
    agt.onAccess(0x1, 2 * 2048);  // victimizes region 0 (LRU)
    EXPECT_EQ(agt.filterOccupancy(), 2u);
    EXPECT_EQ(agt.stats().filterVictims, 1u);
    EXPECT_TRUE(col.ends.empty());
    // region 0 re-access is a fresh trigger now
    agt.onAccess(0x1, 0);
    EXPECT_EQ(agt.stats().generationsStarted, 4u);
}

TEST(Agt, AccumCapacityTrainsVictim)
{
    RegionGeometry g;
    ActiveGenerationTable agt(g, AgtConfig{4, 2});
    Collector col;
    agt.setListener(&col);

    for (uint32_t r = 0; r < 3; ++r) {
        agt.onAccess(0x1, r * 2048);
        agt.onAccess(0x2, r * 2048 + 64);
    }
    EXPECT_EQ(agt.accumOccupancy(), 2u);
    EXPECT_EQ(agt.stats().accumVictims, 1u);
    ASSERT_EQ(col.ends.size(), 1u);
    EXPECT_EQ(col.ends[0].first.regionBase, 0u);  // LRU victim
}

TEST(Agt, UnboundedModeNeverVictimizes)
{
    RegionGeometry g;
    ActiveGenerationTable agt(g, AgtConfig{0, 0});
    for (uint32_t r = 0; r < 1000; ++r) {
        agt.onAccess(0x1, uint64_t{r} * 2048);
        agt.onAccess(0x2, uint64_t{r} * 2048 + 64);
    }
    EXPECT_EQ(agt.accumOccupancy(), 1000u);
    EXPECT_EQ(agt.stats().filterVictims, 0u);
    EXPECT_EQ(agt.stats().accumVictims, 0u);
}

TEST(Agt, DrainTrainsLiveAccumEntries)
{
    RegionGeometry g;
    ActiveGenerationTable agt(g, AgtConfig{32, 64});
    Collector col;
    agt.setListener(&col);

    agt.onAccess(0x1, kRegion);
    agt.onAccess(0x2, kRegion + 64);
    agt.onAccess(0x1, kRegion + 4096);  // filter-only
    agt.drain();
    EXPECT_EQ(col.ends.size(), 1u);
    EXPECT_EQ(agt.filterOccupancy(), 0u);
    EXPECT_EQ(agt.accumOccupancy(), 0u);
}

TEST(Agt, RemovalOfUntouchedBlockInActiveRegionEndsByTagMatch)
{
    // hardware searches by region tag: any block of the region ends it
    RegionGeometry g;
    ActiveGenerationTable agt(g, AgtConfig{32, 64});
    Collector col;
    agt.setListener(&col);

    agt.onAccess(0x1, kRegion);
    agt.onAccess(0x2, kRegion + 64);
    agt.onBlockRemoved(kRegion + 31 * 64, false);  // never accessed
    EXPECT_EQ(col.ends.size(), 1u);
}

TEST(Agt, PeakOccupancyTracked)
{
    RegionGeometry g;
    ActiveGenerationTable agt(g, AgtConfig{8, 8});
    for (uint32_t r = 0; r < 4; ++r)
        agt.onAccess(0x1, r * 2048);
    EXPECT_EQ(agt.stats().peakFilterOccupancy, 4u);
}

TEST(AgtCam, VictimOrderEqualsMinStampOrderAtEveryCapacity)
{
    // the LRU list against the stamp scan it replaced, at capacities
    // the paper defaults never reach: one way, and one past each
    // bitmask word
    for (uint32_t cap : {1u, 2u, 63u, 64u, 65u, 130u}) {
        AgtCam<int> cam(cap);
        struct Way
        {
            uint64_t rid, stamp;
        };
        std::vector<std::optional<Way>> model(cap);
        uint64_t tick = 0;
        stems::trace::Rng rng(cap);
        auto valid = [&] {
            std::vector<uint32_t> v;
            for (uint32_t w = 0; w < cap; ++w)
                if (model[w])
                    v.push_back(w);
            return v;
        };
        for (int step = 0; step < 20000; ++step) {
            ++tick;
            const std::vector<uint32_t> live = valid();
            const uint64_t op = rng.below(8);
            if (live.size() < cap && (live.empty() || op < 4)) {
                uint64_t rid;
                do {
                    rid = rng.below(4 * uint64_t{cap} + 8);
                } while (cam.find(rid, regionHash(rid)) !=
                         AgtCam<int>::kNone);
                uint32_t lowest = 0;
                while (model[lowest])
                    ++lowest;
                ASSERT_EQ(cam.insert(rid, regionHash(rid)), lowest)
                    << "capacity " << cap << " step " << step;
                model[lowest] = Way{rid, tick};
            } else if (op < 6) {
                const uint32_t w = live[rng.below(live.size())];
                cam.touch(w);
                model[w]->stamp = tick;
            } else {
                // erase the victim or any other way
                const uint32_t w = op == 6 ? cam.lruWay()
                                           : live[rng.below(live.size())];
                cam.erase(w);
                model[w].reset();
            }

            const std::vector<uint32_t> now = valid();
            ASSERT_EQ(cam.size(), now.size());
            if (now.empty())
                continue;
            uint32_t oldest = now[0];
            for (uint32_t w : now)
                if (model[w]->stamp < model[oldest]->stamp)
                    oldest = w;
            ASSERT_EQ(cam.lruWay(), oldest)
                << "capacity " << cap << " step " << step;
            ASSERT_EQ(cam.firstValid(), now[0]);
            for (uint32_t w : now)
                ASSERT_EQ(cam.find(model[w]->rid,
                                   regionHash(model[w]->rid)), w);
        }
    }
}

TEST(AgtCam, EraseInsideWrappingProbeChainKeepsOthersFindable)
{
    // capacity 8 indexes 16 slots by the hash's top four bits: pick
    // regions that all hash to slots 14 and 15, so their probe chain
    // runs past the index end into slots 0, 1 and 2
    constexpr uint32_t kCap = 8;
    auto home = [](uint64_t rid) { return regionHash(rid) >> 60; };
    std::vector<uint64_t> chain;
    for (uint64_t rid = 1; chain.size() < 5; ++rid)
        if (home(rid) >= 14)
            chain.push_back(rid);

    // erase each chain member in turn from a fresh table
    for (size_t victim = 0; victim < chain.size(); ++victim) {
        AgtCam<int> cam(kCap);
        std::vector<uint32_t> way;
        for (uint64_t rid : chain)
            way.push_back(cam.insert(rid, regionHash(rid)));
        cam.erase(way[victim]);
        for (size_t i = 0; i < chain.size(); ++i) {
            const uint32_t want = i == victim ? AgtCam<int>::kNone : way[i];
            EXPECT_EQ(cam.find(chain[i], regionHash(chain[i])), want)
                << "erased chain member " << victim << ", probed " << i;
        }
        // the freed way is reused and the rest of the chain survives
        EXPECT_EQ(cam.insert(chain[victim], regionHash(chain[victim])),
                  way[victim]);
        for (size_t i = 0; i < chain.size(); ++i)
            EXPECT_EQ(cam.find(chain[i], regionHash(chain[i])), way[i]);
    }
}

TEST(AgtCam, GrowKeepsEveryEntryAndItsOrder)
{
    // a capacity-0 table against the stamp model, inserting more than
    // it erases so it doubles from kInitialWays several times; every
    // entry must keep its way, its payload and its place in LRU order
    AgtCam<int> cam(0);
    struct Way
    {
        uint64_t rid, stamp;
    };
    std::vector<std::optional<Way>> model;
    uint64_t tick = 0;
    stems::trace::Rng rng(29);
    std::vector<uint32_t> live;
    for (int step = 0; step < 8000; ++step) {
        ++tick;
        const uint64_t op = rng.below(10);
        if (live.empty() || op < 6) {
            ASSERT_FALSE(cam.full());
            uint64_t rid;
            do {
                rid = rng.below(uint64_t{1} << 20);
            } while (cam.find(rid, regionHash(rid)) != AgtCam<int>::kNone);
            uint32_t lowest = 0;
            while (lowest < model.size() && model[lowest])
                ++lowest;
            ASSERT_EQ(cam.insert(rid, regionHash(rid)), lowest)
                << "step " << step;
            cam.payload(lowest) = static_cast<int>(rid);
            if (lowest == model.size())
                model.emplace_back();
            model[lowest] = Way{rid, tick};
        } else if (op < 8) {
            const uint32_t w = live[rng.below(live.size())];
            cam.touch(w);
            model[w]->stamp = tick;
        } else {
            const uint32_t w = op == 8 ? cam.lruWay()
                                       : live[rng.below(live.size())];
            cam.erase(w);
            model[w].reset();
        }

        live.clear();
        for (uint32_t w = 0; w < model.size(); ++w)
            if (model[w])
                live.push_back(w);
        ASSERT_EQ(cam.size(), live.size());
        if (live.empty())
            continue;
        uint32_t oldest = live[0];
        for (uint32_t w : live)
            if (model[w]->stamp < model[oldest]->stamp)
                oldest = w;
        ASSERT_EQ(cam.lruWay(), oldest) << "step " << step;
        ASSERT_EQ(cam.firstValid(), live[0]) << "step " << step;
        for (uint32_t w : live) {
            ASSERT_EQ(cam.find(model[w]->rid, regionHash(model[w]->rid)), w)
                << "step " << step;
            ASSERT_EQ(cam.payload(w), static_cast<int>(model[w]->rid));
        }
    }
    // it grew past several doublings of its initial ways
    EXPECT_GT(model.size(), 8u * AgtCam<int>::kInitialWays);
}
