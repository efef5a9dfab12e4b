/**
 * @file
 * Unit tests for util::FlatMap (the open-addressing table behind the
 * hot-path hardware structures) and the fixed-capacity ring/heap used
 * by the timing model: growth across rehashes, tombstone reuse,
 * erase-during-iteration, and randomized equivalence against
 * std::unordered_map as the reference semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <unordered_map>
#include <vector>

#include "trace/rng.hh"
#include "util/flat_map.hh"
#include "util/ring.hh"

using stems::util::FixedMinHeap;
using stems::util::FixedRing;
using stems::util::FlatMap;

TEST(FlatMap, InsertFindErase)
{
    FlatMap<uint64_t, int> m;
    EXPECT_TRUE(m.empty());
    EXPECT_EQ(m.find(0), m.end());

    m[7] = 70;
    m[0] = 1;  // key 0 must be an ordinary key, not a sentinel
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(m.at(7), 70);
    EXPECT_EQ(m.at(0), 1);
    EXPECT_TRUE(m.contains(7));
    EXPECT_EQ(m.count(42), 0u);

    m[7] = 71;  // overwrite, not duplicate
    EXPECT_EQ(m.size(), 2u);
    EXPECT_EQ(m.at(7), 71);

    EXPECT_EQ(m.erase(7), 1u);
    EXPECT_EQ(m.erase(7), 0u);
    EXPECT_EQ(m.size(), 1u);
    EXPECT_EQ(m.find(7), m.end());
    EXPECT_EQ(m.at(0), 1);
}

TEST(FlatMap, TryEmplaceSemantics)
{
    FlatMap<uint64_t, std::vector<int>> m;
    auto [it1, fresh1] = m.try_emplace(5, 3, 9);  // vector(3, 9)
    EXPECT_TRUE(fresh1);
    EXPECT_EQ(it1->second, std::vector<int>({9, 9, 9}));

    auto [it2, fresh2] = m.try_emplace(5, 1, 1);
    EXPECT_FALSE(fresh2);  // existing entry untouched
    EXPECT_EQ(it2->second, std::vector<int>({9, 9, 9}));
    it2->second.push_back(4);
    EXPECT_EQ(m.at(5).size(), 4u);
}

TEST(FlatMap, GrowsAcrossRehashes)
{
    FlatMap<uint64_t, uint64_t> m;
    const uint64_t n = 10000;
    for (uint64_t k = 0; k < n; ++k)
        m[k * 2654435761ULL] = k;
    EXPECT_EQ(m.size(), n);
    for (uint64_t k = 0; k < n; ++k) {
        auto it = m.find(k * 2654435761ULL);
        ASSERT_NE(it, m.end()) << k;
        EXPECT_EQ(it->second, k);
    }
    EXPECT_GE(m.capacity(), n);  // power-of-two growth happened
}

TEST(FlatMap, TombstonesDoNotBreakProbeChains)
{
    // force collisions into one cluster, then punch holes in it
    FlatMap<uint64_t, int> m;
    m.reserve(64);
    std::vector<uint64_t> keys;
    for (uint64_t k = 0; k < 40; ++k)
        keys.push_back(k);
    for (uint64_t k : keys)
        m[k] = static_cast<int>(k);
    for (uint64_t k : keys)
        if (k % 3 == 0)
            m.erase(k);
    for (uint64_t k : keys) {
        if (k % 3 == 0) {
            EXPECT_FALSE(m.contains(k)) << k;
        } else {
            ASSERT_TRUE(m.contains(k)) << k;
            EXPECT_EQ(m.at(k), static_cast<int>(k));
        }
    }
    // erased keys are re-insertable (tombstone reuse)
    for (uint64_t k : keys)
        if (k % 3 == 0)
            m[k] = -static_cast<int>(k);
    for (uint64_t k : keys)
        ASSERT_TRUE(m.contains(k)) << k;
}

TEST(FlatMap, BoundedOccupancyNeverRehashesAfterReserve)
{
    // the AGT/MSHR usage pattern: capacity-bounded occupancy with
    // heavy insert/erase churn must stay in the reserved table
    FlatMap<uint64_t, uint64_t> m;
    m.reserve(32);
    const size_t cap = m.capacity();
    stems::trace::Rng rng(7);
    std::set<uint64_t> keys;
    for (int i = 0; i < 100000; ++i) {
        if (keys.size() >= 32 ||
            (keys.size() > 16 && rng.chance(0.5))) {
            uint64_t victim = *keys.begin();
            keys.erase(keys.begin());
            EXPECT_EQ(m.erase(victim), 1u);
        } else {
            uint64_t k = rng.below(1 << 20);
            keys.insert(k);
            m[k] = k;
        }
        EXPECT_EQ(m.size(), keys.size());
    }
    // tombstone-clearing rehashes stay at the reserved capacity
    EXPECT_EQ(m.capacity(), cap);
}

TEST(FlatMap, IterationVisitsEveryLiveEntryOnce)
{
    FlatMap<uint64_t, uint64_t> m;
    std::set<uint64_t> expect;
    for (uint64_t k = 100; k < 200; ++k) {
        m[k * 977] = k;
        expect.insert(k * 977);
    }
    m.erase(150 * 977);
    expect.erase(150 * 977);

    std::set<uint64_t> seen;
    for (const auto &[k, v] : m) {
        EXPECT_TRUE(seen.insert(k).second) << "duplicate " << k;
        EXPECT_EQ(v * 977, k);
    }
    EXPECT_EQ(seen, expect);
}

TEST(FlatMap, EraseDuringIteration)
{
    // erase-while-iterating, as a retire-ready sweep does
    FlatMap<uint64_t, uint64_t> m;
    size_t kept = 0;
    for (uint64_t k = 0; k < 100; ++k) {
        m[k] = k % 7;
        kept += (k % 7) >= 3;
    }
    for (auto it = m.begin(); it != m.end();) {
        if (it->second < 3)
            it = m.erase(it);
        else
            ++it;
    }
    EXPECT_EQ(m.size(), kept);
    for (const auto &[k, v] : m)
        EXPECT_GE(v, 3u);
}

TEST(FlatMap, CopyAndClear)
{
    FlatMap<uint64_t, int> a;
    for (uint64_t k = 0; k < 50; ++k)
        a[k] = static_cast<int>(k);
    FlatMap<uint64_t, int> b(a);
    a.clear();
    EXPECT_TRUE(a.empty());
    EXPECT_EQ(b.size(), 50u);
    for (uint64_t k = 0; k < 50; ++k)
        EXPECT_EQ(b.at(k), static_cast<int>(k));
    a = b;
    EXPECT_EQ(a.size(), 50u);
}

TEST(FlatMap, RandomizedEquivalenceWithUnorderedMap)
{
    // drive both containers with the same operation stream; results
    // must be invariant to which container backs the table
    FlatMap<uint64_t, uint64_t> flat;
    std::unordered_map<uint64_t, uint64_t> ref;
    stems::trace::Rng rng(99);
    for (int i = 0; i < 200000; ++i) {
        const uint64_t k = rng.below(512);  // dense: plenty of churn
        switch (rng.below(4)) {
          case 0:
            flat[k] = i;
            ref[k] = i;
            break;
          case 1:
            EXPECT_EQ(flat.erase(k), ref.erase(k));
            break;
          case 2: {
            auto fi = flat.find(k);
            auto ri = ref.find(k);
            ASSERT_EQ(fi != flat.end(), ri != ref.end());
            if (ri != ref.end()) {
                EXPECT_EQ(fi->second, ri->second);
            }
            break;
          }
          default: {
            auto [it, fresh] = flat.try_emplace(k, i);
            auto [rit, rfresh] = ref.try_emplace(k, i);
            EXPECT_EQ(fresh, rfresh);
            EXPECT_EQ(it->second, rit->second);
            break;
          }
        }
        ASSERT_EQ(flat.size(), ref.size());
    }
    for (const auto &[k, v] : ref)
        EXPECT_EQ(flat.at(k), v);
}

TEST(FixedRing, FifoWithWraparound)
{
    FixedRing<int> r(4);
    EXPECT_TRUE(r.empty());
    for (int round = 0; round < 10; ++round) {
        r.push_back(round * 10);
        r.push_back(round * 10 + 1);
        EXPECT_EQ(r.front(), round * 10);
        EXPECT_EQ(r.back(), round * 10 + 1);
        EXPECT_EQ(r.size(), 2u);
        r.pop_front();
        r.pop_front();
        EXPECT_TRUE(r.empty());
    }
    for (int i = 0; i < 4; ++i)
        r.push_back(i);
    EXPECT_EQ(r.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(r.front(), i);
        r.pop_front();
    }
}

TEST(FixedMinHeap, MatchesMultisetMinSemantics)
{
    FixedMinHeap<double> h(32);
    std::multiset<double> ref;
    stems::trace::Rng rng(5);
    for (int i = 0; i < 20000; ++i) {
        if (ref.size() < 32 && (ref.empty() || rng.chance(0.6))) {
            const double v =
                static_cast<double>(rng.below(100)) / 3.0;
            h.push(v);
            ref.insert(v);
        } else {
            ASSERT_EQ(h.top(), *ref.begin());
            h.pop();
            ref.erase(ref.begin());
        }
        ASSERT_EQ(h.size(), ref.size());
        if (!ref.empty()) {
            ASSERT_EQ(h.top(), *ref.begin());
        }
    }
}
