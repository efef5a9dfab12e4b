/** @file Prediction register file tests (Section 3.2 streaming). */

#include <gtest/gtest.h>

#include <set>

#include "core/prediction_register.hh"
#include "ref/sms_ref.hh"

using namespace stems::core;

namespace {

SpatialPattern
pat(std::initializer_list<uint32_t> bits)
{
    SpatialPattern p;
    for (uint32_t b : bits)
        p.set(b);
    return p;
}

} // anonymous namespace

TEST(Prf, TriggerBlockExcludedFromStream)
{
    RegionGeometry g;
    PredictionRegisterFile prf(4, g);
    ASSERT_TRUE(prf.allocate(0x10000, pat({3, 5}), 3));
    auto r = prf.nextRequest();
    ASSERT_TRUE(r.has_value());
    EXPECT_EQ(*r, 0x10000u + 5 * 64);  // only offset 5 remains
    EXPECT_FALSE(prf.nextRequest().has_value());
}

TEST(Prf, TriggerOnlyPatternRejected)
{
    RegionGeometry g;
    PredictionRegisterFile prf(4, g);
    EXPECT_FALSE(prf.allocate(0x10000, pat({3}), 3));
    EXPECT_FALSE(prf.anyPending());
}

TEST(Prf, StreamsWholePatternThenFrees)
{
    RegionGeometry g;
    PredictionRegisterFile prf(2, g);
    ASSERT_TRUE(prf.allocate(0x10000, pat({0, 1, 2, 3}), 0));
    std::set<uint64_t> got;
    while (auto r = prf.nextRequest())
        got.insert(*r);
    EXPECT_EQ(got.size(), 3u);
    EXPECT_TRUE(got.count(0x10000 + 64));
    EXPECT_TRUE(got.count(0x10000 + 128));
    EXPECT_TRUE(got.count(0x10000 + 192));
    EXPECT_EQ(prf.busyCount(), 0u);
}

TEST(Prf, RoundRobinAcrossRegisters)
{
    RegionGeometry g;
    PredictionRegisterFile prf(2, g);
    ASSERT_TRUE(prf.allocate(0x10000, pat({0, 1, 2}), 0));
    ASSERT_TRUE(prf.allocate(0x20000, pat({0, 1, 2}), 0));
    EXPECT_EQ(prf.busyCount(), 2u);

    // requests must alternate between the two regions
    auto a = prf.nextRequest();
    auto b = prf.nextRequest();
    ASSERT_TRUE(a && b);
    uint64_t ra = *a & ~uint64_t{2047};
    uint64_t rb = *b & ~uint64_t{2047};
    EXPECT_NE(ra, rb);
}

TEST(Prf, RejectsWhenAllBusy)
{
    RegionGeometry g;
    PredictionRegisterFile prf(1, g);
    ASSERT_TRUE(prf.allocate(0x10000, pat({0, 1}), 0));
    EXPECT_FALSE(prf.allocate(0x20000, pat({0, 1}), 0));
    EXPECT_EQ(prf.stats().rejections, 1u);
    // drain frees the register; new allocations succeed again
    while (prf.nextRequest())
        ;
    EXPECT_TRUE(prf.allocate(0x20000, pat({0, 1}), 0));
}

TEST(Prf, RequestCountsTracked)
{
    RegionGeometry g;
    PredictionRegisterFile prf(4, g);
    prf.allocate(0, pat({0, 1, 2, 3, 4}), 0);
    while (prf.nextRequest())
        ;
    EXPECT_EQ(prf.stats().requests, 4u);
    EXPECT_EQ(prf.stats().allocations, 1u);
}

TEST(Prf, NeedsAtLeastOneRegister)
{
    RegionGeometry g;
    EXPECT_THROW(PredictionRegisterFile(0, g), std::invalid_argument);
}

TEST(Prf, IdleReturnsNothing)
{
    RegionGeometry g;
    PredictionRegisterFile prf(2, g);
    EXPECT_FALSE(prf.nextRequest().has_value());
    EXPECT_FALSE(prf.anyPending());
}

TEST(Prf, WrappingOrderMatchesModuloLoopAtEveryWidth)
{
    // registers 0 and n-1 outlive the others, two fresh allocations
    // land on the lowest freed registers, and the cursor wraps past
    // the end with all of them busy: the order must be the plain
    // `(rr + i) % n` loop's (stems::ref::RefPrf)
    RegionGeometry g;
    for (uint32_t n : {1u, 16u, 65u, 100u}) {
        PredictionRegisterFile prf(n, g);
        stems::ref::RefPrf ref(n, g);
        auto allocate = [&](uint64_t base, SpatialPattern p) {
            ASSERT_EQ(prf.allocate(base, p, 31), ref.allocate(base, p, 31));
        };
        for (uint32_t r = 0; r < n; ++r)
            allocate(uint64_t{r} * 2048, r == 0 || r == n - 1
                         ? pat({0, 1, 2, 3})
                         : pat({5}));
        EXPECT_EQ(prf.busyCount(), n);
        for (uint32_t k = 0;; ++k) {
            if (k == n) {  // the first sweep freed registers 1..n-2
                allocate(0x900000, pat({7, 8, 9}));
                allocate(0x980000, pat({7, 8}));
                EXPECT_EQ(prf.busyCount(), ref.busy());
            }
            const auto got = prf.nextRequest();
            ASSERT_EQ(got, ref.next()) << n << " registers, request " << k;
            if (!got)
                break;
        }
        EXPECT_FALSE(prf.anyPending());
        EXPECT_EQ(prf.stats().requests, ref.stats.requests);
    }
}
