/** @file GHB PC/DC prefetcher tests (Nesbit & Smith variant). */

#include <gtest/gtest.h>

#include <vector>

#include "prefetch/ghb.hh"
#include "trace/rng.hh"

using namespace stems::prefetch;
using stems::mem::HitLevel;

namespace {

ObservedAccess
miss(uint64_t pc, uint64_t addr, HitLevel lvl = HitLevel::Memory)
{
    ObservedAccess a;
    a.pc = pc;
    a.addr = addr;
    a.level = lvl;
    return a;
}

} // anonymous namespace

TEST(Ghb, IgnoresL1Hits)
{
    GhbPcDc ghb(GhbConfig{});
    std::vector<uint64_t> out;
    for (int i = 0; i < 10; ++i)
        ghb.observe(miss(0x1, i * 64, HitLevel::L1), out);
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(ghb.stats().triggers, 0u);
}

TEST(Ghb, DetectsConstantStride)
{
    GhbConfig cfg;
    cfg.degree = 4;
    GhbPcDc ghb(cfg);
    std::vector<uint64_t> out;
    // constant 256 B stride from one PC
    for (int i = 0; i < 6; ++i) {
        out.clear();
        ghb.observe(miss(0x42, 0x10000 + uint64_t(i) * 256), out);
    }
    ASSERT_EQ(out.size(), 4u);
    EXPECT_EQ(out[0], 0x10000u + 5 * 256 + 256);
    EXPECT_EQ(out[1], 0x10000u + 5 * 256 + 512);
}

TEST(Ghb, DetectsRepeatingDeltaPattern)
{
    // deltas (in blocks): +1, +3, +1, +3, ... a period-2 pattern
    GhbConfig cfg;
    cfg.degree = 2;
    GhbPcDc ghb(cfg);
    std::vector<uint64_t> out;
    uint64_t addr = 0x20000;
    const int deltas[] = {1, 3, 1, 3, 1, 3, 1};
    ghb.observe(miss(0x7, addr), out);
    for (int d : deltas) {
        addr += uint64_t(d) * 64;
        out.clear();
        ghb.observe(miss(0x7, addr), out);
    }
    // last deltas (3,1)... the pair recurs; predictions follow pattern
    ASSERT_EQ(out.size(), 2u);
    EXPECT_EQ(out[0], addr + 3 * 64);
    EXPECT_EQ(out[1], addr + 3 * 64 + 1 * 64);
}

TEST(Ghb, SeparatePcChainsDoNotInterfere)
{
    GhbPcDc ghb(GhbConfig{});
    std::vector<uint64_t> out;
    // interleave two streams with different PCs and strides
    for (int i = 0; i < 8; ++i) {
        out.clear();
        ghb.observe(miss(0x1, 0x100000 + uint64_t(i) * 128), out);
        if (i >= 3)
            EXPECT_FALSE(out.empty()) << "pc1 stride undetected";
        out.clear();
        ghb.observe(miss(0x2, 0x900000 + uint64_t(i) * 512), out);
        if (i >= 3)
            EXPECT_FALSE(out.empty()) << "pc2 stride undetected";
    }
}

TEST(Ghb, InterleavedIrregularStreamsDefeatIt)
{
    // the paper's Section 4.6 argument: interleaving two *irregular*
    // sequences under one PC breaks delta correlation
    GhbPcDc ghb(GhbConfig{});
    std::vector<uint64_t> out;
    stems::trace::Rng rng(3);
    size_t predictions = 0;
    for (int i = 0; i < 200; ++i) {
        out.clear();
        ghb.observe(miss(0x5, (rng.below(1 << 20)) * 64), out);
        predictions += out.size();
    }
    // random deltas should rarely correlate
    EXPECT_LT(predictions, 100u);
}

TEST(Ghb, CapacityBoundsHistory)
{
    GhbConfig cfg;
    cfg.ghbEntries = 8;
    GhbPcDc ghb(cfg);
    std::vector<uint64_t> out;
    // build a long stride history, then flush the buffer with another
    // PC; the stride chain is gone
    for (int i = 0; i < 6; ++i)
        ghb.observe(miss(0x1, 0x10000 + uint64_t(i) * 256), out);
    for (int i = 0; i < 8; ++i)
        ghb.observe(miss(0x2, 0x500000 + uint64_t(i) * 0x10000), out);
    out.clear();
    ghb.observe(miss(0x1, 0x10000 + 6 * 256), out);
    EXPECT_TRUE(out.empty()) << "stale chain must not survive wrap";
}

TEST(Ghb, StatsProgress)
{
    GhbPcDc ghb(GhbConfig{});
    std::vector<uint64_t> out;
    for (int i = 0; i < 6; ++i)
        ghb.observe(miss(0x1, 0x1000 + uint64_t(i) * 64), out);
    EXPECT_EQ(ghb.stats().triggers, 6u);
    EXPECT_GT(ghb.stats().walks, 0u);
    EXPECT_GT(ghb.stats().correlations, 0u);
    EXPECT_GT(ghb.stats().issued, 0u);
}

TEST(Ghb, RejectsZeroSizes)
{
    GhbConfig cfg;
    cfg.ghbEntries = 0;
    EXPECT_THROW(GhbPcDc{cfg}, std::invalid_argument);
}
