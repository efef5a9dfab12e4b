/** @file SMS end-to-end tests: learn a pattern, stream it back. */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "core/sms.hh"
#include "study/suite.hh"
#include "workloads/workload.hh"

using namespace stems;
using namespace stems::core;

namespace {

struct Issued
{
    uint32_t cpu;
    uint64_t addr;
    bool intoL1;
};

SmsConfig
testConfig()
{
    SmsConfig cfg;
    cfg.pht.entries = 1024;
    cfg.pht.assoc = 16;
    return cfg;
}

} // anonymous namespace

TEST(SmsUnit, LearnsThenStreamsOnRecurrence)
{
    std::vector<Issued> issued;
    SmsUnit unit(0, testConfig(), [&](uint32_t c, uint64_t a, bool l1) {
        issued.push_back({c, a, l1});
    });

    // generation 1 in region A: blocks {0, 3, 7}, trigger at 0
    const uint64_t A = 0x100000;
    unit.onAccess(0x42, A + 0 * 64);
    unit.onAccess(0x50, A + 3 * 64);
    unit.onAccess(0x51, A + 7 * 64);
    unit.evicted(A + 0 * 64, false, false);  // generation ends, trains

    EXPECT_TRUE(issued.empty());  // nothing predicted yet

    // same code (PC 0x42, offset 0) triggers in a *different* region
    const uint64_t B = 0x900000;
    unit.onAccess(0x42, B + 0 * 64);

    std::set<uint64_t> got;
    for (const auto &i : issued) {
        EXPECT_EQ(i.cpu, 0u);
        EXPECT_TRUE(i.intoL1);
        got.insert(i.addr);
    }
    // predicted blocks 3 and 7 of region B (trigger block excluded)
    EXPECT_EQ(got, (std::set<uint64_t>{B + 3 * 64, B + 7 * 64}));
    EXPECT_EQ(unit.stats().phtHits, 1u);
    EXPECT_EQ(unit.stats().streamRequests, 2u);
}

TEST(SmsUnit, ColdRegionPredictedByPcOffset)
{
    // the paper's core claim: code correlation predicts data that has
    // never been visited — run the learned pattern over 10 new regions
    std::vector<Issued> issued;
    SmsUnit unit(0, testConfig(), [&](uint32_t, uint64_t a, bool) {
        issued.push_back({0, a, true});
    });

    const uint64_t base = 0x40000000;
    unit.onAccess(0x7, base);
    unit.onAccess(0x8, base + 64);
    unit.onAccess(0x8, base + 128);
    unit.invalidated(base, false);

    for (int r = 1; r <= 10; ++r) {
        issued.clear();
        unit.onAccess(0x7, base + r * 0x10000);  // unvisited region
        EXPECT_EQ(issued.size(), 2u) << "region " << r;
    }
}

TEST(SmsUnit, DifferentTriggerOffsetNoPrediction)
{
    std::vector<Issued> issued;
    SmsUnit unit(0, testConfig(), [&](uint32_t, uint64_t a, bool) {
        issued.push_back({0, a, true});
    });

    const uint64_t A = 0x100000;
    unit.onAccess(0x42, A);
    unit.onAccess(0x50, A + 64);
    unit.evicted(A, false, false);

    // same PC, different spatial region offset -> different index
    unit.onAccess(0x42, A + 0x10000 + 5 * 64);
    EXPECT_TRUE(issued.empty());
    EXPECT_EQ(unit.stats().phtHits, 0u);
}

TEST(SmsUnit, AddressIndexCannotPredictUnvisitedRegion)
{
    SmsConfig cfg = testConfig();
    cfg.index = IndexKind::Address;
    std::vector<Issued> issued;
    SmsUnit unit(0, cfg, [&](uint32_t, uint64_t a, bool) {
        issued.push_back({0, a, true});
    });

    const uint64_t A = 0x100000;
    unit.onAccess(0x42, A);
    unit.onAccess(0x50, A + 64);
    unit.evicted(A, false, false);

    unit.onAccess(0x42, 0x7700000);  // new region, same code
    EXPECT_TRUE(issued.empty());

    unit.onAccess(0x42, A + 128);    // back to region A: now predicted
    // new generation in A triggered at offset 2; Address index matches
    EXPECT_FALSE(issued.empty());
}

TEST(SmsUnit, SingleBlockGenerationsNeverTrain)
{
    std::vector<Issued> issued;
    SmsUnit unit(0, testConfig(), [&](uint32_t, uint64_t a, bool) {
        issued.push_back({0, a, true});
    });
    const uint64_t A = 0x5000000;
    for (int r = 0; r < 8; ++r) {
        unit.onAccess(0x9, A + r * 2048);
        unit.evicted(A + r * 2048, false, false);
    }
    unit.onAccess(0x9, A + 9 * 2048);
    EXPECT_TRUE(issued.empty());
    EXPECT_EQ(unit.stats().trained, 0u);
}

TEST(SmsController, StreamsIntoL1AndCoversRepeatPass)
{
    // two passes over a strided structure through a real MemorySystem:
    // pass 2's misses should be largely covered by SMS streams
    mem::MemSysConfig mcfg;
    mcfg.ncpu = 2;
    mcfg.l1 = {16 * 1024, 2, 64};
    mcfg.l2 = {256 * 1024, 8, 64};
    mem::MemorySystem sys(mcfg);
    SmsConfig scfg = testConfig();
    SmsController sms(sys, scfg);

    auto pass = [&](int) {
        uint64_t covered = 0;
        for (uint64_t region = 0; region < 512; ++region) {
            uint64_t base = 0x10000000 + region * 2048;
            // fixed sparse pattern {0, 2, 9, 17} from one code path
            trace::MemAccess a;
            a.cpu = 0;
            for (uint32_t off : {0u, 2u, 9u, 17u}) {
                a.pc = 0x800 + off;  // same PC per offset-position
                a.addr = base + off * 64;
                covered += sys.access(a).l1PrefetchHit ? 1 : 0;
            }
        }
        return covered;
    };

    uint64_t covered1 = pass(1);
    uint64_t covered2 = pass(2);
    // the first pass trains (and already predicts later regions);
    // the second pass must be heavily covered
    EXPECT_GT(covered2, 1000u);
    EXPECT_GT(covered2, covered1);
    EXPECT_GT(sms.totalStats().streamRequests, 1000u);
}

TEST(SmsController, PerCpuUnitsAreIndependent)
{
    mem::MemSysConfig mcfg;
    mcfg.ncpu = 2;
    mcfg.l1 = {16 * 1024, 2, 64};
    mcfg.l2 = {256 * 1024, 8, 64};
    mem::MemorySystem sys(mcfg);
    SmsController sms(sys, testConfig());

    // cpu0 learns a pattern; cpu1's identical trigger must not predict
    trace::MemAccess a;
    a.cpu = 0;
    a.pc = 0x77;
    a.addr = 0x20000000;
    sys.access(a);
    a.pc = 0x78;
    a.addr = 0x20000000 + 64;
    sys.access(a);
    sys.l1(0).invalidate(0x20000000);

    a.cpu = 1;
    a.pc = 0x77;
    a.addr = 0x30000000;
    sys.access(a);
    EXPECT_EQ(sms.unit(1).stats().phtHits, 0u);
}
