/** @file Cross-module integration and property tests. */

#include <gtest/gtest.h>

#include "core/sms.hh"
#include "driver/registry.hh"
#include "sim/timing.hh"
#include "study/l1study.hh"
#include "study/memstudy.hh"
#include "study/suite.hh"
#include "trace/stats.hh"
#include "workloads/workload.hh"

using namespace stems;
using namespace stems::study;

namespace {

workloads::WorkloadParams
tinyParams(uint32_t ncpu = 4, uint64_t refs = 6000)
{
    workloads::WorkloadParams p;
    p.ncpu = ncpu;
    p.refsPerCpu = refs;
    p.seed = 3;
    return p;
}

} // anonymous namespace

/** Whole-suite invariants through the full memory system. */
class SuiteSystem : public ::testing::TestWithParam<std::string>
{};

TEST_P(SuiteSystem, SmsNeverIncreasesReadMissesMuch)
{
    auto w = workloads::findWorkload(GetParam())->make();
    auto p = tinyParams();
    trace::Trace t = workloads::makeTrace(*w, p);

    SystemStudyConfig base;
    base.sys.ncpu = p.ncpu;
    auto rb = runSystem(t, base);

    SystemStudyConfig sms = base;
    sms.pf = PfKind::Sms;
    auto rs = runSystem(t, sms);

    // pollution may add a few misses, but never catastrophe
    EXPECT_LT(rs.l1ReadMisses, rb.l1ReadMisses * 1.25) << GetParam();
    // coverage identity: covered misses vanished from the miss count
    EXPECT_LE(rs.l1ReadMisses + rs.l1Covered,
              rb.l1ReadMisses * 1.30)
        << GetParam();
}

TEST_P(SuiteSystem, TimingSpeedupWithinSaneBounds)
{
    auto w = workloads::findWorkload(GetParam())->make();
    auto p = tinyParams(4, 4000);
    auto streams = w->generateStreams(p);
    const auto set = trace::StreamSet::borrowed(streams);

    sim::TimingConfig tc;
    tc.sys.ncpu = p.ncpu;
    auto rb = sim::runTiming(set, tc, 1);
    std::unique_ptr<driver::PrefetcherDeployment> dep;
    auto rs = sim::runTiming(set, tc, 1,
                             driver::registryAttach("sms", dep));

    double speedup = rs.uipc() / rb.uipc();
    EXPECT_GT(speedup, 0.85) << GetParam() << ": SMS badly hurt perf";
    EXPECT_LT(speedup, 8.0) << GetParam() << ": implausible speedup";
    EXPECT_EQ(rb.userInstructions, rs.userInstructions);
}

INSTANTIATE_TEST_SUITE_P(Suite, SuiteSystem,
                         ::testing::Values("OLTP-DB2", "Qry1", "Apache",
                                           "em3d", "sparse"));

TEST(Integration, ShadowL1MatchesMemSysL1OnPrivateStreams)
{
    // with no sharing and no inclusion pressure, the shadow study's
    // baseline L1 misses equal the full system's
    trace::Trace t;
    trace::Rng rng(4);
    for (int i = 0; i < 30000; ++i) {
        trace::MemAccess a;
        a.cpu = static_cast<uint32_t>(rng.below(2));
        a.pc = 0x1;
        a.addr = (0x1000000ULL << a.cpu) + rng.below(1 << 18);
        t.push_back(a);
    }
    L1StudyConfig sc;
    sc.ncpu = 2;
    sc.prefetch = false;
    auto shadow = runL1Study(t, sc);

    SystemStudyConfig mc;
    mc.sys.ncpu = 2;
    mc.sys.l2 = {16 * 1024 * 1024, 16, 64, mem::ReplKind::LRU};
    auto full = runSystem(t, mc);
    EXPECT_EQ(shadow.readMisses, full.l1ReadMisses);
}

TEST(Integration, CoverageIdentityOnSuiteWorkload)
{
    auto w = workloads::findWorkload("Zeus")->make();
    trace::Trace t = workloads::makeTrace(*w, tinyParams());

    L1StudyConfig base;
    base.ncpu = 4;
    base.prefetch = false;
    auto rb = runL1Study(t, base);
    L1StudyConfig sms = base;
    sms.prefetch = true;
    auto rs = runL1Study(t, sms);

    // every baseline read miss is either still a miss or was covered
    // (pollution can only add misses, never remove them uncovered)
    EXPECT_GE(rs.readMisses + rs.coveredReads, rb.readMisses);
}

TEST(Integration, OracleBoundsRealSmsCoverage)
{
    // the opportunity oracle (one miss per generation) upper-bounds
    // what SMS actually achieves at the same region size
    auto w = workloads::findWorkload("sparse")->make();
    auto p = tinyParams(4, 20000);
    trace::Trace t = workloads::makeTrace(*w, p);

    SystemStudyConfig base;
    base.sys.ncpu = 4;
    base.oracleRegionSizes = {2048};
    auto rb = runSystem(t, base);
    uint64_t oracle_covered = rb.l1ReadMisses > rb.oracleL1Gens[0]
                                  ? rb.l1ReadMisses - rb.oracleL1Gens[0]
                                  : 0;

    SystemStudyConfig sms = base;
    sms.pf = PfKind::Sms;
    auto rs = runSystem(t, sms);
    EXPECT_LE(rs.l1Covered, oracle_covered + rb.l1ReadMisses / 20)
        << "SMS cannot beat the oracle (modulo write-covered slack)";
}

TEST(Integration, HigherMemLatencyNeverSpeedsThingsUp)
{
    auto w = workloads::findWorkload("Qry2")->make();
    auto p = tinyParams(2, 4000);
    auto streams = w->generateStreams(p);
    const auto set = trace::StreamSet::borrowed(streams);

    sim::TimingConfig fast;
    fast.sys.ncpu = 2;
    fast.core.memLatency = 120;
    sim::TimingConfig slow = fast;
    slow.core.memLatency = 480;

    auto rf = sim::runTiming(set, fast, 1);
    auto rs = sim::runTiming(set, slow, 1);
    EXPECT_LE(rf.cycles, rs.cycles);
}

TEST(Integration, WiderCoreNeverSlower)
{
    auto w = workloads::findWorkload("ocean")->make();
    auto p = tinyParams(2, 4000);
    auto streams = w->generateStreams(p);
    const auto set = trace::StreamSet::borrowed(streams);

    sim::TimingConfig narrow;
    narrow.sys.ncpu = 2;
    narrow.core.width = 2;
    sim::TimingConfig wide = narrow;
    wide.core.width = 8;

    auto rn = sim::runTiming(set, narrow, 1);
    auto rw = sim::runTiming(set, wide, 1);
    EXPECT_GE(rn.cycles, rw.cycles * 0.999);
}

TEST(Integration, UnboundedPhtDominatesBoundedCoverage)
{
    auto w = workloads::findWorkload("Apache")->make();
    trace::Trace t = workloads::makeTrace(*w, tinyParams());

    auto run_with_pht = [&](uint32_t entries) {
        L1StudyConfig cfg;
        cfg.ncpu = 4;
        cfg.sms.pht.entries = entries;
        return runL1Study(t, cfg).coveredReads;
    };
    uint64_t tiny = run_with_pht(256);
    uint64_t infinite = run_with_pht(0);
    EXPECT_GE(infinite + infinite / 10 + 50, tiny)
        << "unbounded PHT should not lose to a 256-entry one";
}
