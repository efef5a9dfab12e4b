/** @file Coverage/density/system study harness tests. */

#include <gtest/gtest.h>

#include "study/density.hh"
#include "study/l1study.hh"
#include "study/memstudy.hh"
#include "study/stats.hh"
#include "study/suite.hh"
#include "study/table.hh"

using namespace stems;
using namespace stems::study;

namespace {

/** A synthetic workload with a strongly repeating spatial pattern. */
trace::Trace
patternedTrace(uint32_t ncpu, uint32_t regions, uint64_t stride = 2048)
{
    trace::Trace t;
    for (uint32_t r = 0; r < regions; ++r) {
        for (uint32_t c = 0; c < ncpu; ++c) {
            uint64_t base = 0x10000000 + (uint64_t{r} * ncpu + c) * stride;
            for (uint32_t off : {0u, 2u, 9u, 17u}) {
                trace::MemAccess a;
                a.cpu = c;
                a.pc = 0x900 + off;
                a.addr = base + off * 64;
                a.ninst = 3;
                t.push_back(a);
            }
        }
    }
    return t;
}

} // anonymous namespace

TEST(L1Study, BaselineHasNoCoverage)
{
    L1StudyConfig cfg;
    cfg.ncpu = 2;
    cfg.prefetch = false;
    auto r = runL1Study(patternedTrace(2, 400), cfg);
    EXPECT_EQ(r.coveredReads, 0u);
    EXPECT_EQ(r.overpredictions, 0u);
    EXPECT_GT(r.readMisses, 0u);
}

TEST(L1Study, SmsCoversRepeatingPattern)
{
    L1StudyConfig base;
    base.ncpu = 2;
    base.prefetch = false;
    trace::Trace t = patternedTrace(2, 1500);
    auto rb = runL1Study(t, base);

    L1StudyConfig sms = base;
    sms.prefetch = true;
    auto rs = runL1Study(t, sms);

    EXPECT_GT(rs.coveredReads, rb.readMisses / 2)
        << "a fixed 4-block pattern must be highly covered";
    EXPECT_LT(rs.readMisses, rb.readMisses);
    // identity: covered + uncovered ~ baseline (no pollution here)
    EXPECT_NEAR(double(rs.coveredReads + rs.readMisses),
                double(rb.readMisses), double(rb.readMisses) * 0.05);
}

TEST(L1Study, InstructionsCounted)
{
    L1StudyConfig cfg;
    cfg.ncpu = 2;
    cfg.prefetch = false;
    trace::Trace t = patternedTrace(2, 10);
    auto r = runL1Study(t, cfg);
    EXPECT_EQ(r.instructions, t.size() * 4);  // ninst=3 + the ref
    EXPECT_EQ(r.readAccesses, t.size());
}

TEST(L1Study, TrainerVariantsAllProduceCoverage)
{
    trace::Trace t = patternedTrace(2, 1500);
    for (TrainerKind k : {TrainerKind::AGT, TrainerKind::LogicalSectored,
                          TrainerKind::DecoupledSectored}) {
        L1StudyConfig cfg;
        cfg.ncpu = 2;
        cfg.trainer = k;
        auto r = runL1Study(t, cfg);
        EXPECT_GT(r.coveredReads, 100u) << trainerName(k);
    }
}

TEST(L1Study, DsSeesMoreMissesThanTraditional)
{
    // sparse single-block touches of many random regions: the working
    // set fits the traditional cache's block frames, but exceeds the
    // sectored tag array's reach (one tag covers a whole 2 kB sector)
    trace::Rng rng(11);
    std::vector<uint64_t> blocks;
    for (int r = 0; r < 400; ++r)
        blocks.push_back(0x40000000 + rng.below(1 << 16) * 2048 +
                         rng.below(32) * 64);
    trace::Trace t;
    for (int round = 0; round < 3; ++round) {
        for (uint64_t b : blocks) {
            trace::MemAccess a;
            a.cpu = 0;
            a.pc = 0x1;
            a.addr = b;
            t.push_back(a);
        }
    }
    L1StudyConfig trad;
    trad.ncpu = 1;
    trad.prefetch = false;
    auto rt = runL1Study(t, trad);

    L1StudyConfig ds = trad;
    ds.trainer = TrainerKind::DecoupledSectored;
    ds.prefetch = true;
    auto rd = runL1Study(t, ds);
    EXPECT_GT(rd.readMisses, rt.readMisses);
}

TEST(Density, BucketBoundariesMatchFigure5)
{
    EXPECT_EQ(densityBucket(1), 0u);
    EXPECT_EQ(densityBucket(2), 1u);
    EXPECT_EQ(densityBucket(3), 1u);
    EXPECT_EQ(densityBucket(4), 2u);
    EXPECT_EQ(densityBucket(7), 2u);
    EXPECT_EQ(densityBucket(8), 3u);
    EXPECT_EQ(densityBucket(15), 3u);
    EXPECT_EQ(densityBucket(16), 4u);
    EXPECT_EQ(densityBucket(23), 4u);
    EXPECT_EQ(densityBucket(24), 5u);
    EXPECT_EQ(densityBucket(31), 5u);
    EXPECT_EQ(densityBucket(32), 6u);
}

TEST(Density, TracksGenerationsAndAccesses)
{
    DensityTracker d{core::RegionGeometry(2048, 64)};
    // generation of 3 blocks, 5 accesses
    d.onAccess(0x1000);
    d.onAccess(0x1040);
    d.onAccess(0x1080);
    d.onAccess(0x1000);
    d.onAccess(0x1040);
    d.evicted(0x1000, false, false);
    // one dense 32-block generation
    for (uint32_t b = 0; b < 32; ++b)
        d.onAccess(0x8000 + b * 64);
    d.finalize();

    EXPECT_EQ(d.generationHist()[1], 1u);  // 2-3 blocks
    EXPECT_EQ(d.generationHist()[6], 1u);  // 32 blocks
    EXPECT_EQ(d.accessHist()[1], 5u);
    EXPECT_EQ(d.accessHist()[6], 32u);
}

TEST(SystemStudy, OracleOpportunityGrowsWithRegionSize)
{
    trace::Trace t = patternedTrace(2, 800);
    SystemStudyConfig cfg;
    cfg.sys.ncpu = 2;
    cfg.sys.l1 = {16 * 1024, 2, 64, mem::ReplKind::LRU};
    cfg.sys.l2 = {128 * 1024, 8, 64, mem::ReplKind::LRU};
    cfg.oracleRegionSizes = {128, 2048, 8192};
    auto r = runSystem(t, cfg);
    EXPECT_GT(r.oracleL1Gens[0], r.oracleL1Gens[1]);
    EXPECT_GE(r.oracleL1Gens[1], r.oracleL1Gens[2]);
    EXPECT_LE(r.oracleL1Gens[1], r.l1ReadMisses);
}

TEST(SystemStudy, SmsProducesOffChipCoverage)
{
    trace::Trace t = patternedTrace(2, 3000);
    SystemStudyConfig base;
    base.sys.ncpu = 2;
    base.sys.l1 = {16 * 1024, 2, 64, mem::ReplKind::LRU};
    base.sys.l2 = {128 * 1024, 8, 64, mem::ReplKind::LRU};
    auto rb = runSystem(t, base);

    SystemStudyConfig sms = base;
    sms.pf = PfKind::Sms;
    sms.sms.pht.entries = 4096;
    auto rs = runSystem(t, sms);

    EXPECT_GT(rs.l1Covered, 0u);
    EXPECT_GT(rs.l2Covered, 0u);
    EXPECT_LT(rs.l2ReadMisses, rb.l2ReadMisses);
}

TEST(SystemStudy, GhbCoversStridedStream)
{
    // single-cpu sequential sweep: GHB's best case
    trace::Trace t;
    for (uint64_t i = 0; i < 50000; ++i) {
        trace::MemAccess a;
        a.cpu = 0;
        a.pc = 0x1;
        a.addr = 0x20000000 + i * 64;
        t.push_back(a);
    }
    SystemStudyConfig cfg;
    cfg.sys.ncpu = 1;
    cfg.sys.l1 = {16 * 1024, 2, 64, mem::ReplKind::LRU};
    cfg.sys.l2 = {128 * 1024, 8, 64, mem::ReplKind::LRU};
    cfg.pf = PfKind::Ghb;
    auto r = runSystem(t, cfg);
    EXPECT_GT(r.l2Covered, 10000u);
}

TEST(SystemStudy, DensityHistogramsSumToLevelMisses)
{
    trace::Trace t = patternedTrace(2, 500);
    SystemStudyConfig cfg;
    cfg.sys.ncpu = 2;
    cfg.sys.l1 = {16 * 1024, 2, 64, mem::ReplKind::LRU};
    cfg.sys.l2 = {128 * 1024, 8, 64, mem::ReplKind::LRU};
    cfg.trackDensity = true;
    auto r = runSystem(t, cfg);
    uint64_t l1_total = 0, l2_total = 0;
    for (size_t b = 0; b < kDensityBuckets; ++b) {
        l1_total += r.l1Density[b];
        l2_total += r.l2Density[b];
    }
    EXPECT_EQ(l1_total, r.l1Misses);  // every L1 miss lands once
    EXPECT_EQ(l2_total, r.l2Misses);
    EXPECT_GT(r.l1Misses, 0u);
}

TEST(Stats, MeanGeomeanStd)
{
    std::vector<double> v{1.0, 2.0, 4.0};
    EXPECT_NEAR(mean(v), 7.0 / 3, 1e-12);
    EXPECT_NEAR(geomean(v), 2.0, 1e-12);
    EXPECT_NEAR(stddev(std::vector<double>{2, 4, 4, 4, 5, 5, 7, 9}),
                2.138, 0.01);
}

TEST(Stats, CiShrinksWithSamples)
{
    std::vector<double> few{1.0, 1.2, 0.8};
    std::vector<double> many;
    for (int i = 0; i < 30; ++i)
        many.push_back(1.0 + 0.2 * ((i % 3) - 1));
    EXPECT_GT(ci95(few), ci95(many));
    EXPECT_EQ(ci95(std::vector<double>{1.0}), 0.0);
}

TEST(Table, FormatsAlignedColumns)
{
    TablePrinter t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"long-name", "2"});
    std::ostringstream os;
    t.print(os);
    std::string s = os.str();
    EXPECT_NE(s.find("name"), std::string::npos);
    EXPECT_NE(s.find("long-name"), std::string::npos);
    EXPECT_NE(s.find("----"), std::string::npos);
    EXPECT_EQ(TablePrinter::pct(0.5), "50.0%");
    EXPECT_EQ(TablePrinter::fixed(1.234, 1), "1.2");
}

TEST(Suite, DefaultParamsRespectFloor)
{
    auto p = defaultParams(40000);
    EXPECT_GE(p.refsPerCpu, 1000u);
    EXPECT_EQ(p.ncpu, 16u);
}

TEST(Suite, GroupsCoverAllWorkloads)
{
    size_t total = 0;
    for (const auto &g : groupNames())
        total += workloadsInGroup(g).size();
    EXPECT_EQ(total, 11u);
    EXPECT_EQ(workloadsInGroup("DSS").size(), 4u);
    EXPECT_EQ(workloadsInGroup("OLTP").size(), 2u);
}

TEST(Suite, TraceCacheReturnsSameObject)
{
    TraceCache cache;
    workloads::WorkloadParams p;
    p.ncpu = 2;
    p.refsPerCpu = 2000;
    const trace::StreamSet &a = cache.viewSet("sparse", p);
    const trace::StreamSet &b = cache.viewSet("sparse", p);
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(a.totalRefs(), 4000u);
}

// ---------------------------------------------------------------------
// zero-copy stream-view equivalence
// ---------------------------------------------------------------------

namespace {

void
expectSameSystemResult(const SystemStudyResult &a,
                       const SystemStudyResult &b)
{
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.l1ReadAccesses, b.l1ReadAccesses);
    EXPECT_EQ(a.l1ReadMisses, b.l1ReadMisses);
    EXPECT_EQ(a.l2ReadMisses, b.l2ReadMisses);
    EXPECT_EQ(a.l1Misses, b.l1Misses);
    EXPECT_EQ(a.l2Misses, b.l2Misses);
    EXPECT_EQ(a.l1Covered, b.l1Covered);
    EXPECT_EQ(a.l2Covered, b.l2Covered);
    EXPECT_EQ(a.l1Overpred, b.l1Overpred);
    EXPECT_EQ(a.l2Overpred, b.l2Overpred);
    EXPECT_EQ(a.trueSharing, b.trueSharing);
    EXPECT_EQ(a.falseSharing, b.falseSharing);
    EXPECT_EQ(a.readCohMisses, b.readCohMisses);
    EXPECT_EQ(a.memWritebacks, b.memWritebacks);
    EXPECT_EQ(a.oracleL1Gens, b.oracleL1Gens);
    EXPECT_EQ(a.oracleL2Gens, b.oracleL2Gens);
    EXPECT_EQ(a.l1Density, b.l1Density);
    EXPECT_EQ(a.l2Density, b.l2Density);
}

} // anonymous namespace

TEST(SystemStudy, StreamViewMatchesMergedTraceByteForByte)
{
    // the zero-copy overload must reproduce the merged-trace pipeline
    // exactly, with every tracker (oracle, density, SMS) engaged
    workloads::WorkloadParams p;
    p.ncpu = 4;
    p.refsPerCpu = 4000;
    p.seed = 11;

    for (const char *name : {"sparse", "graph", "OLTP-DB2"}) {
        auto w = workloads::findWorkload(name)->make();
        auto streams = w->generateStreams(p);
        trace::Trace merged =
            trace::Interleaver(1, 16, p.seed * 977 + 13).merge(streams);

        SystemStudyConfig cfg;
        cfg.sys.ncpu = p.ncpu;
        cfg.pf = PfKind::Sms;
        cfg.oracleRegionSizes = {512, 2048};
        cfg.trackDensity = true;

        auto viaTrace = runSystem(merged, cfg);
        std::unique_ptr<core::SmsController> sms;
        auto viaView = runSystem(
            trace::StreamSet::borrowed(streams), cfg, p.seed,
            [&](mem::MemorySystem &sys) -> AttachedPrefetcher * {
                sms = std::make_unique<core::SmsController>(sys,
                                                            cfg.sms);
                return nullptr;
            });
        expectSameSystemResult(viaTrace, viaView);
    }
}
