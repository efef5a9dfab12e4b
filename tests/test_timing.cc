/** @file Timing model tests: IPC bounds, stalls, SMS speedup. */

#include <gtest/gtest.h>

#include "core/sms.hh"
#include "driver/registry.hh"
#include "sim/timing.hh"
#include "sim/torus.hh"

using namespace stems;
using namespace stems::sim;

namespace {

// attach engines through the production seam (driver::registryAttach),
// exactly as CellExecutor::timingRun wires timing cells
using driver::registryAttach;
using trace::StreamSet;

TimingConfig
smallConfig(uint32_t ncpu = 2)
{
    TimingConfig cfg;
    cfg.sys.ncpu = ncpu;
    cfg.sys.l1 = {16 * 1024, 2, 64};
    cfg.sys.l2 = {128 * 1024, 8, 64};
    return cfg;
}

/** n refs per cpu hitting one hot block: everything L1 after warmup. */
std::vector<trace::Trace>
hotLoopStreams(uint32_t ncpu, size_t n, uint32_t ninst = 7)
{
    std::vector<trace::Trace> s(ncpu);
    for (uint32_t c = 0; c < ncpu; ++c) {
        for (size_t i = 0; i < n; ++i) {
            trace::MemAccess a;
            a.cpu = c;
            a.pc = 0x1;
            a.addr = 0xA0000000 + uint64_t{c} * 4096;
            a.ninst = ninst;
            s[c].push_back(a);
        }
    }
    return s;
}

/** Pointer-chase: every load depends on the previous, all misses. */
std::vector<trace::Trace>
chaseStreams(uint32_t ncpu, size_t n, bool dependent)
{
    std::vector<trace::Trace> s(ncpu);
    for (uint32_t c = 0; c < ncpu; ++c) {
        for (size_t i = 0; i < n; ++i) {
            trace::MemAccess a;
            a.cpu = c;
            a.pc = 0x2;
            // 1 MB stride: misses everywhere, conflict-free sets
            a.addr = 0xB0000000 + uint64_t{c} * (256ull << 20) +
                i * (1ull << 20);
            a.ninst = 1;
            a.dep = dependent && i > 0 ? 1 : 0;
            s[c].push_back(a);
        }
    }
    return s;
}

} // anonymous namespace

TEST(Torus, HopsAndWraparound)
{
    Torus t(4, 4, 100);
    EXPECT_EQ(t.hops(0, 0), 0u);
    EXPECT_EQ(t.hops(0, 1), 1u);
    EXPECT_EQ(t.hops(0, 3), 1u);   // wrap in x
    EXPECT_EQ(t.hops(0, 12), 1u);  // wrap in y
    EXPECT_EQ(t.hops(0, 5), 2u);
    EXPECT_EQ(t.hops(0, 10), 4u);  // farthest on 4x4
    EXPECT_EQ(t.roundTrip(0, 5), 400u);
    EXPECT_LT(t.homeNode(0x123456), 16u);
}

TEST(Timing, IpcApproachesWidthOnHotLoop)
{
    TimingConfig cfg = smallConfig(1);
    auto r = runTiming(StreamSet::borrowed(hotLoopStreams(1, 20000)),
                       cfg);
    double ipc = r.uipc();
    // 8 instructions per ref (ninst 7 + 1), all L1 hits after warmup:
    // the core should sustain near its width
    EXPECT_GT(ipc, 0.5 * cfg.core.width);
    EXPECT_LE(ipc, cfg.core.width + 0.01);
}

TEST(Timing, DependentChasesMuchSlowerThanIndependent)
{
    TimingConfig cfg = smallConfig(1);
    auto dep =
        runTiming(StreamSet::borrowed(chaseStreams(1, 4000, true)), cfg);
    auto ind =
        runTiming(StreamSet::borrowed(chaseStreams(1, 4000, false)), cfg);
    // independent misses overlap in the ROB window; dependent ones
    // serialize (the paper's OLTP-vs-scientific MLP story)
    EXPECT_GT(dep.cycles, ind.cycles * 2);
}

TEST(Timing, OffChipStallsDominateMissStreams)
{
    TimingConfig cfg = smallConfig(1);
    auto r =
        runTiming(StreamSet::borrowed(chaseStreams(1, 4000, true)), cfg);
    EXPECT_GT(r.breakdown.offChipRead,
              0.5 * (r.breakdown.userBusy + r.breakdown.systemBusy));
}

TEST(Timing, StoreBufferStallsOnStoreMissFlood)
{
    TimingConfig cfg = smallConfig(1);
    std::vector<trace::Trace> s(1);
    for (size_t i = 0; i < 6000; ++i) {
        trace::MemAccess a;
        a.cpu = 0;
        a.pc = 0x3;
        a.addr = 0xC0000000 + i * (1ull << 20);
        a.ninst = 0;
        a.isWrite = true;
        s[0].push_back(a);
    }
    auto r = runTiming(StreamSet::borrowed(s), cfg);
    EXPECT_GT(r.breakdown.storeBuffer, 0.0);
    EXPECT_GT(r.breakdown.storeBuffer, r.breakdown.offChipRead);
}

TEST(Timing, KernelWorkLandsInSystemBusy)
{
    TimingConfig cfg = smallConfig(1);
    auto streams = hotLoopStreams(1, 5000);
    for (size_t i = 0; i < streams[0].size(); i += 2)
        streams[0][i].isKernel = true;
    auto r = runTiming(StreamSet::borrowed(streams), cfg);
    EXPECT_GT(r.breakdown.systemBusy, 0.0);
    EXPECT_NEAR(r.breakdown.systemBusy / r.breakdown.userBusy, 1.0, 0.1);
    EXPECT_GT(r.systemInstructions, 0u);
}

TEST(Timing, SmsSpeedsUpPatternedMissStream)
{
    // repeating 4-block pattern across many regions; SMS should
    // convert most off-chip read stalls into L1 hits
    auto make = [&](uint32_t regions) {
        std::vector<trace::Trace> s(1);
        for (uint32_t r = 0; r < regions; ++r) {
            uint64_t base = 0xD0000000 + uint64_t{r} * 2048;
            for (uint32_t off : {0u, 2u, 9u, 17u}) {
                trace::MemAccess a;
                a.cpu = 0;
                a.pc = 0x900 + off;
                a.addr = base + off * 64;
                a.ninst = 2;
                s[0].push_back(a);
            }
        }
        return s;
    };

    TimingConfig base = smallConfig(1);
    auto rb = runTiming(StreamSet::borrowed(make(8000)), base);
    std::unique_ptr<driver::PrefetcherDeployment> dep;
    auto rs = runTiming(StreamSet::borrowed(make(8000)), base, 1,
                        registryAttach("sms", dep));

    double speedup = rs.uipc() / rb.uipc();
    EXPECT_GT(speedup, 1.15) << "SMS must hide off-chip read latency";
    EXPECT_LT(rs.breakdown.offChipRead, rb.breakdown.offChipRead);
}

TEST(Timing, BreakdownRoughlyAccountsForCycles)
{
    TimingConfig cfg = smallConfig(2);
    auto r = runTiming(StreamSet::borrowed(hotLoopStreams(2, 10000)),
                       cfg);
    // summed per-cpu breakdown ~ ncpu * elapsed (hot loop: no skew)
    EXPECT_NEAR(r.breakdown.total(), 2.0 * r.cycles,
                0.25 * 2.0 * r.cycles);
}

TEST(Timing, DeterministicAcrossRuns)
{
    TimingConfig cfg = smallConfig(2);
    auto a = runTiming(StreamSet::borrowed(chaseStreams(2, 2000, true)),
                       cfg, 5);
    auto b = runTiming(StreamSet::borrowed(chaseStreams(2, 2000, true)),
                       cfg, 5);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.userInstructions, b.userInstructions);
}

// ---------------------------------------------------------------------
// equivalence vs the container-based reference implementation
// ---------------------------------------------------------------------

#include <deque>
#include <set>

#include "trace/interleaver.hh"
#include "workloads/workload.hh"

namespace {

/**
 * The seed's runTiming, kept verbatim as a reference: materialised
 * merge + per-CPU re-copy, std::multiset MSHRs, std::deque ROB window
 * and store buffer — and the pre-refactor SMS special case
 * (hard-wired core::SmsController construction, the privileged code
 * path the engine-agnostic attach seam replaced). The production path
 * (zero-copy view + fixed ring/heap + registry attach) must reproduce
 * its results bit for bit.
 */
TimingResult
referenceRunTiming(const std::vector<trace::Trace> &streams,
                   const TimingConfig &cfg, uint64_t seed, bool useSms,
                   const core::SmsConfig &smsCfg = {})
{
    enum class Cat : uint8_t { L1, OnChip, OffChip };
    struct Ann
    {
        uint32_t lat = 0;
        Cat cat = Cat::L1;
    };

    const uint32_t ncpu = cfg.sys.ncpu;
    Torus torus(4, 4, cfg.core.hopLatency);

    trace::Interleaver il(1, 16, seed * 977 + 13);
    trace::Trace merged = il.merge(streams);

    mem::MemorySystem sys(cfg.sys);
    std::unique_ptr<core::SmsController> sms;
    if (useSms)
        sms = std::make_unique<core::SmsController>(sys, smsCfg);

    std::vector<std::vector<Ann>> ann(ncpu);
    std::vector<trace::Trace> percpu(ncpu);

    for (const auto &a : merged) {
        mem::AccessOutcome out = sys.access(a);
        Ann an;
        const uint32_t home = torus.homeNode(a.addr);
        switch (out.level) {
          case mem::HitLevel::L1:
            an.lat = cfg.core.l1Latency;
            an.cat = Cat::L1;
            break;
          case mem::HitLevel::L2:
            an.lat = cfg.core.l2Latency;
            an.cat = Cat::OnChip;
            break;
          case mem::HitLevel::Remote:
            an.lat = cfg.core.l2Latency + torus.roundTrip(a.cpu, home) +
                cfg.core.l2Latency;
            an.cat = Cat::OffChip;
            break;
          case mem::HitLevel::Memory:
            an.lat = cfg.core.l2Latency + torus.roundTrip(a.cpu, home) +
                cfg.core.memLatency;
            an.cat = Cat::OffChip;
            break;
        }
        if (a.isWrite && out.l1PrefetchHit) {
            an.lat = std::max<uint32_t>(
                cfg.core.upgradeLatency,
                cfg.core.l2Latency + torus.roundTrip(a.cpu, home) +
                    cfg.core.memLatency);
            an.cat = Cat::OffChip;
        }
        ann[a.cpu].push_back(an);
        percpu[a.cpu].push_back(a);
    }

    TimingResult res;
    for (uint32_t c = 0; c < ncpu; ++c) {
        const auto &refs = percpu[c];
        const auto &as = ann[c];
        const size_t n = refs.size();
        std::vector<double> complete(n, 0.0);

        double retire = 0.0;
        double dispatch = 0.0;
        uint64_t instr_so_far = 0;
        std::deque<std::pair<uint64_t, double>> rob_window;
        std::multiset<double> mshr;
        std::deque<double> sb;
        TimeBreakdown bd;

        for (size_t i = 0; i < n; ++i) {
            const auto &a = refs[i];
            const auto &an = as[i];
            const uint32_t instrs = a.ninst + 1;
            const double slot = double(instrs) / cfg.core.width;
            instr_so_far += instrs;

            dispatch += slot;
            while (!rob_window.empty() &&
                   instr_so_far - rob_window.front().first >
                       cfg.core.robEntries) {
                dispatch = std::max(dispatch, rob_window.front().second);
                rob_window.pop_front();
            }

            double start = dispatch;
            if (a.dep != 0 && a.dep <= i)
                start = std::max(start, complete[i - a.dep]);

            if (!a.isWrite) {
                if (an.cat != Cat::L1) {
                    while (!mshr.empty() && *mshr.begin() <= start)
                        mshr.erase(mshr.begin());
                    if (mshr.size() >= cfg.core.mshrs) {
                        start = std::max(start, *mshr.begin());
                        mshr.erase(mshr.begin());
                    }
                    complete[i] = start + an.lat;
                    mshr.insert(complete[i]);
                } else {
                    complete[i] = start + an.lat;
                }
            } else {
                complete[i] = start + 1.0;
            }

            const double earliest = retire + slot;
            double r = earliest;
            if (!a.isWrite)
                r = std::max(r, complete[i]);

            if (a.isWrite) {
                while (!sb.empty() && sb.front() <= r)
                    sb.pop_front();
                if (sb.size() >= cfg.core.storeBuffer) {
                    double wait = sb.front();
                    sb.pop_front();
                    if (wait > r) {
                        bd.storeBuffer += wait - r;
                        r = wait;
                    }
                }
                const double drain_start =
                    std::max(sb.empty() ? 0.0 : sb.back(), r);
                sb.push_back(drain_start + an.lat);
            } else if (r > earliest) {
                const double stall = r - earliest;
                switch (an.cat) {
                  case Cat::OffChip:
                    bd.offChipRead += stall;
                    break;
                  case Cat::OnChip:
                    bd.onChipRead += stall;
                    break;
                  case Cat::L1:
                    bd.other += stall;
                    break;
                }
            }

            if (a.isKernel)
                bd.systemBusy += slot;
            else
                bd.userBusy += slot;
            const double other = cfg.core.otherStallPerInstr * instrs;
            bd.other += other;
            retire = r + other;
            rob_window.emplace_back(instr_so_far, retire);

            if (a.isKernel)
                res.systemInstructions += instrs;
            else
                res.userInstructions += instrs;
        }

        res.cycles = std::max(res.cycles, retire);
        res.breakdown += bd;
    }
    return res;
}

void
expectBitIdentical(const TimingResult &a, const TimingResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.userInstructions, b.userInstructions);
    EXPECT_EQ(a.systemInstructions, b.systemInstructions);
    EXPECT_EQ(a.breakdown.userBusy, b.breakdown.userBusy);
    EXPECT_EQ(a.breakdown.systemBusy, b.breakdown.systemBusy);
    EXPECT_EQ(a.breakdown.offChipRead, b.breakdown.offChipRead);
    EXPECT_EQ(a.breakdown.onChipRead, b.breakdown.onChipRead);
    EXPECT_EQ(a.breakdown.storeBuffer, b.breakdown.storeBuffer);
    EXPECT_EQ(a.breakdown.other, b.breakdown.other);
}

} // anonymous namespace

TEST(Timing, ZeroCopyPathMatchesReferenceImplementation)
{
    // real workloads, base and SMS configurations: the flat-table /
    // trace-view / fixed-structure hot path must be bit-identical to
    // the container-based reference above
    stems::workloads::WorkloadParams p;
    p.ncpu = 4;
    p.refsPerCpu = 6000;
    p.seed = 3;

    for (const char *name : {"sparse", "OLTP-DB2"}) {
        auto w = stems::workloads::findWorkload(name)->make();
        auto streams = w->generateStreams(p);
        for (bool useSms : {false, true}) {
            TimingConfig cfg = smallConfig(p.ncpu);
            auto ref = referenceRunTiming(streams, cfg, p.seed, useSms);
            std::unique_ptr<driver::PrefetcherDeployment> dep;
            auto got = runTiming(StreamSet::borrowed(streams), cfg,
                                 p.seed, useSms ? registryAttach("sms", dep)
                                        : prefetch::PfAttach{});
            expectBitIdentical(ref, got);
            EXPECT_GT(got.cycles, 0.0);
        }
    }
}

TEST(Timing, GenericSeamBitIdenticalToPrivilegedSmsPath)
{
    // the tentpole guarantee: SMS hosted through the engine-agnostic
    // attach seam — registry construction, option translation and all
    // — reproduces the pre-refactor hard-wired SMS timing path bit for
    // bit, at default and at non-default parameters
    stems::workloads::WorkloadParams p;
    p.ncpu = 4;
    p.refsPerCpu = 6000;
    p.seed = 7;

    auto w = stems::workloads::findWorkload("OLTP-Oracle")->make();
    auto streams = w->generateStreams(p);
    TimingConfig cfg = smallConfig(p.ncpu);

    {
        std::unique_ptr<driver::PrefetcherDeployment> dep;
        auto ref = referenceRunTiming(streams, cfg, p.seed, true);
        auto got = runTiming(StreamSet::borrowed(streams), cfg, p.seed,
                             registryAttach("sms", dep));
        expectBitIdentical(ref, got);
    }
    {
        // non-default engine options must translate identically
        driver::Options opts{{"pht-entries", "1024"},
                             {"pht-assoc", "8"},
                             {"region", "1024"},
                             {"pred-regs", "4"}};
        core::SmsConfig smsCfg = driver::smsConfigFromOptions(opts);
        std::unique_ptr<driver::PrefetcherDeployment> dep;
        auto ref =
            referenceRunTiming(streams, cfg, p.seed, true, smsCfg);
        auto got = runTiming(StreamSet::borrowed(streams), cfg, p.seed,
                             registryAttach("sms", dep, opts));
        expectBitIdentical(ref, got);
    }
}

TEST(Timing, RegistryEnginesProduceDeterministicUipc)
{
    // GHB and stride are first-class timing citizens now: they run,
    // produce a finite uIPC, and are deterministic across repeats
    stems::workloads::WorkloadParams p;
    p.ncpu = 4;
    p.refsPerCpu = 5000;
    p.seed = 5;
    auto w = stems::workloads::findWorkload("sparse")->make();
    auto streams = w->generateStreams(p);
    TimingConfig cfg = smallConfig(p.ncpu);
    auto base = runTiming(StreamSet::borrowed(streams), cfg, p.seed);
    ASSERT_GT(base.uipc(), 0.0);

    for (const char *kind : {"ghb", "stride", "next-line"}) {
        std::unique_ptr<driver::PrefetcherDeployment> dep1, dep2;
        auto a = runTiming(StreamSet::borrowed(streams), cfg, p.seed,
                           registryAttach(kind, dep1));
        auto b = runTiming(StreamSet::borrowed(streams), cfg, p.seed,
                           registryAttach(kind, dep2));
        expectBitIdentical(a, b);
        EXPECT_GT(a.uipc(), 0.0) << kind;
        EXPECT_EQ(a.userInstructions, base.userInstructions) << kind;
    }
}
