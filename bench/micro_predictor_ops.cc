/**
 * @file
 * Microbenchmarks (google-benchmark) of the predictor structures'
 * software cost: AGT access (bounded and unbounded), victimization and
 * eviction-stream misses, the decoupled sectored cache's access, PHT
 * lookup/update, prediction-register streaming and idle polls, GHB
 * observation, full SMS unit access, and the cache model itself.
 * These bound the simulator's throughput and document the relative
 * cost of each structure.
 */

#include <benchmark/benchmark.h>

#include "core/agt.hh"
#include "core/pht.hh"
#include "core/prediction_register.hh"
#include "core/sectored.hh"
#include "core/sms.hh"
#include "mem/cache.hh"
#include "prefetch/ghb.hh"
#include "trace/rng.hh"

using namespace stems;

static void
BM_CacheAccess(benchmark::State &state)
{
    mem::Cache c({64 * 1024, 2, 64});
    trace::Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            c.access(rng.below(1 << 22), false).hit);
    }
}
BENCHMARK(BM_CacheAccess);

static void
BM_AgtAccess(benchmark::State &state)
{
    core::ActiveGenerationTable agt(core::RegionGeometry(),
                                    {32, 64});
    trace::Rng rng(2);
    for (auto _ : state)
        agt.onAccess(0x400000 + rng.below(64) * 4, rng.below(1 << 22));
}
BENCHMARK(BM_AgtAccess);

/**
 * The limit studies' unbounded AGT: both tables grow to hold every
 * live region, and a quarter of the events are the L1's departures
 * that end generations.
 */
static void
BM_AgtAccessUnbounded(benchmark::State &state)
{
    core::ActiveGenerationTable agt(core::RegionGeometry(), {0, 0});
    trace::Rng rng(2);
    uint64_t n = 0;
    for (auto _ : state) {
        if ((++n & 3) == 0)
            agt.onBlockRemoved(rng.below(1 << 22) & ~uint64_t{63}, false);
        else
            agt.onAccess(0x400000 + rng.below(64) * 4, rng.below(1 << 22));
    }
    benchmark::DoNotOptimize(agt.stats().generationsTrained);
}
BENCHMARK(BM_AgtAccessUnbounded);

/** A demand access to Figure 8's decoupled sectored cache. */
static void
BM_DsAccess(benchmark::State &state)
{
    core::DecoupledSectoredCache ds{core::DsConfig{}};
    trace::Rng rng(5);
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            ds.access(0x400000 + rng.below(64) * 4, rng.below(1 << 22),
                      false).hit);
    }
}
BENCHMARK(BM_DsAccess);

/** A full filter table fed only new regions: every access victimizes. */
static void
BM_AgtVictimize(benchmark::State &state)
{
    core::RegionGeometry geom;
    core::ActiveGenerationTable agt(geom, {32, 64});
    uint64_t region = 0;
    for (auto _ : state)
        agt.onAccess(0x400000, ++region * geom.regionSize());
    benchmark::DoNotOptimize(agt.stats().filterVictims);
}
BENCHMARK(BM_AgtVictimize);

/**
 * The L1's eviction stream against full tables: nearly every departing
 * block belongs to a region the AGT does not hold.
 */
static void
BM_AgtRemovalMiss(benchmark::State &state)
{
    core::RegionGeometry geom;
    core::ActiveGenerationTable agt(geom, {32, 64});
    for (uint64_t r = 0; r < 64; ++r) {  // fill the accumulation table
        agt.onAccess(0x400000, r * geom.regionSize());
        agt.onAccess(0x400004, r * geom.regionSize() + 64);
    }
    for (uint64_t r = 64; r < 96; ++r)  // and the filter table
        agt.onAccess(0x400000, r * geom.regionSize());
    trace::Rng rng(7);
    for (auto _ : state)
        agt.onBlockRemoved((96 + rng.below(1 << 20)) * geom.regionSize(),
                           false);
    benchmark::DoNotOptimize(agt.stats().generationsTrained);
}
BENCHMARK(BM_AgtRemovalMiss);

static void
BM_PhtLookup(benchmark::State &state)
{
    core::PatternHistoryTable pht({16384, 16});
    core::SpatialPattern p;
    p.set(3);
    p.set(9);
    for (uint64_t k = 0; k < 16384; ++k)
        pht.update(k * 977, p);
    trace::Rng rng(3);
    for (auto _ : state)
        benchmark::DoNotOptimize(pht.lookup(rng.below(1 << 20)));
}
BENCHMARK(BM_PhtLookup);

static void
BM_PhtUpdate(benchmark::State &state)
{
    core::PatternHistoryTable pht({16384, 16});
    core::SpatialPattern p;
    p.set(1);
    trace::Rng rng(4);
    for (auto _ : state)
        pht.update(rng.below(1 << 20), p);
}
BENCHMARK(BM_PhtUpdate);

static void
BM_PrfStream(benchmark::State &state)
{
    core::RegionGeometry geom;
    core::PredictionRegisterFile prf(16, geom);
    core::SpatialPattern p;
    for (uint32_t b = 0; b < 32; b += 2)
        p.set(b);
    uint64_t region = 0;
    for (auto _ : state) {
        prf.allocate(region, p, 0);
        region += 2048;
        while (auto r = prf.nextRequest())
            benchmark::DoNotOptimize(*r);
    }
}
BENCHMARK(BM_PrfStream);

/** The closing call of every eager drain: no register is busy. */
static void
BM_PrfIdle(benchmark::State &state)
{
    core::RegionGeometry geom;
    core::PredictionRegisterFile prf(16, geom);
    for (auto _ : state)
        benchmark::DoNotOptimize(prf.nextRequest());
}
BENCHMARK(BM_PrfIdle);

static void
BM_GhbObserve(benchmark::State &state)
{
    prefetch::GhbPcDc ghb(prefetch::GhbConfig{});
    std::vector<uint64_t> out;
    trace::Rng rng(5);
    uint64_t addr = 0;
    for (auto _ : state) {
        prefetch::ObservedAccess a;
        a.pc = 0x10 + rng.below(8);
        addr += 256;
        a.addr = addr;
        a.level = mem::HitLevel::Memory;
        out.clear();
        ghb.observe(a, out);
        benchmark::DoNotOptimize(out.size());
    }
}
BENCHMARK(BM_GhbObserve);

static void
BM_SmsUnitAccess(benchmark::State &state)
{
    core::SmsConfig cfg;
    uint64_t sink = 0;
    core::SmsUnit unit(0, cfg, [&](uint32_t, uint64_t a, bool) {
        sink += a;
    });
    trace::Rng rng(6);
    for (auto _ : state)
        unit.onAccess(0x400000 + rng.below(64) * 4, rng.below(1 << 24));
    benchmark::DoNotOptimize(sink);
}
BENCHMARK(BM_SmsUnitAccess);

BENCHMARK_MAIN();
