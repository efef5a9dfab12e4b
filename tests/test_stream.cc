/**
 * @file
 * Streaming trace pipeline tests: v4 mapped spills vs materialised
 * replay must be bit-identical through every consumer (system study,
 * L1 study, timing model, every registry engine), truncated or
 * corrupt spills must be rejected before any view is handed out, and the
 * runner's look-ahead warmer must never change a report byte — across
 * thread counts and across the dispatch wire.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <unistd.h>

#include "dispatch/coordinator.hh"
#include "dispatch/journal.hh"
#include "driver/registry.hh"
#include "driver/report.hh"
#include "driver/spec.hh"
#include "obs/counters.hh"
#include "sim/timing.hh"
#include "study/l1study.hh"
#include "study/memstudy.hh"
#include "study/suite.hh"
#include "trace/interleaver.hh"
#include "trace/io.hh"
#include "trace/stream.hh"
#include "workloads/workload.hh"

using namespace stems;
using namespace stems::driver;

namespace {

std::string
tempDir(const char *tag)
{
    auto dir = std::filesystem::temp_directory_path() /
        (std::string("stems_stream_") + tag + "_" +
         std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

std::vector<trace::Trace>
makeStreams(const char *workload, uint32_t ncpu, uint64_t refs,
            uint64_t seed)
{
    workloads::WorkloadParams p;
    p.ncpu = ncpu;
    p.refsPerCpu = refs;
    p.seed = seed;
    const workloads::SuiteEntry *e = workloads::findWorkload(workload);
    EXPECT_NE(e, nullptr) << workload;
    return e->make()->generateStreams(p);
}

/** Spill @p streams to a v4 file and map it back. */
std::shared_ptr<trace::MappedTrace>
spillAndMap(const std::vector<trace::Trace> &streams,
            const std::string &file, uint64_t hash = 0)
{
    EXPECT_TRUE(trace::writeTraceStreams(streams, file, hash));
    return trace::MappedTrace::open(file, hash);
}

bool
sameAccess(const trace::MemAccess &a, const trace::MemAccess &b)
{
    return a.pc == b.pc && a.addr == b.addr && a.cpu == b.cpu &&
        a.ninst == b.ninst && a.dep == b.dep && a.size == b.size &&
        a.isWrite == b.isWrite && a.isKernel == b.isKernel;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// mapped spill round trip
// ---------------------------------------------------------------------

TEST(StreamIo, MappedSectionsMatchWrittenStreams)
{
    const std::string dir = tempDir("roundtrip");
    const std::string file = dir + "/t.stmt";
    auto streams = makeStreams("sparse", 4, 2000, 11);

    auto m = spillAndMap(streams, file, 0x1234);
    ASSERT_NE(m, nullptr);
    ASSERT_EQ(m->numStreams(), streams.size());
    EXPECT_EQ(m->totalRefs(), 4u * streams[0].size());
    EXPECT_EQ(m->bytes(), std::filesystem::file_size(file));

    for (size_t s = 0; s < streams.size(); ++s) {
        ASSERT_EQ(m->streamCount(s), streams[s].size());
        const trace::MemAccess *rec = m->streamData(s);
        for (size_t i = 0; i < streams[s].size(); ++i) {
            trace::MemAccess want = streams[s][i];
            // the writer stamps the canonical stream identity
            want.cpu = static_cast<uint32_t>(s);
            EXPECT_TRUE(sameAccess(rec[i], want)) << s << ":" << i;
        }
    }
    std::filesystem::remove_all(dir);
}

TEST(StreamIo, InterleavedViewOverMappedMatchesVectors)
{
    const std::string dir = tempDir("view");
    auto streams = makeStreams("graph", 3, 1500, 5);
    auto m = spillAndMap(streams, dir + "/t.stmt");
    ASSERT_NE(m, nullptr);

    const uint64_t seed = 5;
    trace::InterleavedView a =
        trace::canonicalView(trace::StreamSet::borrowed(streams), seed);
    trace::InterleavedView b =
        trace::canonicalView(trace::StreamSet::mapped(m), seed);
    ASSERT_EQ(a.size(), b.size());

    trace::MemAccess x, y;
    size_t n = 0;
    while (a.next(x)) {
        ASSERT_TRUE(b.next(y)) << n;
        ASSERT_TRUE(sameAccess(x, y)) << n;
        ++n;
    }
    EXPECT_FALSE(b.next(y));
    EXPECT_EQ(n, a.size());
    std::filesystem::remove_all(dir);
}

TEST(StreamIo, StreamSetMaterializeEqualsMappedSections)
{
    const std::string dir = tempDir("mat");
    auto streams = makeStreams("sparse", 2, 1000, 9);
    auto m = spillAndMap(streams, dir + "/t.stmt");
    ASSERT_NE(m, nullptr);

    auto copy = trace::StreamSet::mapped(m).materialize();
    ASSERT_EQ(copy.size(), streams.size());
    for (size_t s = 0; s < streams.size(); ++s) {
        ASSERT_EQ(copy[s].size(), streams[s].size());
        for (size_t i = 0; i < copy[s].size(); ++i) {
            trace::MemAccess want = streams[s][i];
            want.cpu = static_cast<uint32_t>(s);
            ASSERT_TRUE(sameAccess(copy[s][i], want));
        }
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// bit-identity across engines and consumers
// ---------------------------------------------------------------------

TEST(StreamEquivalence, SystemStudyEveryEngineMappedVsVectors)
{
    const std::string dir = tempDir("sysall");
    auto streams = makeStreams("sparse", 2, 2000, 7);
    auto m = spillAndMap(streams, dir + "/t.stmt");
    ASSERT_NE(m, nullptr);
    const trace::StreamSet mapped = trace::StreamSet::mapped(m);

    for (const auto &engine : PrefetcherRegistry::builtin().names()) {
        study::SystemStudyConfig scfg;
        scfg.sys.ncpu = 2;
        scfg.oracleRegionSizes = {1024};

        std::unique_ptr<PrefetcherDeployment> d1, d2;
        auto live = study::runSystem(
            trace::StreamSet::borrowed(streams), scfg, 7, registryAttach(engine, d1, {}));
        auto view = study::runSystem(
            mapped, scfg, 7, registryAttach(engine, d2, {}));

        EXPECT_EQ(live.instructions, view.instructions) << engine;
        EXPECT_EQ(live.l1ReadMisses, view.l1ReadMisses) << engine;
        EXPECT_EQ(live.l2ReadMisses, view.l2ReadMisses) << engine;
        EXPECT_EQ(live.l1Covered, view.l1Covered) << engine;
        EXPECT_EQ(live.l2Covered, view.l2Covered) << engine;
        EXPECT_EQ(live.l1Overpred, view.l1Overpred) << engine;
        EXPECT_EQ(live.l2Overpred, view.l2Overpred) << engine;
        EXPECT_EQ(live.trueSharing, view.trueSharing) << engine;
        EXPECT_EQ(live.falseSharing, view.falseSharing) << engine;
        EXPECT_EQ(live.oracleL1Gens, view.oracleL1Gens) << engine;
        EXPECT_EQ(live.oracleL2Gens, view.oracleL2Gens) << engine;
    }
    std::filesystem::remove_all(dir);
}

TEST(StreamEquivalence, TimingEveryEngineMappedVsVectors)
{
    const std::string dir = tempDir("timall");
    auto streams = makeStreams("graph", 2, 2000, 3);
    auto m = spillAndMap(streams, dir + "/t.stmt");
    ASSERT_NE(m, nullptr);
    const trace::StreamSet mapped = trace::StreamSet::mapped(m);

    for (const auto &engine : PrefetcherRegistry::builtin().names()) {
        sim::TimingConfig tc;
        tc.sys.ncpu = 2;

        std::unique_ptr<PrefetcherDeployment> d1, d2;
        auto live =
            sim::runTiming(trace::StreamSet::borrowed(streams), tc, 3,
                           registryAttach(engine, d1, {}));
        auto view =
            sim::runTiming(mapped, tc, 3, registryAttach(engine, d2, {}));

        EXPECT_EQ(live.cycles, view.cycles) << engine;
        EXPECT_EQ(live.userInstructions, view.userInstructions) << engine;
        EXPECT_EQ(live.systemInstructions, view.systemInstructions)
            << engine;
        EXPECT_EQ(live.breakdown.offChipRead, view.breakdown.offChipRead)
            << engine;
        EXPECT_EQ(live.breakdown.storeBuffer, view.breakdown.storeBuffer)
            << engine;
        EXPECT_EQ(live.uipc(), view.uipc()) << engine;
    }
    std::filesystem::remove_all(dir);
}

TEST(StreamEquivalence, L1StudyMappedVsVectors)
{
    const std::string dir = tempDir("l1view");
    auto streams = makeStreams("sparse", 2, 2000, 19);
    auto m = spillAndMap(streams, dir + "/t.stmt");
    ASSERT_NE(m, nullptr);

    for (bool prefetch : {false, true}) {
        study::L1StudyConfig lcfg;
        lcfg.ncpu = 2;
        lcfg.prefetch = prefetch;

        auto live = study::runL1Study(trace::StreamSet::borrowed(streams),
                                      lcfg, 19);
        auto view =
            study::runL1Study(trace::StreamSet::mapped(m), lcfg, 19);

        EXPECT_EQ(live.instructions, view.instructions);
        EXPECT_EQ(live.readAccesses, view.readAccesses);
        EXPECT_EQ(live.readMisses, view.readMisses);
        EXPECT_EQ(live.coveredReads, view.coveredReads);
        EXPECT_EQ(live.overpredictions, view.overpredictions);
        EXPECT_EQ(live.peakAccumOccupancy, view.peakAccumOccupancy);
        EXPECT_EQ(live.peakFilterOccupancy, view.peakFilterOccupancy);
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// truncation / corruption safety
// ---------------------------------------------------------------------

TEST(StreamSafety, TruncatedPayloadRejectedBeforeAnyView)
{
    const std::string dir = tempDir("trunc");
    const std::string file = dir + "/t.stmt";
    auto streams = makeStreams("sparse", 2, 1200, 29);
    ASSERT_TRUE(trace::writeTraceStreams(streams, file));
    const auto full = std::filesystem::file_size(file);

    // mid-file truncation: drop the tail half (not even record-aligned)
    std::filesystem::resize_file(file, full / 2 + 13);
    EXPECT_EQ(trace::MappedTrace::open(file), nullptr);

    // shorter than the fixed header prefix
    std::filesystem::resize_file(file, trace::kTraceHeaderBytes / 2);
    EXPECT_EQ(trace::MappedTrace::open(file), nullptr);
    std::filesystem::remove_all(dir);
}

TEST(StreamSafety, FlippedPayloadByteRejectedByChecksum)
{
    const std::string dir = tempDir("flip");
    const std::string file = dir + "/t.stmt";
    auto streams = makeStreams("sparse", 2, 1200, 31);
    ASSERT_TRUE(trace::writeTraceStreams(streams, file));

    {
        std::fstream f(file,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(static_cast<std::streamoff>(trace::tracePayloadOffset(2)) +
                777);
        char c;
        f.seekg(f.tellp());
        f.get(c);
        f.seekp(-1, std::ios::cur);
        f.put(static_cast<char>(c ^ 0x40));
    }
    EXPECT_EQ(trace::MappedTrace::open(file), nullptr);
    std::filesystem::remove_all(dir);
}

TEST(StreamSafety, TraceCacheRegeneratesOverTruncatedSpill)
{
    const std::string dir = tempDir("truncregen");
    workloads::WorkloadParams p;
    p.ncpu = 2;
    p.refsPerCpu = 1500;
    p.seed = 3;

    study::TraceCache writer;
    writer.setSpillDir(dir);
    const trace::Trace live = trace::canonicalInterleaver(p.seed).merge(
        writer.viewSet("graph", p).materialize());

    std::string file;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".stmt")
            file = e.path().string();
    ASSERT_FALSE(file.empty());
    std::filesystem::resize_file(
        file, std::filesystem::file_size(file) * 2 / 3);

    // a truncated spill is a cache miss — never a SIGBUS: the reader
    // regenerates, rewrites the spill, and replays the same trace
    study::TraceCache reader;
    reader.setSpillDir(dir);
    const trace::StreamSet &set = reader.viewSet("graph", p);
    EXPECT_TRUE(live ==
                trace::canonicalInterleaver(p.seed)
                    .merge(set.materialize()));
    EXPECT_GT(std::filesystem::file_size(file),
              trace::tracePayloadOffset(2));
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// always-on look-ahead warmer
// ---------------------------------------------------------------------

namespace {

std::vector<std::string>
streamTokens(const std::string &dir)
{
    return {"workloads=sparse,graph", "prefetchers=sms,ghb",
            "ncpu=4",  "refs=3000", "seed=7", "wall=0",
            "trace-dir=" + dir};
}

} // anonymous namespace

TEST(Streamer, ReportsIdenticalAcrossThreadCountsAndVsStreamingOff)
{
    const std::string dir = tempDir("streamer");
    auto tokens = streamTokens(dir);
    const ExperimentSpec ref = parseSpec(tokens);

    // streaming off: the executor alone, one cell after another, with
    // no lanes and no warmer
    CellExecutor exec(executorConfig(ref));
    std::vector<CellResult> rOff;
    for (const auto &cell : selectedCells(ref))
        rOff.push_back(exec.execute(cell));

    tokens.push_back("threads=1");
    ExperimentSpec one = parseSpec(tokens);
    tokens.back() = "threads=4";
    ExperimentSpec four = parseSpec(tokens);

    auto r1 = dispatch::runSpec(one);
    auto r4 = dispatch::runSpec(four);
    ASSERT_EQ(r1.size(), 4u);
    for (auto *rs : {&rOff, &r1, &r4})
        for (auto &r : *rs) {
            ASSERT_TRUE(r.error.empty()) << r.error;
            r.metrics.setValue(Metric::wallMs, 0);
        }
    // look-ahead on vs off, 1 vs 4 threads: byte-identical reports
    const std::string jOff = toJson(ref, rOff);
    const std::string j1 = toJson(ref, r1);
    const std::string j4 = toJson(ref, r4);
    EXPECT_EQ(jOff, j1);
    EXPECT_EQ(j1, j4);
    std::filesystem::remove_all(dir);
}

TEST(Streamer, PrefetchesAheadAndCountsSlotTiedMisses)
{
    for (const char *threads : {"threads=1", "threads=4"}) {
        SCOPED_TRACE(threads);
        const std::string dir = tempDir("streamcnt");
        obs::Counters::get().reset();

        auto tokens = streamTokens(dir);
        tokens.push_back(threads);
        auto results = dispatch::runSpec(parseSpec(tokens));
        ASSERT_EQ(results.size(), 4u);

        uint64_t misses = 0, prefetches = 0, stalls = 0;
        for (const auto &[name, v] : obs::snapshotCounters()) {
            if (name == "trace_cache_misses")
                misses = v;
            else if (name == "trace_prefetch_ahead")
                prefetches = v;
            else if (name == "stream_stalls")
                stalls = v;
        }
        // misses stay slot-tied (2 workloads) no matter who generated;
        // each lane claim counts at most one stall, and the warmer
        // prepares each cell at most once
        EXPECT_EQ(misses, 2u);
        EXPECT_LE(stalls, results.size());
        EXPECT_LE(prefetches, results.size());

        // second run replays the spills through the mapped path
        obs::Counters::get().reset();
        auto replay = dispatch::runSpec(parseSpec(tokens));
        ASSERT_EQ(replay.size(), 4u);
        uint64_t replayMapped = 0;
        for (const auto &[name, v] : obs::snapshotCounters())
            if (name == "trace_bytes_mapped")
                replayMapped = v;
        EXPECT_GT(replayMapped, 0u);
        obs::Counters::get().reset();
        std::filesystem::remove_all(dir);
    }
}

TEST(Streamer, DispatchedMatchesInProcWithStreaming)
{
    const std::string dir = tempDir("streamdisp");

    ExperimentSpec inproc = parseSpec(streamTokens(dir));
    const std::string clean = toJson(inproc, dispatch::runSpec(inproc));

    ExperimentSpec disp = parseSpec(streamTokens(dir));
    disp.dispatch = 2;
    disp.dispatchWorkerExe =
        (std::filesystem::path(dispatch::selfExePath()).parent_path() /
         "stems")
            .string();
    const std::string wire = toJson(inproc, dispatch::runSpec(disp));
    EXPECT_EQ(clean, wire);
    std::filesystem::remove_all(dir);
}
