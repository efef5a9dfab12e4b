/**
 * @file
 * Dispatch subsystem tests: the JSON reader and wire protocol round
 * trips, multi-process runs producing reports byte-identical to the
 * in-process runner (the fig11 and abl_sms_params cell sets), worker
 * crash/timeout recovery, retry-cap error capture, which workloads
 * each worker is handed, report merging (identity, associativity,
 * idempotence, ok-repairs-error), the timing-only cell mode, and
 * per-cell cache-geometry sweeps.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>
#include <vector>

#include "dispatch/coordinator.hh"
#include "dispatch/json.hh"
#include "dispatch/journal.hh"
#include "dispatch/merge.hh"
#include "dispatch/wire.hh"
#include "driver/report.hh"
#include "driver/spec.hh"
#include "obs/counters.hh"

using namespace stems;
using namespace stems::dispatch;
using namespace stems::driver;

namespace {

/** The stems CLI sits next to this test binary in the build tree. */
std::string
stemsBinary()
{
    return (std::filesystem::path(selfExePath()).parent_path() /
            "stems")
        .string();
}

DispatchConfig
localConfig(uint32_t workers)
{
    DispatchConfig cfg;
    cfg.workers = workers;
    cfg.workerExe = stemsBinary();
    return cfg;
}

/** Figure 11's cell matrix (SMS practical vs GHB), scaled down. */
std::vector<std::string>
fig11Tokens()
{
    return {"workloads=paper",
            "prefetchers=ghb:GHB-256,ghb:GHB-16k,sms:SMS",
            "pf.GHB-256.ghb-entries=256",
            "pf.GHB-256.it-entries=256",
            "pf.GHB-16k.ghb-entries=16384",
            "pf.GHB-16k.it-entries=1024",
            "ncpu=4", "refs=2000", "seed=3", "wall=0"};
}

/** abl_sms_params' variant matrix (mode=l1), scaled down. */
std::vector<std::string>
ablTokens()
{
    return {"mode=l1", "workloads=paper",
            "prefetchers=sms:practical,sms:pht-union,sms:1-pred-reg,"
            "sms:4-pred-regs,sms:no-filter",
            "pf.pht-union.pht-update=union",
            "pf.1-pred-reg.pred-regs=1",
            "pf.4-pred-regs.pred-regs=4",
            "pf.no-filter.agt-filter=1",
            "pf.no-filter.agt-accum=96",
            "ncpu=4", "refs=2000", "seed=3", "wall=0"};
}

std::string
inProcessJson(const ExperimentSpec &spec)
{
    return toJson(spec, dispatch::runSpec(spec));
}

std::string
dispatchedJson(const ExperimentSpec &spec, uint32_t workers,
               DispatchConfig cfg = {})
{
    if (cfg.workerExe.empty())
        cfg = localConfig(workers);
    cfg.workers = workers;
    Coordinator coord(spec, cfg);
    return toJson(spec, coord.run());
}

/** Scoped environment variable for the worker fault hooks. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv() { ::unsetenv(name); }

  private:
    const char *name;
};

std::string
tempPath(const char *tag)
{
    return (std::filesystem::temp_directory_path() /
            (std::string("stems_dispatch_") + tag + "_" +
             std::to_string(::getpid())))
        .string();
}

uint64_t
counterValue(const std::vector<std::pair<std::string, uint64_t>> &snap,
             const std::string &name)
{
    for (const auto &[k, v] : snap)
        if (k == name)
            return v;
    ADD_FAILURE() << "no counter named " << name;
    return 0;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// json reader
// ---------------------------------------------------------------------

TEST(DispatchJson, ParsesScalarsArraysObjects)
{
    const JsonValue v = parseJson(
        R"({"a":1,"b":-2.5e3,"c":"x\ny","d":[true,false,null],"e":{}})");
    ASSERT_EQ(v.kind, JsonValue::Kind::Object);
    EXPECT_EQ(v.at("a").asU64(), 1u);
    EXPECT_DOUBLE_EQ(v.at("b").asDouble(), -2500.0);
    EXPECT_EQ(v.at("c").asString(), "x\ny");
    ASSERT_EQ(v.at("d").items.size(), 3u);
    EXPECT_TRUE(v.at("d").items[0].asBool());
    EXPECT_FALSE(v.at("d").items[1].asBool());
    EXPECT_EQ(v.at("d").items[2].kind, JsonValue::Kind::Null);
    EXPECT_TRUE(v.at("e").members.empty());
    EXPECT_EQ(v.find("missing"), nullptr);
}

TEST(DispatchJson, RawSpansSpliceBack)
{
    const std::string src = R"({"cells":[{"id":0},{"id":1}]})";
    const JsonValue v = parseJson(src);
    const JsonValue &cells = v.at("cells");
    ASSERT_EQ(cells.items.size(), 2u);
    EXPECT_EQ(src.substr(cells.items[0].rawBegin,
                         cells.items[0].rawEnd -
                             cells.items[0].rawBegin),
              "{\"id\":0}");
    EXPECT_EQ(src.substr(cells.items[1].rawBegin,
                         cells.items[1].rawEnd -
                             cells.items[1].rawBegin),
              "{\"id\":1}");
}

TEST(DispatchJson, RejectsMalformedInput)
{
    EXPECT_THROW(parseJson("{"), std::invalid_argument);
    EXPECT_THROW(parseJson("{\"a\":}"), std::invalid_argument);
    EXPECT_THROW(parseJson("[1,]"), std::invalid_argument);
    EXPECT_THROW(parseJson("{} trailing"), std::invalid_argument);
    EXPECT_THROW(parseJson("nul"), std::invalid_argument);
}

// ---------------------------------------------------------------------
// wire protocol
// ---------------------------------------------------------------------

TEST(DispatchWire, CellJobRoundTrips)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms:variant",
         "pf.variant.pht-entries=1024", "sweep.pred-regs=4,16",
         "mode=l1", "ncpu=8", "refs=12345", "seed=42", "l1-kb=32"});
    auto cells = expandSpec(spec);
    ASSERT_EQ(cells.size(), 2u);
    for (const auto &cell : cells) {
        const RunCell back =
            decodeCellJob(parseJson(encodeCellJob(cell)));
        EXPECT_EQ(back.id, cell.id);
        EXPECT_EQ(back.workload, cell.workload);
        EXPECT_EQ(back.engine.kind, cell.engine.kind);
        EXPECT_EQ(back.engine.label, cell.engine.label);
        EXPECT_EQ(back.engine.options, cell.engine.options);
        EXPECT_EQ(back.sweepPoint, cell.sweepPoint);
        EXPECT_EQ(back.params.ncpu, cell.params.ncpu);
        EXPECT_EQ(back.params.refsPerCpu, cell.params.refsPerCpu);
        EXPECT_EQ(back.params.seed, cell.params.seed);
        EXPECT_EQ(back.sys.ncpu, cell.sys.ncpu);
        EXPECT_EQ(back.sys.l1.sizeBytes, cell.sys.l1.sizeBytes);
        EXPECT_EQ(back.sys.l1.assoc, cell.sys.l1.assoc);
        EXPECT_EQ(back.sys.l2.blockSize, cell.sys.l2.blockSize);
        EXPECT_EQ(back.mode, cell.mode);
        EXPECT_EQ(back.timing, cell.timing);
        EXPECT_EQ(back.timingOnly, cell.timingOnly);
    }
}

TEST(DispatchWire, ResultRoundTripsDoublesBitExactly)
{
    const metric::Builtin &M = metric::ids();
    CellResult r;
    r.cell.id = 7;
    r.metrics.setU64(M.instructions, 123456789);
    r.metrics.setU64(M.l1ReadMisses, 42);
    r.metrics.setU64(M.falseSharing, 17);
    r.metrics.setVec(M.oracleL1Gens, {1, 2, 3});
    r.metrics.setVec(M.oracleL2Gens, {4, 5, 6});
    r.metrics.setValue(M.uipc, 1.0 / 3.0);  // not exactly printable
    r.metrics.setValue(M.baselineUipc, 0.1234567890123456);
    r.metrics.setValue(M.speedup, 1.3333333333333333);
    r.metrics.setU64(M.peakAccumOccupancy, 77);
    r.metrics.setU64(M.peakFilterOccupancy, 11);
    sim::TimingResult t;
    t.cycles = 9876.5432101234;
    t.userInstructions = 4242;
    t.systemInstructions = 17;
    t.breakdown.offChipRead = 2.0 / 7.0;
    t.breakdown.storeBuffer = 1e-17;
    r.metrics.setTimingResult(M.timing, t);
    sim::TimingResult bt;
    bt.cycles = 12345.000001;
    bt.breakdown.userBusy = 0.3333333333333333;
    r.metrics.setTimingResult(M.baselineTiming, bt);
    r.metrics.setWallMs(0.0);
    r.metrics.pfCounters = {{"triggers", 9}, {"pht_hits", 8}};
    r.error = "";

    const CellResult back = decodeResult(parseJson(encodeResult(r)));
    EXPECT_EQ(back.cell.id, r.cell.id);
    EXPECT_EQ(back.metrics.instructions(), r.metrics.instructions());
    EXPECT_EQ(back.metrics.l1ReadMisses(), r.metrics.l1ReadMisses());
    EXPECT_EQ(back.metrics.falseSharing(), r.metrics.falseSharing());
    EXPECT_EQ(back.metrics.oracleL1Gens(), r.metrics.oracleL1Gens());
    EXPECT_EQ(back.metrics.oracleL2Gens(), r.metrics.oracleL2Gens());
    // bit-exact, not approximately equal — the report must be
    // byte-identical to a single-process run
    EXPECT_EQ(back.metrics.uipc(), r.metrics.uipc());
    EXPECT_EQ(back.metrics.baselineUipc(), r.metrics.baselineUipc());
    EXPECT_EQ(back.metrics.speedup(), r.metrics.speedup());
    EXPECT_EQ(back.metrics.peakAccumOccupancy(),
              r.metrics.peakAccumOccupancy());
    EXPECT_EQ(back.metrics.peakFilterOccupancy(),
              r.metrics.peakFilterOccupancy());
    EXPECT_EQ(back.metrics.timing().cycles, t.cycles);
    EXPECT_EQ(back.metrics.timing().userInstructions,
              t.userInstructions);
    EXPECT_EQ(back.metrics.timing().systemInstructions,
              t.systemInstructions);
    EXPECT_EQ(back.metrics.timing().breakdown.offChipRead,
              t.breakdown.offChipRead);
    EXPECT_EQ(back.metrics.timing().breakdown.storeBuffer,
              t.breakdown.storeBuffer);
    EXPECT_EQ(back.metrics.baselineTiming().cycles, bt.cycles);
    EXPECT_EQ(back.metrics.baselineTiming().breakdown.userBusy,
              bt.breakdown.userBusy);
    EXPECT_EQ(back.metrics.pfCounters, r.metrics.pfCounters);
    EXPECT_TRUE(back.error.empty());
    // absent families stay absent across the wire
    EXPECT_FALSE(back.metrics.present(M.l1Density));
    EXPECT_TRUE(back.metrics.present(M.oracleL1Gens));
}

TEST(DispatchWire, HistogramAndVectorFamiliesRoundTrip)
{
    // protocol v3: histogram/vector families ride under their schema
    // names with no per-family wire code
    const metric::Builtin &M = metric::ids();
    CellResult r;
    r.cell.id = 3;
    r.metrics.setVec(M.l1Density, {10, 20, 30, 40, 50, 60, 70});
    r.metrics.setVec(M.l2Density, {1, 0, 0, 2, 0, 0, 3});
    r.metrics.setVec(M.oracleL1Gens, {});
    const CellResult back = decodeResult(parseJson(encodeResult(r)));
    EXPECT_EQ(back.metrics.l1Density(), r.metrics.l1Density());
    EXPECT_EQ(back.metrics.l2Density(), r.metrics.l2Density());
    EXPECT_TRUE(back.metrics.present(M.oracleL1Gens));
    EXPECT_TRUE(back.metrics.oracleL1Gens().empty());
    EXPECT_FALSE(back.metrics.present(M.oracleL2Gens));
    EXPECT_FALSE(back.metrics.present(M.instructions));
}

TEST(DispatchWire, RejectsUnknownMetricFamily)
{
    EXPECT_THROW(
        decodeResult(parseJson(
            R"({"type":"result","id":1,"error":"",)"
            R"("metrics":{"no_such_family":1},"counters":[]})")),
        std::invalid_argument);
}

TEST(DispatchWire, FrameDecoderHandlesChunkedDelivery)
{
    const std::string payload = R"({"type":"ready","pid":1})";
    const std::string frame = frameBytes(payload);
    FrameDecoder dec;
    std::string out;
    // feed one byte at a time: no frame until the terminator arrives
    for (size_t i = 0; i + 1 < frame.size(); ++i) {
        dec.feed(&frame[i], 1);
        EXPECT_FALSE(dec.next(out)) << "at byte " << i;
    }
    dec.feed(&frame[frame.size() - 1], 1);
    ASSERT_TRUE(dec.next(out));
    EXPECT_EQ(out, payload);
    // two frames in one feed
    dec.feed(frame.data(), frame.size());
    dec.feed(frame.data(), frame.size());
    ASSERT_TRUE(dec.next(out));
    ASSERT_TRUE(dec.next(out));
    EXPECT_FALSE(dec.next(out));
    // the offset counts every byte of the frames produced so far
    EXPECT_EQ(dec.offset(), 3 * frame.size());
}

TEST(DispatchWire, FrameDecoderRejectsCorruptPrefix)
{
    FrameDecoder dec;
    std::string out;
    dec.feed("garbage\n", 8);
    EXPECT_THROW(dec.next(out), std::invalid_argument);
}

// ---------------------------------------------------------------------
// dispatched runs vs the in-process runner
// ---------------------------------------------------------------------

TEST(Dispatch, Fig11CellsByteIdenticalToInProcess)
{
    ExperimentSpec spec = parseSpec(fig11Tokens());
    const std::string inproc = inProcessJson(spec);
    const std::string dispatched = dispatchedJson(spec, 4);
    EXPECT_EQ(inproc, dispatched);
    EXPECT_EQ(inproc.find("\"error\""), std::string::npos);
}

TEST(Dispatch, AblCellsByteIdenticalToInProcess)
{
    ExperimentSpec spec = parseSpec(ablTokens());
    const std::string inproc = inProcessJson(spec);
    const std::string dispatched = dispatchedJson(spec, 4);
    EXPECT_EQ(inproc, dispatched);
    EXPECT_EQ(inproc.find("\"error\""), std::string::npos);
}

TEST(Dispatch, DensityHistogramCellsByteIdenticalToInProcess)
{
    // protocol v3 carries the l1_density/l2_density histogram families
    // (and the oracle vectors) bit-exactly: a dispatched Figure-5 run
    // must reproduce the in-process report byte for byte
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse,Apache", "prefetchers=sms,none",
         "density=2048", "oracle-regions=512,2048", "ncpu=4",
         "refs=2000", "seed=3", "wall=0"});
    const std::string inproc = inProcessJson(spec);
    const std::string dispatched = dispatchedJson(spec, 2);
    EXPECT_EQ(inproc, dispatched);
    EXPECT_NE(inproc.find("\"l1_density\""), std::string::npos);
    EXPECT_NE(inproc.find("\"oracle\""), std::string::npos);
    EXPECT_EQ(inproc.find("\"error\""), std::string::npos);
}

TEST(Dispatch, TrainerSweepCellsByteIdenticalToInProcess)
{
    // the trainer= axis (DS/LS/AGT training structures) over the wire
    ExperimentSpec spec = parseSpec(
        {"mode=l1", "workloads=sparse,Apache", "prefetchers=sms",
         "opt.pht-entries=0", "opt.agt-filter=0", "opt.agt-accum=0",
         "sweep.trainer=ds,ls,agt", "ncpu=4", "refs=2000", "seed=3",
         "wall=0"});
    const std::string inproc = inProcessJson(spec);
    const std::string dispatched = dispatchedJson(spec, 2);
    EXPECT_EQ(inproc, dispatched);
    EXPECT_EQ(inproc.find("\"error\""), std::string::npos);
}

TEST(Dispatch, GhbStrideTimingCellsByteIdenticalToInProcess)
{
    // the engine-agnostic timing pipeline over the wire: GHB and
    // stride uIPC/speedup cells dispatched to worker processes must
    // reproduce the in-process report byte for byte
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse,packet", "prefetchers=ghb,stride,sms,none",
         "timing=only", "ncpu=4", "refs=2000", "seed=9", "wall=0"});
    const std::string inproc = inProcessJson(spec);
    const std::string dispatched = dispatchedJson(spec, 4);
    EXPECT_EQ(inproc, dispatched);
    EXPECT_EQ(inproc.find("\"error\""), std::string::npos);
    // the dispatched cells really carry timing numbers
    EXPECT_NE(inproc.find("\"uipc\""), std::string::npos);
}

TEST(Dispatch, WorkerKillMidRunRecoversByteIdentically)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse,graph", "prefetchers=sms,none", "ncpu=4",
         "refs=2000", "seed=13", "wall=0"});
    const std::string inproc = inProcessJson(spec);

    // cell 2 kills its first worker mid-run; the fault fires on the
    // first attempt only, so the re-queued attempt runs clean
    obs::Counters::get().reset();
    ScopedEnv crash("STEMS_FAULTS", "crash=cell:2");
    const std::string dispatched = dispatchedJson(spec, 3);
    EXPECT_EQ(inproc, dispatched);
    // the fault actually fired
    EXPECT_GE(counterValue(obs::snapshotCounters(), "cells_requeued"),
              1u);
    obs::Counters::get().reset();
}

TEST(Dispatch, RetryCapRecordsCellErrorNotCrash)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms,none", "ncpu=4",
         "refs=1500", "wall=0", "dispatch-retries=2"});
    // cell 0 crashes its worker on every attempt
    ScopedEnv crash("STEMS_FAULTS", "crash=cell:0:always");
    DispatchConfig cfg = localConfig(2);
    cfg.maxAttempts = 2;
    Coordinator coord(spec, cfg);
    auto results = coord.run();
    ASSERT_EQ(results.size(), 2u);
    EXPECT_FALSE(results[0].error.empty());
    EXPECT_NE(results[0].error.find("2 attempt"), std::string::npos)
        << results[0].error;
    // the sweep survives: the other cell still ran to completion
    EXPECT_TRUE(results[1].error.empty()) << results[1].error;
    EXPECT_GT(results[1].metrics.instructions(), 0u);
}

TEST(Dispatch, CellTimeoutRequeuesToAnotherWorker)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms,none", "ncpu=4",
         "refs=1500", "seed=5", "wall=0"});
    const std::string inproc = inProcessJson(spec);

    // cell 0 stalls 30 s on its first attempt; the 700 ms per-cell
    // timeout kills that worker and the retry completes promptly
    obs::Counters::get().reset();
    ScopedEnv stall("STEMS_FAULTS", "hang=cell:0/30000");
    DispatchConfig cfg = localConfig(2);
    cfg.timeoutMs = 700;
    Coordinator coord(spec, cfg);
    const std::string dispatched = toJson(spec, coord.run());
    EXPECT_EQ(inproc, dispatched);
    EXPECT_GE(counterValue(obs::snapshotCounters(), "cells_requeued"),
              1u);
    obs::Counters::get().reset();
}

// ---------------------------------------------------------------------
// workload-affine claims
// ---------------------------------------------------------------------

namespace {

/** One scripted step: which spawned worker acts, and how. */
struct Step
{
    enum Action { Ready, Reply, Exit };
    size_t worker;  //!< spawn order: a respawn gets the next index
    Action action;
};

/**
 * A transport whose workers are threads of this process playing one
 * shared script a step at a time, so the coordinator claims in a fixed
 * order. A step ends once the coordinator has reacted to it: Ready and
 * Reply wait for the next cell while any of the run's @p jobs is still
 * to be handed out, and Exit waits for the coordinator to close its
 * end. The workload of every cell handed to each spawn is recorded.
 */
class ScriptedTransport : public Transport
{
  public:
    ScriptedTransport(std::vector<Step> script, size_t jobs)
        : script(std::move(script)), jobs(jobs)
    {
    }

    ~ScriptedTransport() override
    {
        for (std::thread &t : threads)
            t.join();
    }

    WorkerProcess spawn() override
    {
        std::lock_guard<std::mutex> lk(mu);
        if (broken)
            throw std::runtime_error("the script stalled");
        int toWorker[2], fromWorker[2];
        if (::pipe(toWorker) != 0)
            throw std::runtime_error("pipe");
        if (::pipe(fromWorker) != 0) {
            ::close(toWorker[0]);
            ::close(toWorker[1]);
            throw std::runtime_error("pipe");
        }
        const size_t me = handed.size();
        handed.emplace_back();
        threads.emplace_back([this, me, in = toWorker[0],
                              out = fromWorker[1]] { play(me, in, out); });
        WorkerProcess proc;
        proc.toWorker = toWorker[1];
        proc.fromWorker = fromWorker[0];
        return proc;
    }

    /** The workloads handed to each spawned worker, in order. */
    std::vector<std::vector<std::string>> workloads()
    {
        std::lock_guard<std::mutex> lk(mu);
        return handed;
    }

    bool stalled()
    {
        std::lock_guard<std::mutex> lk(mu);
        return broken;
    }

  private:
    void play(size_t me, int in, int out)
    {
        FrameDecoder decoder;
        std::string frame;
        CellResult result;
        // the next cell job into result.cell; false at shutdown or EOF
        auto takeCell = [&] {
            if (!readFrame(in, decoder, frame, Tally::None))
                return false;
            const JsonValue msg = parseJson(frame);
            if (messageType(msg) != "cell")
                return false;
            result.cell = decodeCellJob(msg);
            std::lock_guard<std::mutex> lk(mu);
            handed[me].push_back(result.cell.workload);
            ++given;
            return true;
        };
        // read until the coordinator closes its end; hanging up first
        // makes it do so at once
        auto drain = [&](bool hangUp) {
            if (hangUp)
                ::close(out);
            while (readFrame(in, decoder, frame, Tally::None)) {
            }
            ::close(in);
            if (!hangUp)
                ::close(out);
        };

        readFrame(in, decoder, frame, Tally::None);  // init
        for (size_t k = 0; k < script.size(); ++k) {
            if (script[k].worker != me)
                continue;
            bool more;
            {
                std::unique_lock<std::mutex> lk(mu);
                if (!cv.wait_for(lk, std::chrono::seconds(30),
                                 [&] { return step == k || broken; }) ||
                    broken) {
                    broken = true;
                    cv.notify_all();
                    lk.unlock();
                    drain(true);
                    return;
                }
                more = given < jobs;
            }
            if (script[k].action == Step::Exit) {
                // the coordinator closes its end as it counts the loss
                drain(true);
            } else {
                writeFrame(out,
                           script[k].action == Step::Ready
                               ? encodeReady(0)
                               : encodeResult(result),
                           Tally::None);
                if (more)
                    takeCell();
            }
            std::lock_guard<std::mutex> lk(mu);
            ++step;
            cv.notify_all();
            if (script[k].action == Step::Exit)
                return;
        }
        drain(false);
    }

    const std::vector<Step> script;
    const size_t jobs;

    std::mutex mu;
    std::condition_variable cv;
    size_t step = 0;    //!< the script step playing now
    size_t given = 0;   //!< cells handed out so far, re-sends included
    bool broken = false;  //!< a step waited too long: give up
    std::vector<std::vector<std::string>> handed;
    std::vector<std::thread> threads;
};

/** Run @p spec on two scripted workers; the workloads each spawn got. */
std::vector<std::vector<std::string>>
playScript(const ExperimentSpec &spec, std::vector<Step> script,
           size_t jobs)
{
    auto transport =
        std::make_unique<ScriptedTransport>(std::move(script), jobs);
    ScriptedTransport &scripted = *transport;
    Coordinator coord(spec, localConfig(2), std::move(transport));
    const std::vector<CellResult> results = coord.run();
    EXPECT_FALSE(scripted.stalled());
    for (const CellResult &r : results)
        EXPECT_TRUE(r.error.empty()) << r.error;
    return scripted.workloads();
}

using Strings = std::vector<std::string>;

} // anonymous namespace

TEST(DispatchAffinity, WorkerTakesEqualCostCellsOfItsOwnWorkloads)
{
    // claim order: the sms cells of sparse, graph, em3d, then their
    // none cells; workers 0 and 1 take turns
    const ExperimentSpec spec = parseSpec(
        {"workloads=sparse,graph,em3d", "prefetchers=sms,none", "ncpu=4",
         "refs=1000", "seed=3", "wall=0"});
    const auto handed = playScript(
        spec,
        {{0, Step::Ready}, {1, Step::Ready}, {0, Step::Reply},
         {1, Step::Reply}, {0, Step::Reply}, {1, Step::Reply},
         {0, Step::Reply}, {1, Step::Reply}},
        6);
    // worker 1 holds graph, so it skips sparse, the front none cell;
    // claiming without a preference would hand it sparse here and
    // graph's none cell to worker 0
    EXPECT_EQ(handed, (std::vector<Strings>{{"sparse", "em3d", "sparse"},
                                            {"graph", "graph", "em3d"}}));
}

TEST(DispatchAffinity, RespawnedWorkerHoldsNoWorkload)
{
    const ExperimentSpec spec = parseSpec(
        {"workloads=sparse,graph,em3d,ocean", "prefetchers=sms,none",
         "ncpu=4", "refs=1000", "seed=3", "wall=0"});
    // worker 0 runs graph's sms cell, then exits holding em3d's; its
    // respawn (spawn 2) claims when the none cells of every workload
    // are pending, sparse's first
    const auto handed = playScript(
        spec,
        {{1, Step::Ready}, {0, Step::Ready}, {0, Step::Reply},
         {0, Step::Exit}, {1, Step::Reply}, {1, Step::Reply},
         {2, Step::Ready}, {2, Step::Reply}, {1, Step::Reply},
         {2, Step::Reply}, {1, Step::Reply}, {2, Step::Reply}},
        9);
    ASSERT_EQ(handed.size(), 3u);
    EXPECT_EQ(handed[0], (Strings{"graph", "em3d"}));
    // the re-queued em3d cell goes to the live worker first
    EXPECT_EQ(handed[1], (Strings{"sparse", "em3d", "ocean", "em3d"}));
    // a respawn that kept its predecessor's graph would take graph's
    // none cell ahead of sparse's
    EXPECT_EQ(handed[2], (Strings{"sparse", "graph", "ocean"}));
}

// ---------------------------------------------------------------------
// cells= subsets and report merging
// ---------------------------------------------------------------------

TEST(Dispatch, CellFilterKeepsIdsAndSubsets)
{
    auto tokens = fig11Tokens();
    tokens.push_back("cells=3,5-7");
    ExperimentSpec spec = parseSpec(tokens);
    const std::vector<RunCell> cells = selectedCells(spec);
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].id, 3u);
    EXPECT_EQ(cells[1].id, 5u);
    EXPECT_EQ(cells[3].id, 7u);

    EXPECT_THROW(parseSpec({"cells=5-3"}), std::invalid_argument);
    EXPECT_THROW(parseSpec({"cells=x"}), std::invalid_argument);
    tokens.back() = "cells=900";
    EXPECT_THROW(selectedCells(parseSpec(tokens)), std::invalid_argument);
}

TEST(DispatchMerge, PartialRunsMergeByteIdenticallyToFullRun)
{
    ExperimentSpec full = parseSpec(fig11Tokens());
    const std::string whole = inProcessJson(full);

    auto tokens = fig11Tokens();
    tokens.push_back("cells=0-9");
    const std::string partA = inProcessJson(parseSpec(tokens));
    tokens.back() = "cells=10-32";
    const std::string partB = inProcessJson(parseSpec(tokens));

    EXPECT_EQ(mergeReports({partA, partB}), whole);
    EXPECT_EQ(mergeReports({partB, partA}), whole);  // order-free by id
}

TEST(DispatchMerge, AssociativeAndIdempotent)
{
    auto tokens = fig11Tokens();
    tokens.push_back("cells=0-9");
    const std::string a = inProcessJson(parseSpec(tokens));
    tokens.back() = "cells=10-19";
    const std::string b = inProcessJson(parseSpec(tokens));
    tokens.back() = "cells=20-32";
    const std::string c = inProcessJson(parseSpec(tokens));

    const std::string leftFirst =
        mergeReports({mergeReports({a, b}), c});
    const std::string rightFirst =
        mergeReports({a, mergeReports({b, c})});
    EXPECT_EQ(leftFirst, rightFirst);

    EXPECT_EQ(mergeReports({a}), a);
    EXPECT_EQ(mergeReports({a, a}), a);  // idempotent
    EXPECT_EQ(mergeReports({leftFirst, a}), leftFirst);
}

TEST(DispatchMerge, OkCellRepairsEarlierError)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms,none", "ncpu=4",
         "refs=1500", "wall=0"});
    auto results = dispatch::runSpec(spec);
    ASSERT_EQ(results.size(), 2u);
    const std::string good = toJson(spec, results);

    auto broken = results;
    broken[0].error = "worker crashed";
    const std::string bad = toJson(spec, broken);

    // the error-free occurrence wins regardless of argument order
    EXPECT_EQ(mergeReports({bad, good}), good);
    EXPECT_EQ(mergeReports({good, bad}), good);
    EXPECT_EQ(mergeReports({bad, bad}), bad);
}

TEST(DispatchMerge, RejectsForeignAndMismatchedReports)
{
    EXPECT_THROW(mergeReports({}), std::invalid_argument);
    EXPECT_THROW(mergeReports({"{\"engine\":\"other\",\"cells\":[]}"}),
                 std::invalid_argument);
    EXPECT_THROW(mergeReports({"not json at all"}),
                 std::invalid_argument);

    const std::string a =
        inProcessJson(parseSpec({"workloads=sparse",
                                 "prefetchers=none", "ncpu=4",
                                 "refs=1500", "wall=0"}));
    const std::string b =
        inProcessJson(parseSpec({"workloads=graph",
                                 "prefetchers=none", "ncpu=4",
                                 "refs=1500", "wall=0"}));
    EXPECT_THROW(mergeReports({a, b}), std::invalid_argument);
}

// ---------------------------------------------------------------------
// timing-only cell mode
// ---------------------------------------------------------------------

TEST(TimingOnly, MatchesFullTimingUipcExactly)
{
    std::vector<std::string> tokens{
        "workloads=sparse,Apache", "prefetchers=sms,none", "ncpu=4",
        "refs=2000", "seed=9", "timing=1"};
    auto fullResults = dispatch::runSpec(parseSpec(tokens));
    tokens.back() = "timing=only";
    ExperimentSpec lean = parseSpec(tokens);
    EXPECT_TRUE(lean.timing);
    EXPECT_TRUE(lean.timingOnly);
    auto leanResults = dispatch::runSpec(lean);

    ASSERT_EQ(fullResults.size(), leanResults.size());
    for (size_t i = 0; i < fullResults.size(); ++i) {
        ASSERT_TRUE(fullResults[i].error.empty());
        ASSERT_TRUE(leanResults[i].error.empty());
        // same timing numbers, bit-exact
        EXPECT_EQ(fullResults[i].metrics.uipc(),
                  leanResults[i].metrics.uipc());
        EXPECT_EQ(fullResults[i].metrics.baselineUipc(),
                  leanResults[i].metrics.baselineUipc());
        EXPECT_EQ(fullResults[i].metrics.speedup(),
                  leanResults[i].metrics.speedup());
        // ... without paying for the system-study pass
        EXPECT_GT(fullResults[i].metrics.instructions(), 0u);
        EXPECT_EQ(leanResults[i].metrics.instructions(), 0u);
        EXPECT_EQ(leanResults[i].metrics.baselineL1ReadMisses(), 0u);
    }
}

TEST(TimingOnly, RequiresSystemMode)
{
    EXPECT_THROW(parseSpec({"mode=l1", "timing=only"}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// per-cell cache-geometry sweeps
// ---------------------------------------------------------------------

TEST(GeometrySweep, L2SizeAxisReshapesEachCell)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms,none", "ncpu=4",
         "refs=2000", "sweep.l2-kb=256,1024"});
    auto cells = expandSpec(spec);
    // geometry axes apply to every engine, none included
    ASSERT_EQ(cells.size(), 4u);
    EXPECT_EQ(cells[0].sys.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(cells[1].sys.l2.sizeBytes, 1024u * 1024);
    EXPECT_EQ(cells[2].sys.l2.sizeBytes, 256u * 1024);
    EXPECT_EQ(cells[3].sys.l2.sizeBytes, 1024u * 1024);
    // geometry stays out of the prefetcher's option bag
    EXPECT_EQ(cells[0].engine.options.count("l2-kb"), 0u);
    ASSERT_EQ(cells[0].sweepPoint.count("l2-kb"), 1u);

    auto results = dispatch::runSpec(spec);
    for (const auto &r : results)
        ASSERT_TRUE(r.error.empty()) << r.error;
    // each L2 size gets its own memoized baseline: a smaller L2 must
    // miss at least as often off-chip
    EXPECT_GE(results[2].metrics.l2ReadMisses(),
              results[3].metrics.l2ReadMisses());
    EXPECT_EQ(results[0].metrics.baselineL2ReadMisses(),
              results[2].metrics.l2ReadMisses());
    EXPECT_EQ(results[1].metrics.baselineL2ReadMisses(),
              results[3].metrics.l2ReadMisses());
}

TEST(GeometrySweep, GeometryKeysLegalOnlyAsSweepOrTopLevel)
{
    // an opt./pf. geometry key would land in the engine's option bag
    // where nothing reads it — the silent-default trap the option
    // check exists to prevent
    EXPECT_THROW(parseSpec({"prefetchers=sms", "opt.l2-kb=64"}),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec({"prefetchers=sms", "pf.sms.l1-assoc=4"}),
                 std::invalid_argument);
    // block is a real prefetcher option (stream granularity) and a
    // top-level geometry key; both stay legal
    EXPECT_NO_THROW(parseSpec({"prefetchers=sms", "opt.block=128"}));
    EXPECT_NO_THROW(parseSpec({"l2-kb=4096", "l1-assoc=4"}));
    EXPECT_NO_THROW(parseSpec(
        {"prefetchers=none", "sweep.l2-kb=4096,8192"}));
}

TEST(GeometrySweep, BlockAxisAppliesToEveryEngine)
{
    // before per-cell geometry, a block sweep silently collapsed for
    // engines that did not know the option (e.g. none)
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=none",
         "sweep.block=64,128"});
    auto cells = expandSpec(spec);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].sys.l1.blockSize, 64u);
    EXPECT_EQ(cells[1].sys.l1.blockSize, 128u);
    EXPECT_EQ(cells[1].sys.l2.blockSize, 128u);
}

// ---------------------------------------------------------------------
// hardened wire decoding (adversarial frames)
// ---------------------------------------------------------------------

TEST(DispatchWireHardening, RejectsNonFiniteMetricValues)
{
    // NaN/inf — and hexfloat overflow, which strtod maps to inf —
    // must never enter the metric fold: reports would stop being
    // byte-comparable and comparisons would silently misorder
    for (const char *bad : {"nan", "inf", "-inf", "0x1.fp+20000"}) {
        const std::string payload = std::string(
            R"({"type":"result","id":1,"error":"","metrics":{"uipc":")") +
            bad + R"("},"counters":[],"telemetry":{}})";
        EXPECT_THROW(decodeResult(parseJson(payload)),
                     std::invalid_argument)
            << bad;
    }
}

TEST(DispatchWireHardening, RejectsMalformedU64Fields)
{
    // a negative, overflowing, or non-numeric id must throw, not wrap;
    // so must a result that omits its telemetry sidecar
    const std::string body = R"(,"error":"","metrics":{},"counters":[])";
    std::vector<std::string> payloads;
    for (const char *bad :
         {"-1", "99999999999999999999999999", "1.5", "true", "\"7\""})
        payloads.push_back(R"({"type":"result","id":)" +
                           std::string(bad) + body +
                           R"(,"telemetry":{}})");
    payloads.push_back(R"({"type":"result","id":1)" + body + "}");
    for (const auto &payload : payloads)
        EXPECT_THROW(decodeResult(parseJson(payload)), std::exception)
            << payload;

    // a cell job whose cache config names a replacement other than 0
    const RunCell cell = expandSpec(parseSpec({"workloads=sparse"}))[0];
    std::string job = encodeCellJob(cell);
    const std::string l1 = R"("l1":[65536,2,64,0])";
    const size_t at = job.find(l1);
    ASSERT_NE(at, std::string::npos) << job;
    EXPECT_NO_THROW(decodeCellJob(parseJson(job)));
    job.replace(at, l1.size(), R"("l1":[65536,2,64,2])");
    EXPECT_THROW(decodeCellJob(parseJson(job)), std::invalid_argument)
        << job;
}

TEST(DispatchWireHardening, FrameDecoderCapsFrameSize)
{
    // a corrupt length prefix claiming a 17 GB frame must fail fast
    // instead of buffering until OOM
    FrameDecoder dec;
    std::string out;
    dec.feed("17179869184\n", 12);
    EXPECT_THROW(dec.next(out), std::invalid_argument);

    FrameDecoder dec2;
    dec2.feed("\n", 1);  // empty length prefix
    EXPECT_THROW(dec2.next(out), std::invalid_argument);

    // the cap is the decoder's own: one byte over the hello cap fails
    FrameDecoder hello(kHelloMaxBytes);
    hello.feed("4097\n", 5);
    EXPECT_THROW(hello.next(out), std::invalid_argument);
}

TEST(DispatchWireHardening, RejectsUnterminatedLengthPrefix)
{
    // a peer that never sends the prefix's newline must be refused
    // once the prefix outgrows the cap's digits, not buffered forever
    const std::string digits(1 << 16, '7');
    FrameDecoder dec;
    std::string out;
    dec.feed(digits.data(), digits.size());
    EXPECT_THROW(dec.next(out), std::invalid_argument);

    // the same run on a socket, behind a valid hello
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    const std::string hello = encodeHello("client");
    const std::string bytes = frameBytes(hello) + digits;
    ASSERT_EQ(::write(sv[0], bytes.data(), bytes.size()),
              static_cast<ssize_t>(bytes.size()));
    ::close(sv[0]);
    FrameDecoder conn;
    Hello peer;
    std::string err;
    EXPECT_TRUE(readHello(sv[1], conn, "client", peer, err)) << err;
    EXPECT_THROW(readFrame(sv[1], conn, out), std::invalid_argument);
    ::close(sv[1]);
}

TEST(DispatchWireHardening, GarbageResultCostsTheCellNothingFinal)
{
    // a worker that frames unparseable bytes is reaped and the cell
    // retried on a clean worker — the sweep output is unaffected
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms,none", "ncpu=4",
         "refs=1500", "seed=11", "wall=0"});
    const std::string inproc = inProcessJson(spec);
    ScopedEnv plan("STEMS_FAULTS", "garbage=cell:1");
    const std::string dispatched = dispatchedJson(spec, 2);
    EXPECT_EQ(inproc, dispatched);
}

// ---------------------------------------------------------------------
// fault-plan chaos runs
// ---------------------------------------------------------------------

TEST(DispatchChaos, SeededFaultPlanKeepsReportsByteIdentical)
{
    // crash + hang + garbage + truncate across the fig11 cell set:
    // every fault is retried onto a clean attempt (plan faults fire
    // first-attempt-only), so the chaos run must converge to the
    // uninterrupted report byte for byte
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse,graph", "prefetchers=sms,none", "ncpu=4",
         "refs=2000", "seed=13", "wall=0"});
    const std::string inproc = inProcessJson(spec);

    ScopedEnv plan("STEMS_FAULTS",
                   "seed=5,crash=0.4,garbage=0.3,truncate=0.3,"
                   "hang=0.2/100");
    DispatchConfig cfg = localConfig(3);
    cfg.heartbeatMs = 200;
    const std::string dispatched = dispatchedJson(spec, 3, cfg);
    EXPECT_EQ(inproc, dispatched);
}

TEST(DispatchChaos, HeartbeatLivenessKillsWedgedWorker)
{
    // the hang fault wedges cell 0's worker for 30 s holding the wire
    // lock (heartbeats stop, like a real deadlock); with a 100 ms
    // heartbeat the coordinator kills it after ~4 missed beats and
    // the retry completes promptly — no per-cell timeout needed
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms,none", "ncpu=4",
         "refs=1500", "seed=5", "wall=0"});
    const std::string inproc = inProcessJson(spec);

    ScopedEnv plan("STEMS_FAULTS", "hang=cell:0/30000");
    DispatchConfig cfg = localConfig(2);
    cfg.heartbeatMs = 100;
    const auto start = std::chrono::steady_clock::now();
    const std::string dispatched = dispatchedJson(spec, 2, cfg);
    const double tookMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_EQ(inproc, dispatched);
    EXPECT_LT(tookMs, 25000.0) << "liveness check never fired";
}

TEST(DispatchChaos, DegradesToInProcessWhenPoolUnrecoverable)
{
    // a transport that can never spawn: the respawn budget burns out
    // and the remaining cells execute in-process instead of erroring
    class FailingTransport : public Transport
    {
      public:
        WorkerProcess spawn() override
        {
            throw std::runtime_error("induced spawn failure");
        }
    };

    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms,none", "ncpu=4",
         "refs=1500", "seed=7", "wall=0"});
    const std::string inproc = inProcessJson(spec);

    obs::Counters::get().reset();
    DispatchConfig cfg = localConfig(2);
    Coordinator coord(spec, cfg,
                      std::make_unique<FailingTransport>());
    const std::string degraded = toJson(spec, coord.run());
    EXPECT_EQ(inproc, degraded);
    EXPECT_GE(counterValue(obs::snapshotCounters(), "degraded_cells"),
              2u);
    obs::Counters::get().reset();
}

// ---------------------------------------------------------------------
// crash-safe journal and resume
// ---------------------------------------------------------------------

namespace {

/** runSpec with the worker exe pointed at the real stems binary. */
ExperimentSpec
withTestWorkerExe(ExperimentSpec spec)
{
    spec.dispatchWorkerExe = stemsBinary();
    return spec;
}

/** Split a journal file into its raw frames. */
std::vector<std::string>
journalFrames(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::string buf((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
    FrameDecoder decoder;
    decoder.feed(buf.data(), buf.size());
    std::vector<std::string> frames;
    std::string payload;
    for (uint64_t start = 0; decoder.next(payload);
         start = decoder.offset())
        frames.push_back(buf.substr(start, decoder.offset() - start));
    return frames;
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

} // anonymous namespace

TEST(DispatchJournal, SpecFingerprintTracksCellsAndFilters)
{
    ExperimentSpec spec = parseSpec(fig11Tokens());
    const uint64_t full = specFingerprint(selectedCells(spec));
    EXPECT_EQ(full, specFingerprint(selectedCells(spec)));

    auto filtered = fig11Tokens();
    filtered.push_back("cells=0-9");
    EXPECT_NE(full,
              specFingerprint(selectedCells(parseSpec(filtered))));

    ExperimentSpec other = parseSpec(
        {"workloads=sparse", "prefetchers=none", "refs=1500",
         "wall=0"});
    EXPECT_NE(full, specFingerprint(selectedCells(other)));

    // the same cells tracking oracle generations at other region
    // sizes measure other counts
    auto oracle = fig11Tokens();
    oracle.push_back("oracle-regions=512,1024");
    const uint64_t small = specFingerprint(selectedCells(parseSpec(oracle)));
    EXPECT_NE(full, small);
    oracle.back() = "oracle-regions=4096,8192";
    EXPECT_NE(small, specFingerprint(selectedCells(parseSpec(oracle))));
}

TEST(DispatchJournal, ResumeSplicesByteIdenticallyInProcess)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse,graph", "prefetchers=sms,none", "ncpu=4",
         "refs=1500", "seed=21", "wall=0"});
    const std::string clean = inProcessJson(spec);

    const std::string journal = tempPath("journal_inproc");
    std::filesystem::remove(journal);
    spec.journalPath = journal;
    const std::string full = toJson(spec, dispatch::runSpec(spec));
    EXPECT_EQ(clean, full);

    // keep the header + the first two results + a torn tail, as a
    // SIGKILLed writer would leave it
    auto frames = journalFrames(journal);
    ASSERT_GE(frames.size(), 4u);
    writeFileBytes(journal,
                   frames[0] + frames[1] + frames[2] +
                       frames[3].substr(0, frames[3].size() / 2));

    obs::Counters::get().reset();
    spec.resume = true;
    const std::string resumed = toJson(spec, dispatch::runSpec(spec));
    EXPECT_EQ(clean, resumed);
    EXPECT_EQ(counterValue(obs::snapshotCounters(),
                           "journal_cells_replayed"),
              2u);
    obs::Counters::get().reset();
    std::filesystem::remove(journal);
}

TEST(DispatchJournal, ResumeSplicesByteIdenticallyDispatched)
{
    ExperimentSpec spec = withTestWorkerExe(parseSpec(
        {"workloads=sparse,graph", "prefetchers=sms,none", "ncpu=4",
         "refs=1500", "seed=23", "wall=0", "dispatch=2"}));
    const std::string journal = tempPath("journal_disp");
    std::filesystem::remove(journal);
    spec.journalPath = journal;
    const std::string full = toJson(spec, dispatch::runSpec(spec));

    ExperimentSpec plain = spec;
    plain.dispatch = 0;
    plain.journalPath.clear();
    const std::string clean = inProcessJson(plain);
    EXPECT_EQ(clean, full);

    auto frames = journalFrames(journal);
    ASSERT_GE(frames.size(), 3u);
    writeFileBytes(journal, frames[0] + frames[1] + frames[2]);

    spec.resume = true;
    const std::string resumed = toJson(spec, dispatch::runSpec(spec));
    EXPECT_EQ(clean, resumed);
    std::filesystem::remove(journal);
}

TEST(DispatchJournal, ResumeCompletedRunReExecutesNothing)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms,none", "ncpu=4",
         "refs=1500", "seed=25", "wall=0"});
    const std::string journal = tempPath("journal_done");
    std::filesystem::remove(journal);
    spec.journalPath = journal;
    const std::string full = toJson(spec, dispatch::runSpec(spec));

    spec.resume = true;
    double wallMs = -1;
    const std::string resumed = toJson(
        spec, dispatch::runSpec(spec, {}, nullptr, &wallMs));
    EXPECT_EQ(full, resumed);
    EXPECT_EQ(wallMs, 0.0) << "everything should have been replayed";
    std::filesystem::remove(journal);
}

TEST(DispatchJournal, RejectsResumeUnderDifferentSpec)
{
    const std::vector<std::string> tokens = {
        "workloads=sparse", "prefetchers=sms,none", "ncpu=4",
        "refs=1500", "seed=27", "wall=0", "oracle-regions=512,1024"};
    ExperimentSpec spec = parseSpec(tokens);
    const std::string journal = tempPath("journal_mismatch");
    std::filesystem::remove(journal);
    spec.journalPath = journal;
    (void)dispatch::runSpec(spec);

    // another spec's cells, and the same cells under other oracle
    // region sizes, whose counts the journal does not hold
    std::vector<std::string> resized = tokens;
    resized.back() = "oracle-regions=4096,8192";
    for (const auto &others :
         {std::vector<std::string>{"workloads=graph", "prefetchers=none",
                                   "ncpu=4", "refs=1500", "wall=0"},
          resized}) {
        ExperimentSpec other = parseSpec(others);
        other.journalPath = journal;
        other.resume = true;
        EXPECT_THROW(dispatch::runSpec(other), std::invalid_argument)
            << others[0] << " " << others.back();
    }
    std::filesystem::remove(journal);
}

TEST(DispatchJournal, ReadJournalKeepsTheCleanPrefix)
{
    const std::string header = frameBytes(
        R"({"type":"journal","version":1,"spec":"00000000000000ff",)"
        R"("cells":3})");
    CellResult ok, failed;
    ok.cell.id = 1;
    ok.metrics.setWallMs(2.0);
    failed.cell.id = 2;
    failed.error = "boom";
    const std::string clean = header + frameBytes(encodeResult(ok)) +
        frameBytes(encodeResult(failed)) + frameBytes(encodeResult(ok));
    // a torn tail and a garbled one both end the clean prefix
    for (const std::string &tail : {std::string("120\n{\"type\""),
                                     std::string("x\n{}\n")}) {
        const JournalContents j = readJournal(clean + tail);
        ASSERT_TRUE(j.hasHeader);
        EXPECT_EQ(j.spec, "00000000000000ff");
        EXPECT_EQ(j.cleanEnd, clean.size());
        // errored results re-run; the first ok copy wins
        ASSERT_EQ(j.results.size(), 1u);
        EXPECT_EQ(j.results.at(1).metrics.wallMs(), 2.0);
    }
    EXPECT_FALSE(readJournal("").hasHeader);
    EXPECT_FALSE(readJournal(header.substr(0, 10)).hasHeader);
}

TEST(DispatchJournal, ResumeRefusesAFileThatIsNotAJournal)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=none", "ncpu=4",
         "refs=1500", "wall=0"});
    spec.journalPath = tempPath("journal_foreign");
    spec.resume = true;
    for (const std::string &bytes :
         {std::string("not a journal\n"),
          frameBytes(R"({"type":"result"})")}) {
        writeFileBytes(spec.journalPath, bytes);
        EXPECT_THROW(dispatch::runSpec(spec), std::invalid_argument)
            << bytes;
    }
    std::filesystem::remove(spec.journalPath);
}

TEST(DispatchJournal, ResumeRequiresJournalKey)
{
    EXPECT_THROW(parseSpec({"workloads=sparse", "prefetchers=none",
                            "resume=1"}),
                 std::invalid_argument);
}

TEST(DispatchJournal, CoordinatorSigkillMidRunResumesByteIdentically)
{
    // the full crash-safety story, end to end on the real CLI: a
    // dispatched run is SIGKILLed mid-sweep, then --resume replays
    // the journaled cells and re-runs the rest — the final report is
    // byte-identical to a never-interrupted run
    const std::string journal = tempPath("journal_sigkill");
    const std::string outJson = tempPath("sigkill_out.json");
    const std::string cleanJson = tempPath("sigkill_clean.json");
    std::filesystem::remove(journal);

    const std::string bin = stemsBinary();
    std::vector<std::string> base{
        "run",           "workloads=sparse,graph",
        "prefetchers=sms,none", "ncpu=4",
        "refs=2000",     "seed=31",
        "wall=0",        "quiet=1",
        "dispatch=2"};

    auto spawnRun = [&](const std::vector<std::string> &extra) {
        std::vector<std::string> args = base;
        args.insert(args.end(), extra.begin(), extra.end());
        std::vector<char *> argv;
        argv.push_back(const_cast<char *>(bin.c_str()));
        for (auto &a : args)
            argv.push_back(const_cast<char *>(a.c_str()));
        argv.push_back(nullptr);
        const pid_t pid = ::fork();
        if (pid == 0) {
            ::execv(bin.c_str(), argv.data());
            ::_exit(127);
        }
        return pid;
    };

    // clean reference run
    {
        const pid_t pid = spawnRun({"json=" + cleanJson});
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    // interrupted run: SIGKILL the coordinator once the journal holds
    // at least one completed cell
    {
        const pid_t pid = spawnRun(
            {"journal=" + journal,
             "json=" + tempPath("sigkill_scratch.json")});
        bool sawProgress = false;
        for (int i = 0; i < 600; ++i) {
            if (journalFrames(journal).size() >= 2) {
                sawProgress = true;
                break;
            }
            ::usleep(100 * 1000);
        }
        ::kill(pid, SIGKILL);
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(sawProgress) << "journal never grew";
    }

    // resumed run completes the sweep
    {
        const pid_t pid = spawnRun({"journal=" + journal, "resume=1",
                                    "json=" + outJson});
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    std::ifstream a(cleanJson, std::ios::binary), b(outJson,
                                                    std::ios::binary);
    const std::string clean((std::istreambuf_iterator<char>(a)),
                            std::istreambuf_iterator<char>());
    const std::string resumed((std::istreambuf_iterator<char>(b)),
                              std::istreambuf_iterator<char>());
    ASSERT_FALSE(clean.empty());
    EXPECT_EQ(clean, resumed);

    std::filesystem::remove(journal);
    std::filesystem::remove(outJson);
    std::filesystem::remove(cleanJson);
    std::filesystem::remove(tempPath("sigkill_scratch.json"));
}
