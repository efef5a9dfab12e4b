/**
 * @file
 * Observability layer tests: span nesting and thread tagging in the
 * recorder, Chrome trace-event JSON emission (parse round-trip through
 * the dispatch JSON reader), counter snapshot schema and determinism
 * across runner thread counts, dispatched runs merging worker spans
 * into the coordinator trace, report byte-identity with telemetry on,
 * and the engine-folded per-group aggregate rows.
 *
 * The recorder and counter registry are process-wide; every test that
 * enables them disables/drains on exit so the rest of the suite keeps
 * running with observability off (the default).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <thread>
#include <unistd.h>

#include "dispatch/coordinator.hh"
#include "dispatch/journal.hh"
#include "dispatch/json.hh"
#include "dispatch/wire.hh"
#include "driver/report.hh"
#include "driver/spec.hh"
#include "obs/counters.hh"
#include "obs/histogram.hh"
#include "obs/obs.hh"
#include "obs/sampler.hh"
#include "study/suite.hh"

using namespace stems;
using namespace stems::driver;

namespace {

/** Enable the recorder for one test; drain and disable on exit. */
class ScopedRecorder
{
  public:
    ScopedRecorder() { obs::Recorder::get().enable(); }
    ~ScopedRecorder()
    {
        obs::Recorder::get().disable();
        obs::Recorder::get().drain();
    }
};

ExperimentSpec
smallSpec(uint32_t threads)
{
    ExperimentSpec spec = parseSpec(
        {"mode=l1", "workloads=paper", "prefetchers=sms:A,sms:B",
         "pf.B.pred-regs=4", "ncpu=2", "refs=500", "seed=1", "wall=0",
         "threads=" + std::to_string(threads)});
    return spec;
}

std::vector<std::pair<std::string, uint64_t>>
countersAfterFreshRun(const ExperimentSpec &spec)
{
    obs::Counters::get().reset();
    const auto results = dispatch::runSpec(spec);
    for (const auto &r : results)
        EXPECT_TRUE(r.error.empty()) << r.error;
    // the look-ahead warmer's two families count a race between the
    // warmer and the lanes, so they are rates, not slot-tied totals
    auto snap = obs::snapshotCounters();
    std::erase_if(snap, [](const auto &c) {
        return c.first == "trace_prefetch_ahead" ||
               c.first == "stream_stalls";
    });
    return snap;
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

const dispatch::JsonValue &
traceEvents(const dispatch::JsonValue &doc)
{
    EXPECT_EQ(doc.at("displayTimeUnit").asString(), "ms");
    const dispatch::JsonValue &events = doc.at("traceEvents");
    EXPECT_EQ(events.kind, dispatch::JsonValue::Kind::Array);
    return events;
}

bool
hasEventNamed(const dispatch::JsonValue &events, const std::string &name)
{
    return std::any_of(events.items.begin(), events.items.end(),
                       [&](const dispatch::JsonValue &e) {
                           return e.at("name").asString() == name;
                       });
}

} // anonymous namespace

// ---------------------------------------------------------------------
// recorder: spans, nesting, thread tags
// ---------------------------------------------------------------------

TEST(ObsSpan, DisabledRecorderRecordsNothing)
{
    ASSERT_FALSE(obs::Recorder::get().enabled());
    {
        obs::Span span("ignored", {{"k", "v"}});
        obs::instant("also-ignored");
    }
    EXPECT_TRUE(obs::Recorder::get().drain().empty());
}

TEST(ObsSpan, NestedSpansCoverEachOther)
{
    ScopedRecorder rec;
    {
        obs::Span outer("outer", {{"k", "v"}});
        {
            obs::Span inner("inner");
        }
        obs::instant("mark", {{"why", "test"}});
    }
    auto events = obs::Recorder::get().drain();

    const obs::Event *outer = nullptr, *inner = nullptr,
                     *mark = nullptr;
    for (const auto &e : events) {
        if (e.name == "outer")
            outer = &e;
        else if (e.name == "inner")
            inner = &e;
        else if (e.name == "mark")
            mark = &e;
    }
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(inner, nullptr);
    ASSERT_NE(mark, nullptr);

    // Spans close in reverse order, so the inner interval nests
    // inside the outer one and both were recorded by this thread.
    EXPECT_EQ(outer->phase, 'X');
    EXPECT_EQ(inner->phase, 'X');
    EXPECT_EQ(mark->phase, 'i');
    EXPECT_GE(inner->tsNs, outer->tsNs);
    EXPECT_LE(inner->tsNs + inner->durNs, outer->tsNs + outer->durNs);
    EXPECT_EQ(outer->tid, inner->tid);
    EXPECT_EQ(outer->tid, mark->tid);
    ASSERT_EQ(outer->args.size(), 1u);
    EXPECT_EQ(outer->args[0],
              (obs::EventArg{"k", "v"}));
}

TEST(ObsSpan, ThreadsGetDistinctTagsAndNames)
{
    ScopedRecorder rec;
    obs::setThreadName("obs-test-main");
    const uint32_t mainTid = obs::Recorder::get().threadTid();
    {
        obs::Span span("on-main");
    }

    uint32_t otherTid = 0;
    std::thread t([&] {
        obs::setThreadName("obs-test-worker");
        otherTid = obs::Recorder::get().threadTid();
        obs::Span span("on-thread");
    });
    t.join();

    EXPECT_NE(mainTid, otherTid);

    auto events = obs::Recorder::get().drain();
    bool sawMainName = false, sawWorkerName = false;
    for (const auto &e : events) {
        if (e.phase != 'M')
            continue;
        for (const auto &[k, v] : e.args) {
            if (k != "name")
                continue;
            sawMainName |= v == "obs-test-main" && e.tid == mainTid;
            sawWorkerName |=
                v == "obs-test-worker" && e.tid == otherTid;
        }
    }
    EXPECT_TRUE(sawMainName);
    EXPECT_TRUE(sawWorkerName);

    for (const auto &e : events) {
        if (e.name == "on-main")
            EXPECT_EQ(e.tid, mainTid);
        if (e.name == "on-thread")
            EXPECT_EQ(e.tid, otherTid);
    }
}

// ---------------------------------------------------------------------
// chrome trace-event json
// ---------------------------------------------------------------------

TEST(ObsTrace, ChromeJsonParsesAndNormalizes)
{
    ScopedRecorder rec;
    obs::setThreadName("json-test");
    {
        obs::Span span("first", {{"quote", "a\"b"}});
    }
    obs::instant("blip");

    const std::string json = obs::Recorder::get().chromeJson();
    const dispatch::JsonValue doc = dispatch::parseJson(json);
    const dispatch::JsonValue &events = traceEvents(doc);

    EXPECT_TRUE(hasEventNamed(events, "first"));
    EXPECT_TRUE(hasEventNamed(events, "blip"));
    EXPECT_TRUE(hasEventNamed(events, "thread_name"));

    double minTs = 1e300;
    for (const auto &e : events.items) {
        const std::string ph = e.at("ph").asString();
        if (ph == "M")
            continue;
        // Timestamps are normalized so the trace opens at t=0.
        const double ts = e.at("ts").asDouble();
        minTs = std::min(minTs, ts);
        EXPECT_GE(ts, 0.0);
        EXPECT_GE(e.at("pid").asU64(), 1u);
        EXPECT_GE(e.at("tid").asU64(), 1u);
        if (ph == "X")
            EXPECT_GE(e.at("dur").asDouble(), 0.0);
        if (ph == "i")
            EXPECT_EQ(e.at("s").asString(), "p");
    }
    EXPECT_EQ(minTs, 0.0);

    const dispatch::JsonValue *first = nullptr;
    for (const auto &e : events.items)
        if (e.at("name").asString() == "first")
            first = &e;
    ASSERT_NE(first, nullptr);
    EXPECT_EQ(first->at("args").at("quote").asString(), "a\"b");
}

// ---------------------------------------------------------------------
// counters
// ---------------------------------------------------------------------

TEST(ObsCounters, SnapshotSchemaIsStable)
{
    obs::Counters::get().reset();
    const auto snap = obs::snapshotCounters();
    // Zero-valued counters are included so telemetry keys never
    // appear or vanish between runs.
    ASSERT_GE(snap.size(), 13u);
    EXPECT_EQ(snap.front().first, "trace_cache_hits");
    for (const auto &[name, value] : snap)
        EXPECT_EQ(value, 0u) << name;

    obs::count(&obs::Counters::dispatchRetries, 3);
    EXPECT_EQ(counterValue(obs::snapshotCounters(),
                           "dispatch_retries"),
              3u);

    // the fault-tolerance families (PR 7) are part of the schema
    for (const char *name :
         {"faults_injected", "heartbeats_missed",
          "journal_cells_written", "journal_cells_replayed",
          "degraded_cells"})
        EXPECT_EQ(counterValue(obs::snapshotCounters(), name), 0u);
    obs::Counters::get().reset();
}

TEST(ObsCounters, PeakRssIsNonZero)
{
    EXPECT_GT(obs::peakRssKb(), 0u);
}

TEST(ObsCounters, DeterministicAcrossThreadCounts)
{
    const auto one = countersAfterFreshRun(smallSpec(1));
    const auto four = countersAfterFreshRun(smallSpec(4));
    EXPECT_EQ(one, four);

    // Sanity: the run actually exercised the memoized paths. One
    // trace-cache and one baseline miss per workload slot; with two
    // engines per workload every slot is also hit at least once.
    const uint64_t misses = counterValue(four, "trace_cache_misses");
    EXPECT_GT(misses, 0u);
    EXPECT_GE(counterValue(four, "trace_cache_hits"), misses);
    EXPECT_EQ(counterValue(four, "baseline_memo_misses"), misses);
    EXPECT_EQ(counterValue(four, "baseline_memo_hits"), misses);
    EXPECT_EQ(counterValue(four, "cells_executed"), 2 * misses);
    obs::Counters::get().reset();
}

TEST(ObsCounters, TimedSpecWalksTheHierarchyOncePerWorkloadAndEngine)
{
    // W workloads x E engines ("none" included): the timing model
    // rides the system study's pass, so each (workload, engine) pair
    // walks the hierarchy exactly once and every timing lookup hits
    constexpr uint64_t kWorkloads = 2, kEngines = 3;
    auto spec = [](uint32_t threads) {
        return parseSpec({"workloads=sparse,graph",
                          "prefetchers=sms,ghb,none", "timing=1",
                          "ncpu=4", "refs=2000", "seed=5",
                          "threads=" + std::to_string(threads)});
    };
    const auto one = countersAfterFreshRun(spec(1));
    const auto four = countersAfterFreshRun(spec(4));
    EXPECT_EQ(one, four);
    EXPECT_EQ(counterValue(four, "system_passes"), kWorkloads * kEngines);
    EXPECT_EQ(counterValue(four, "baseline_memo_misses"), kWorkloads);
    EXPECT_EQ(counterValue(four, "timing_memo_misses"), 0u);
    EXPECT_EQ(counterValue(four, "timing_memo_hits"),
              kWorkloads * (2 * kEngines - 1));
    obs::Counters::get().reset();
}

// ---------------------------------------------------------------------
// executor phase telemetry
// ---------------------------------------------------------------------

TEST(ObsTelemetry, CellResultsCarryPhaseTimings)
{
    ExperimentSpec spec = smallSpec(1);
    const auto results = dispatch::runSpec(spec);
    ASSERT_FALSE(results.empty());
    for (const auto &r : results) {
        ASSERT_TRUE(r.error.empty()) << r.error;
        std::vector<std::string> names;
        for (const auto &[name, ms] : r.telemetry.phases) {
            names.push_back(name);
            EXPECT_GE(ms, 0.0);
        }
        EXPECT_EQ(names.front(), "trace");
        EXPECT_NE(std::find(names.begin(), names.end(), "baseline"),
                  names.end());
    }
}

// ---------------------------------------------------------------------
// wire telemetry (protocol v4)
// ---------------------------------------------------------------------

TEST(ObsWire, TelemetryRoundTripsThroughResultFrames)
{
    CellResult result;
    result.cell.id = 7;
    result.telemetry.phases = {{"trace", 1.25}, {"baseline", 0.5}};
    result.telemetry.counters = {{"cells_executed", 4}};
    result.telemetry.rssKb = 12345;
    obs::Event span;
    span.name = "worker_cell";
    span.phase = 'X';
    span.tsNs = 1000;
    span.durNs = 250;
    span.tid = 2;
    span.args = {{"cell", "7"}};
    result.telemetry.spans.push_back(span);

    const CellResult back = dispatch::decodeResult(
        dispatch::parseJson(dispatch::encodeResult(result)));
    ASSERT_EQ(back.telemetry.phases.size(), 2u);
    EXPECT_EQ(back.telemetry.phases[0].first, "trace");
    EXPECT_EQ(back.telemetry.phases[0].second, 1.25);
    ASSERT_EQ(back.telemetry.counters.size(), 1u);
    EXPECT_EQ(back.telemetry.counters[0],
              (std::pair<std::string, uint64_t>{"cells_executed", 4}));
    EXPECT_EQ(back.telemetry.rssKb, 12345u);
    ASSERT_EQ(back.telemetry.spans.size(), 1u);
    EXPECT_EQ(back.telemetry.spans[0].name, "worker_cell");
    EXPECT_EQ(back.telemetry.spans[0].phase, 'X');
    EXPECT_EQ(back.telemetry.spans[0].tsNs, 1000u);
    EXPECT_EQ(back.telemetry.spans[0].durNs, 250u);
    EXPECT_EQ(back.telemetry.spans[0].tid, 2u);
    ASSERT_EQ(back.telemetry.spans[0].args.size(), 1u);
}

// ---------------------------------------------------------------------
// dispatched tracing
// ---------------------------------------------------------------------

TEST(ObsDispatch, MergedTraceCarriesCoordinatorAndWorkerSpans)
{
    ScopedRecorder rec;
    obs::Counters::get().reset();
    obs::setThreadName("coordinator");

    ExperimentSpec spec = parseSpec(
        {"mode=l1", "workloads=paper", "prefetchers=sms:SMS",
         "ncpu=2", "refs=500", "seed=1", "wall=0"});
    dispatch::DispatchConfig cfg;
    cfg.workers = 2;
    cfg.workerExe = (std::filesystem::path(dispatch::selfExePath())
                         .parent_path() /
                     "stems")
                        .string();
    cfg.trace = true;
    std::vector<dispatch::WorkerStats> stats;
    dispatch::Coordinator coord(spec, cfg);
    const auto results = coord.run();
    stats = coord.workerStats();
    for (const auto &r : results)
        ASSERT_TRUE(r.error.empty()) << r.error;

    // Worker health telemetry rode back on the result frames.
    ASSERT_FALSE(stats.empty());
    uint64_t cellsDone = 0;
    for (const auto &w : stats) {
        cellsDone += w.cellsDone;
        if (w.cellsDone > 0) {
            EXPECT_GT(w.rssKb, 0u);
            EXPECT_GT(counterValue(w.counters, "cells_executed"), 0u);
        }
    }
    EXPECT_EQ(cellsDone, results.size());
    EXPECT_FALSE(
        dispatch::workerSummary(stats, coord.wallMs()).empty());

    // The summary's phase columns fold the phases they name: the
    // baseline pass has its own column, apart from the study passes.
    {
        dispatch::WorkerStats built;
        built.pid = 42;
        built.cellsDone = 3;
        built.busyMs = 100;
        built.phaseMs = {{"trace", 10},        {"baseline", 7.5},
                         {"system_study", 20}, {"l1_study", 5},
                         {"timing", 3},        {"baseline", 1}};
        built.rssKb = 2048;
        std::istringstream table(dispatch::workerSummary({built}, 200));
        std::string title, header, rule, row;
        std::getline(table, title);
        std::getline(table, header);
        std::getline(table, rule);
        std::getline(table, row);
        EXPECT_NE(header.find("Trace ms  Base ms  Study ms  Timing ms"),
                  std::string::npos)
            << header;
        std::istringstream fields(row);
        std::vector<std::string> cols;
        for (std::string f; fields >> f;)
            cols.push_back(f);
        EXPECT_EQ(cols, (std::vector<std::string>{
                            "42", "3", "100.0", "50.0%", "10.0", "8.5",
                            "25.0", "3.0", "2.0", "0"}));
    }

    // Wire traffic was counted on the coordinator side.
    const auto snap = obs::snapshotCounters();
    EXPECT_GT(counterValue(snap, "wire_bytes_sent"), 0u);
    EXPECT_GT(counterValue(snap, "wire_bytes_received"), 0u);

    // The merged trace holds coordinator spans (this process) and
    // worker spans re-tagged with the workers' pids.
    const std::string json = obs::Recorder::get().chromeJson();
    const dispatch::JsonValue doc = dispatch::parseJson(json);
    const dispatch::JsonValue &events = traceEvents(doc);
    EXPECT_TRUE(hasEventNamed(events, "dispatch_cell"));
    EXPECT_TRUE(hasEventNamed(events, "worker_cell"));
    EXPECT_TRUE(hasEventNamed(events, "worker_spawn"));

    std::map<std::string, std::vector<uint64_t>> pidsByName;
    for (const auto &e : events.items)
        if (e.at("ph").asString() != "M")
            pidsByName[e.at("name").asString()].push_back(
                e.at("pid").asU64());
    const uint64_t selfPid = static_cast<uint64_t>(::getpid());
    for (uint64_t pid : pidsByName.at("dispatch_cell"))
        EXPECT_EQ(pid, selfPid);
    for (uint64_t pid : pidsByName.at("worker_cell"))
        EXPECT_NE(pid, selfPid);
    obs::Counters::get().reset();
}

// ---------------------------------------------------------------------
// reports are byte-identical with telemetry on
// ---------------------------------------------------------------------

TEST(ObsReport, JsonByteIdenticalWithRecorderEnabled)
{
    const ExperimentSpec spec = smallSpec(2);

    ASSERT_FALSE(obs::Recorder::get().enabled());
    const std::string jsonOff = toJson(spec, dispatch::runSpec(spec));
    const std::string tableOff = toTable(spec, dispatch::runSpec(spec));

    std::string jsonOn, tableOn;
    {
        ScopedRecorder rec;
        obs::Counters::get().reset();
        const auto results = dispatch::runSpec(spec);
        jsonOn = toJson(spec, results);
        tableOn = toTable(spec, results);
    }
    EXPECT_EQ(jsonOff, jsonOn);
    EXPECT_EQ(tableOff, tableOn);
    obs::Counters::get().reset();
}

// ---------------------------------------------------------------------
// engine-folded group aggregates
// ---------------------------------------------------------------------

TEST(ReportGroups, AggregateMatchesHandRolledFold)
{
    const ExperimentSpec spec = smallSpec(2);
    const auto results = dispatch::runSpec(spec);

    std::map<std::pair<std::string, std::string>, MetricSet> cells;
    for (const auto &r : results) {
        ASSERT_TRUE(r.error.empty()) << r.error;
        cells[{r.cell.workload, r.cell.engine.displayLabel()}] =
            r.metrics;
    }

    const auto groups = aggregateGroups(results);
    ASSERT_FALSE(groups.empty());
    // 4 suite groups x 2 engines.
    EXPECT_EQ(groups.size(), study::groupNames().size() * 2);

    for (const auto &g : groups) {
        MetricSet hand;
        uint64_t folded = 0;
        for (const auto &name : study::workloadsInGroup(g.group)) {
            auto it = cells.find({name, g.engine.displayLabel()});
            if (it == cells.end())
                continue;
            hand.aggregate(it->second);
            ++folded;
        }
        EXPECT_EQ(g.cells, folded);
        // Identical fold order -> bit-identical derived ratios.
        EXPECT_EQ(g.metrics.l1Coverage(), hand.l1Coverage());
        EXPECT_EQ(g.metrics.l1Uncovered(), hand.l1Uncovered());
        EXPECT_EQ(g.metrics.l1OverpredRate(), hand.l1OverpredRate());
    }
}

TEST(ReportGroups, ErrorCellsAreSkipped)
{
    const ExperimentSpec spec = smallSpec(1);
    auto results = dispatch::runSpec(spec);
    ASSERT_FALSE(results.empty());
    const auto before = aggregateGroups(results);
    results[0].error = "synthetic failure";
    const auto after = aggregateGroups(results);
    uint64_t cellsBefore = 0, cellsAfter = 0;
    for (const auto &g : before)
        cellsBefore += g.cells;
    for (const auto &g : after)
        cellsAfter += g.cells;
    EXPECT_EQ(cellsAfter + 1, cellsBefore);
}

TEST(ReportGroups, OptInOnlyInReportSinks)
{
    ExperimentSpec spec = smallSpec(2);
    const auto results = dispatch::runSpec(spec);

    spec.groups = false;
    const std::string plainTable = toTable(spec, results);
    EXPECT_EQ(plainTable, toTable(results));
    EXPECT_EQ(toJson(spec, results).find("\"groups\""),
              std::string::npos);

    spec.groups = true;
    const std::string groupTable = toTable(spec, results);
    EXPECT_EQ(groupTable.rfind(plainTable, 0), 0u);
    EXPECT_GT(groupTable.size(), plainTable.size());
    EXPECT_NE(toJson(spec, results).find("\"groups\""),
              std::string::npos);
}

// -------------------------------------------------------------------
// log2 histograms (PR 8)
// -------------------------------------------------------------------

TEST(ObsHistogram, BucketBoundaries)
{
    EXPECT_EQ(obs::Histogram::bucketOf(0), 0u);
    EXPECT_EQ(obs::Histogram::bucketOf(1), 1u);
    EXPECT_EQ(obs::Histogram::bucketOf(2), 2u);
    EXPECT_EQ(obs::Histogram::bucketOf(3), 2u);
    EXPECT_EQ(obs::Histogram::bucketOf(4), 3u);
    EXPECT_EQ(obs::Histogram::bucketOf(7), 3u);
    EXPECT_EQ(obs::Histogram::bucketOf(8), 4u);
    EXPECT_EQ(obs::Histogram::bucketOf(1023), 10u);
    EXPECT_EQ(obs::Histogram::bucketOf(1024), 11u);
    // bit_width(UINT64_MAX) = 64 must stay in range
    EXPECT_EQ(obs::Histogram::bucketOf(UINT64_MAX), 64u);
    EXPECT_LT(obs::Histogram::bucketOf(UINT64_MAX),
              obs::Histogram::kBuckets);
}

TEST(ObsHistogram, RecordAccumulatesCountSumAndBuckets)
{
    obs::Histogram h;
    h.record(0);
    h.record(5);
    h.record(5);
    h.record(UINT64_MAX);
    EXPECT_EQ(h.count.load(), 4u);
    EXPECT_EQ(h.sum.load(), 10 + UINT64_MAX);  // wraps, by design
    EXPECT_EQ(h.buckets[0].load(), 1u);
    EXPECT_EQ(h.buckets[3].load(), 2u);
    EXPECT_EQ(h.buckets[64].load(), 1u);
}

TEST(ObsHistogram, SnapshotSchemaIsStable)
{
    obs::Histograms::get().reset();
    const auto snap = obs::snapshotHistograms();
    ASSERT_EQ(snap.size(), 3u);
    EXPECT_EQ(snap[0].name, "dispatch_rtt_us");
    EXPECT_EQ(snap[1].name, "cell_wall_us");
    EXPECT_EQ(snap[2].name, "journal_fsync_us");
    // zero-count families still appear, with no buckets
    for (const auto &h : snap) {
        EXPECT_EQ(h.count, 0u);
        EXPECT_TRUE(h.buckets.empty());
    }
}

TEST(ObsHistogram, CellWallCountDeterministicAcrossThreads)
{
    // the recorded latencies are wall-clock dependent, but the sample
    // count is one per executed cell — identical for 1 and 4 threads
    auto cellWallCount = [](uint32_t threads) {
        obs::Histograms::get().reset();
        const auto results = dispatch::runSpec(smallSpec(threads));
        for (const auto &r : results)
            EXPECT_TRUE(r.error.empty()) << r.error;
        const auto snap = obs::snapshotHistograms();
        return std::pair<uint64_t, uint64_t>(snap[1].count,
                                             results.size());
    };
    const auto [count1, cells1] = cellWallCount(1);
    const auto [count4, cells4] = cellWallCount(4);
    EXPECT_EQ(count1, cells1);
    EXPECT_EQ(count4, cells4);
    EXPECT_EQ(count1, count4);
    obs::Histograms::get().reset();
}

// -------------------------------------------------------------------
// time-series sampler (PR 8)
// -------------------------------------------------------------------

TEST(ObsSampler, SampleLineSchemaRoundTrips)
{
    obs::Gauges::get().reset();
    obs::gaugeAdd(&obs::Gauges::cellsPending, 7);
    obs::gaugeAdd(&obs::Gauges::workersBusy, 3);
    obs::gaugeAdd(&obs::Gauges::cellsDone, 11);

    const std::string line = obs::StatsSampler::sampleLine(12.5);
    const dispatch::JsonValue doc = dispatch::parseJson(line);
    EXPECT_EQ(doc.at("schema").asU64(), 1u);
    EXPECT_DOUBLE_EQ(doc.at("ts_ms").asDouble(), 12.5);
    EXPECT_GT(doc.at("rss_kb").asU64(), 0u);

    const dispatch::JsonValue &gauges = doc.at("gauges");
    EXPECT_EQ(gauges.at("cells_pending").asU64(), 7u);
    EXPECT_EQ(gauges.at("workers_busy").asU64(), 3u);
    EXPECT_EQ(gauges.at("cells_done").asU64(), 11u);

    // every counter family appears, in declaration order
    const dispatch::JsonValue &counters = doc.at("counters");
    const auto snap = obs::snapshotCounters();
    ASSERT_EQ(counters.members.size(), snap.size());
    for (size_t i = 0; i < snap.size(); ++i)
        EXPECT_EQ(counters.members[i].first, snap[i].first);
    obs::Gauges::get().reset();
}

TEST(ObsSampler, WritesParsableJsonl)
{
    const std::string path =
        (std::filesystem::temp_directory_path() /
         ("stems-sampler-" + std::to_string(::getpid()) + ".jsonl"))
            .string();
    {
        obs::StatsSampler sampler;
        sampler.start(path, 5);
        EXPECT_TRUE(sampler.running());
        std::this_thread::sleep_for(std::chrono::milliseconds(30));
        sampler.stop();
        EXPECT_FALSE(sampler.running());
    }
    std::ifstream f(path);
    ASSERT_TRUE(f.is_open());
    std::string line;
    size_t lines = 0;
    double lastTs = -1;
    while (std::getline(f, line)) {
        if (line.empty())
            continue;
        const dispatch::JsonValue doc = dispatch::parseJson(line);
        EXPECT_EQ(doc.at("schema").asU64(), 1u);
        const double ts = doc.at("ts_ms").asDouble();
        EXPECT_GE(ts, lastTs);  // monotone within one run
        lastTs = ts;
        ++lines;
    }
    EXPECT_GE(lines, 1u);  // stop() always takes a final sample
    std::filesystem::remove(path);
}
