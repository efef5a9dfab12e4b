/**
 * @file
 * Claim-order and analyze tests: the heaviest-first claim order is
 * deterministic and never changes report bytes, in-process or
 * dispatched; and the offline `stems analyze` pipeline (golden table
 * over a committed fixture, JSON schema, input validation).
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "dispatch/coordinator.hh"
#include "dispatch/journal.hh"
#include "dispatch/json.hh"
#include "driver/analyze.hh"
#include "driver/report.hh"
#include "driver/scheduler.hh"
#include "driver/spec.hh"

using namespace stems;
using namespace stems::driver;

namespace {

std::string
stemsBinary()
{
    return (std::filesystem::path(dispatch::selfExePath())
                .parent_path() /
            "stems")
        .string();
}

/** A small multi-engine matrix with visible cost spread. */
ExperimentSpec
mixedSpec(uint32_t threads)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=OLTP-DB2,Qry2", "prefetchers=sms,ghb,none",
         "ncpu=2", "refs=800", "seed=2", "wall=0",
         "threads=" + std::to_string(threads)});
    return spec;
}

} // namespace

// -------------------------------------------------------------------
// claim order: heaviest estimated cell first
// -------------------------------------------------------------------

TEST(DriverCostSchedule, LptPutsHeavierEnginesFirst)
{
    const ExperimentSpec spec = mixedSpec(1);
    CellScheduler sched(spec);
    const auto &cells = sched.cells();
    std::vector<size_t> order;
    while (const auto i = sched.claim())
        order.push_back(*i);
    ASSERT_EQ(order.size(), cells.size());

    // heuristic weights rank sms > ghb > none within a workload, and
    // the order is a permutation
    std::vector<char> seen(cells.size(), 0);
    double prev = -1;
    for (const size_t i : order) {
        ASSERT_LT(i, cells.size());
        EXPECT_FALSE(seen[i]);
        seen[i] = 1;
        const double c = estimatedCost(cells[i]);
        if (prev >= 0) {
            EXPECT_LE(c, prev);  // non-increasing cost
        }
        prev = c;
    }
    EXPECT_EQ(cells[order.front()].engine.kind, "sms");
    EXPECT_EQ(cells[order.back()].engine.kind, "none");

    // deterministic: same spec, same order
    CellScheduler again(spec);
    for (const size_t i : order)
        EXPECT_EQ(again.claim(), i);
}

TEST(DriverCostSchedule, ReportBytesIdenticalInProcess)
{
    // one lane claims strictly in cost order; four finish out of it.
    // Both reports render through the threads=1 spec, whose header
    // echoes threads=1
    const ExperimentSpec serial = mixedSpec(1);
    const std::string serialJson = toJson(serial, dispatch::runSpec(serial));

    ExperimentSpec parallel = mixedSpec(4);
    EXPECT_EQ(toJson(serial, dispatch::runSpec(parallel)), serialJson)
        << "threads=4 changed report bytes";
}

TEST(DriverCostSchedule, ReportBytesIdenticalTimingOnly)
{
    auto timingSpec = [](uint32_t threads) {
        return parseSpec(
            {"workloads=Qry2,em3d", "prefetchers=sms,none",
             "timing=only", "ncpu=2", "refs=600", "seed=5",
             "wall=0", "threads=" + std::to_string(threads)});
    };
    const ExperimentSpec serial = timingSpec(1);
    const std::string serialJson = toJson(serial, dispatch::runSpec(serial));

    const ExperimentSpec parallel = timingSpec(4);
    EXPECT_EQ(toJson(serial, dispatch::runSpec(parallel)), serialJson);
}

TEST(DispatchCostSchedule, ReportBytesIdenticalDispatched)
{
    ExperimentSpec inproc = mixedSpec(1);
    const std::string inprocJson = toJson(inproc, dispatch::runSpec(inproc));

    ExperimentSpec dispatched = mixedSpec(1);
    dispatched.dispatch = 2;
    dispatched.dispatchWorkerExe = stemsBinary();
    const auto results = dispatch::runSpec(dispatched, nullptr);
    for (const auto &r : results)
        EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(toJson(dispatched, results), inprocJson);
}

// -------------------------------------------------------------------
// stems analyze
// -------------------------------------------------------------------

namespace {

/** Committed fixture: a two-worker dispatched run, hand-reduced. */
const char *kFixtureTrace = R"({"displayTimeUnit":"ms","traceEvents":[
{"name":"thread_name","ph":"M","ts":0,"pid":10,"tid":1,"args":{"name":"coordinator"}},
{"name":"encode_cell","ph":"X","ts":0.000,"dur":50.000,"pid":10,"tid":1,"args":{"cell":"0"}},
{"name":"dispatch_cell","ph":"X","ts":100.000,"dur":10000.000,"pid":10,"tid":1,"args":{"cell":"0","pid":"11"}},
{"name":"worker_cell","ph":"X","ts":600.000,"dur":9000.000,"pid":11,"tid":1,"args":{"cell":"0","workload":"OLTP-DB2"}},
{"name":"trace","ph":"X","ts":700.000,"dur":2000.000,"pid":11,"tid":1,"args":{"workload":"OLTP-DB2","engine":"sms"}},
{"name":"system_study","ph":"X","ts":2800.000,"dur":6500.000,"pid":11,"tid":1,"args":{"workload":"OLTP-DB2","engine":"sms"}},
{"name":"dispatch_cell","ph":"X","ts":10200.000,"dur":4000.000,"pid":10,"tid":1,"args":{"cell":"1","pid":"12"}},
{"name":"worker_cell","ph":"X","ts":10400.000,"dur":3600.000,"pid":12,"tid":1,"args":{"cell":"1","workload":"Qry2"}},
{"name":"fault_fired","ph":"i","s":"p","ts":1000.000,"pid":11,"tid":1,"args":{"kind":"cell-crash","cell":"0"}}
]})";

const char *kFixtureTelemetry =
    R"({"telemetry":{"schema":2,"wall_ms":15.0,"peak_rss_kb":9000,)"
    R"("counters":{"trace_cache_hits":3,"trace_cache_misses":1,)"
    R"("baseline_memo_hits":1,"baseline_memo_misses":1,)"
    R"("timing_memo_hits":0,"timing_memo_misses":0},)"
    R"("histograms":{"dispatch_rtt_us":{"count":2,"sum_us":14000,)"
    R"("buckets":{"12":1,"14":1}}},)"
    R"("workers":[)"
    R"({"pid":11,"cells":1,"busy_ms":10.0,"lost":0,)"
    R"("peak_rss_kb":2048,)"
    R"("phases":{"trace":2.0,"baseline":1.5,"system_study":6.5}},)"
    R"({"pid":12,"cells":1,"busy_ms":4.0,"lost":1,)"
    R"("peak_rss_kb":1024,"phases":{"trace":1.0,"system_study":2.0}})"
    R"(]}})";

} // namespace

TEST(Analyze, GoldenTableOverFixture)
{
    AnalyzeOptions opts;
    opts.timelineBuckets = 10;
    const std::string out =
        analyzeRun(kFixtureTrace, kFixtureTelemetry, opts);

    const char *expected =
        "stems analyze: 7 spans, 1 instants, traced extent 14.2 ms\n"
        "\n"
        "== per-phase wall ==\n"
        "Span           Count  Total ms  Mean ms  Max ms  Share  \n"
        "-------------  -----  --------  -------  ------  -----  \n"
        "dispatch_cell  2      14.0      7.00     10.0    39.8%  \n"
        "worker_cell    2      12.6      6.30     9.0     35.8%  \n"
        "system_study   1      6.5       6.50     6.5     18.5%  \n"
        "trace          1      2.0       2.00     2.0     5.7%   \n"
        "encode_cell    1      0.1       0.05     0.1     0.1%   \n"
        "\n"
        "== critical path == (7 spans covering 14.1 ms of 14.2 ms "
        "extent)\n"
        "#  Span           Start ms  Dur ms  "
        "Detail                        \n"
        "-  -------------  --------  ------  "
        "----------------------------  \n"
        "1  encode_cell    0.0       0.1     "
        "cell=0                        \n"
        "2  trace          0.7       2.0     "
        "workload=OLTP-DB2 engine=sms  \n"
        "3  system_study   2.8       6.5     "
        "workload=OLTP-DB2 engine=sms  \n"
        "4  worker_cell    0.6       9.0     "
        "cell=0 workload=OLTP-DB2      \n"
        "5  dispatch_cell  0.1       10.0    "
        "cell=0 pid=11                 \n"
        "6  worker_cell    10.4      3.6     "
        "cell=1 workload=Qry2          \n"
        "7  dispatch_cell  10.2      4.0     "
        "cell=1 pid=12                 \n";
    // the golden covers the trace-derived sections; assert prefix so
    // wall-clock-free content is compared exactly
    EXPECT_EQ(out.substr(0, std::string(expected).size()), expected)
        << "full output:\n"
        << out;

    // telemetry-derived sections: spot-check the worker table, the
    // live summary's columns with the baseline apart from the study
    EXPECT_NE(out.find("trace_cache    3     1       75.0%"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("Worker  Cells  Busy ms  Util   Trace ms  Base ms  "
                       "Study ms  Timing ms  RSS MB  Lost"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("11      1      10.0     66.7%  2.0       1.5      "
                       "6.5       0.0        2.0     0"),
              std::string::npos)
        << out;
    EXPECT_NE(out.find("12      1      4.0      26.7%  1.0       0.0      "
                       "2.0       0.0        1.0     1"),
              std::string::npos)
        << out;
    // utilization timeline and straggler attribution
    EXPECT_NE(out.find("pid 11"), std::string::npos);
    EXPECT_NE(out.find("pid 12"), std::string::npos);
    EXPECT_NE(out.find("== stragglers =="), std::string::npos);
}

TEST(Analyze, JsonFormatHasAllSections)
{
    AnalyzeOptions opts;
    opts.format = "json";
    const std::string out =
        analyzeRun(kFixtureTrace, kFixtureTelemetry, opts);
    const dispatch::JsonValue doc = dispatch::parseJson(out);
    const dispatch::JsonValue &a = doc.at("analyze");
    EXPECT_EQ(a.at("schema").asU64(), 3u);
    EXPECT_EQ(a.at("span_count").asU64(), 7u);
    EXPECT_DOUBLE_EQ(a.at("wall_ms").asDouble(), 15.0);
    EXPECT_FALSE(a.at("phases").items.empty());
    EXPECT_FALSE(a.at("critical_path").items.empty());
    EXPECT_EQ(a.at("workers").items.size(), 2u);
    EXPECT_EQ(a.at("timeline").at("lanes").items.size(), 2u);
    EXPECT_FALSE(a.at("stragglers").items.empty());
    const dispatch::JsonValue &rate =
        a.at("hit_rates").at("trace_cache");
    EXPECT_EQ(rate.at("hits").asU64(), 3u);
    EXPECT_DOUBLE_EQ(rate.at("rate").asDouble(), 0.75);

    // worker utilization matches busy/wall
    const dispatch::JsonValue &w0 = a.at("workers").items[0];
    EXPECT_NEAR(w0.at("utilization").asDouble(), 10.0 / 15.0, 1e-5);
    // the baseline pass is reported apart from the study passes
    EXPECT_DOUBLE_EQ(w0.at("base_ms").asDouble(), 1.5);
    EXPECT_DOUBLE_EQ(w0.at("study_ms").asDouble(), 6.5);
}

TEST(Analyze, CriticalPathStaysChronologicalAtMicrosecondSteps)
{
    // a 6 us step 412 ms into the run, inside a 6.7 us parent: at six
    // significant digits the step's printed end (412.346 + 0.006)
    // would land after its parent's (412.345 + 0.0067)
    const char *trace = R"({"displayTimeUnit":"ms","traceEvents":[
{"name":"trace","ph":"X","ts":0.000,"dur":400000.000,"pid":1,"tid":1,"args":{}},
{"name":"system_study","ph":"X","ts":412345.000,"dur":6.700,"pid":1,"tid":1,"args":{}},
{"name":"baseline","ph":"X","ts":412345.600,"dur":6.000,"pid":1,"tid":1,"args":{}}
]})";
    AnalyzeOptions opts;
    opts.format = "json";
    const dispatch::JsonValue doc =
        dispatch::parseJson(analyzeRun(trace, "", opts));
    const auto &path = doc.at("analyze").at("critical_path").items;
    ASSERT_EQ(path.size(), 3u);
    EXPECT_EQ(path[1].at("name").asString(), "baseline");
    double prevEnd = 0;
    for (const dispatch::JsonValue &step : path) {
        const double end = step.at("start_ms").asDouble() +
            step.at("dur_ms").asDouble();
        EXPECT_GE(end, prevEnd - 1e-6) << step.at("name").asString();
        prevEnd = end;
    }
}

TEST(Analyze, TelemetryOnlySkipsTraceSections)
{
    const std::string out = analyzeRun("", kFixtureTelemetry, {});
    EXPECT_EQ(out.find("== per-phase wall =="), std::string::npos);
    EXPECT_NE(out.find("== memo / cache hit rates =="),
              std::string::npos);
    EXPECT_NE(out.find("== workers =="), std::string::npos);
}

TEST(Analyze, RejectsBadInput)
{
    EXPECT_THROW(analyzeRun("", "", {}), std::invalid_argument);
    EXPECT_THROW(analyzeRun("{\"notatrace\":1}", "", {}),
                 std::invalid_argument);
    EXPECT_THROW(analyzeRun("", "{\"nottelemetry\":1}", {}),
                 std::invalid_argument);
    AnalyzeOptions bad;
    bad.format = "xml";
    EXPECT_THROW(analyzeRun(kFixtureTrace, "", bad),
                 std::invalid_argument);
    AnalyzeOptions zero;
    zero.timelineBuckets = 0;
    EXPECT_THROW(analyzeRun(kFixtureTrace, "", zero),
                 std::invalid_argument);
    // the CLI keys reject what their fields cannot hold
    AnalyzeArgs args;
    EXPECT_THROW(parseKeys(analyzeKeys(args), {"top=-1"}),
                 std::invalid_argument);
    EXPECT_THROW(parseKeys(analyzeKeys(args), {"timeline-buckets=3x"}),
                 std::invalid_argument);
}

TEST(Analyze, AnalyzesARealRunsArtifacts)
{
    // end to end: run a dispatched matrix with the recorder on, write
    // the artifacts, analyze them back
    namespace fs = std::filesystem;
    const std::string dir =
        (fs::temp_directory_path() /
         ("stems-analyze-" + std::to_string(::getpid())))
            .string();
    fs::create_directories(dir);

    ExperimentSpec spec = mixedSpec(0);
    spec.dispatch = 2;
    spec.dispatchWorkerExe = stemsBinary();
    obs::Recorder::get().enable();
    std::vector<dispatch::WorkerStats> stats;
    double wallMs = 0;
    const auto results =
        dispatch::runSpec(spec, nullptr, &stats, &wallMs);
    const std::string trace = obs::Recorder::get().chromeJson();
    obs::Recorder::get().disable();
    for (const auto &r : results)
        EXPECT_TRUE(r.error.empty()) << r.error;

    AnalyzeOptions opts;
    opts.format = "json";
    const std::string out = analyzeRun(trace, "", opts);
    const dispatch::JsonValue doc = dispatch::parseJson(out);
    const dispatch::JsonValue &a = doc.at("analyze");
    EXPECT_GT(a.at("span_count").asU64(), 0u);
    EXPECT_FALSE(a.at("critical_path").items.empty());
    // every dispatched cell appears in exactly one timeline lane
    uint64_t laneCells = 0;
    for (const auto &lane : a.at("timeline").at("lanes").items)
        laneCells += static_cast<uint64_t>(
            lane.at("busy").items.size() > 0);
    EXPECT_GE(laneCells, 1u);
    fs::remove_all(dir);
}
