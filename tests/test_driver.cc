/**
 * @file
 * Experiment-engine tests: registry construction for every prefetcher
 * name, spec parsing and matrix expansion, parallel runner determinism
 * (same seed => identical stats across 1 vs. N threads), and trace
 * record/replay producing identical stats to live generation.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <unistd.h>

#include "dispatch/journal.hh"
#include "dispatch/json.hh"
#include "dispatch/wire.hh"
#include "driver/analyze.hh"
#include "driver/commands.hh"
#include "driver/report.hh"
#include "driver/spec.hh"
#include "obs/counters.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "sim/timing.hh"
#include "study/l1study.hh"
#include "study/suite.hh"
#include "trace/io.hh"
#include "trace/stream.hh"
#include "workloads/graph.hh"
#include "workloads/workload.hh"

using namespace stems;
using namespace stems::driver;

namespace {

mem::MemSysConfig
tinySys()
{
    mem::MemSysConfig cfg;
    cfg.ncpu = 2;
    return cfg;
}

/**
 * @p streams with each cpu field set to its stream index, as every
 * study pass reads them: a spill stores the stream index, a fresh
 * generation the field as generated.
 */
std::vector<trace::Trace>
stamped(std::vector<trace::Trace> streams)
{
    for (size_t s = 0; s < streams.size(); ++s)
        for (auto &a : streams[s])
            a.cpu = static_cast<uint32_t>(s);
    return streams;
}

/** A copy of @p cache's per-CPU streams for @p name, stamped. */
std::vector<trace::Trace>
streamsOf(study::TraceCache &cache, const std::string &name,
          const workloads::WorkloadParams &p)
{
    return stamped(cache.viewSet(name, p).materialize());
}

/** Spec tokens for a quick 2-workload matrix on 4 small CPUs. */
std::vector<std::string>
quickTokens()
{
    return {"workloads=sparse,graph", "prefetchers=sms,ghb",
            "ncpu=4", "refs=3000", "seed=7"};
}

void
expectSameMetrics(const MetricSet &a, const MetricSet &b)
{
    // every family must agree, whatever its kind
    for (const auto &f : metricFamilies()) {
        if (f.id == Metric::wallMs)
            continue;  // wall time legitimately differs across runs
        EXPECT_EQ(a.present(f.id), b.present(f.id)) << f.name;
        switch (f.kind) {
          case MetricKind::Counter:
            EXPECT_EQ(a.u64(f.id), b.u64(f.id)) << f.name;
            break;
          case MetricKind::Value:
          case MetricKind::Ratio:
            EXPECT_EQ(a.value(f.id), b.value(f.id)) << f.name;
            break;
          case MetricKind::Histogram:
          case MetricKind::Vector:
            EXPECT_EQ(a.vec(f.id), b.vec(f.id)) << f.name;
            break;
          case MetricKind::Timing:
            EXPECT_EQ(a.timingResult(f.id).cycles,
                      b.timingResult(f.id).cycles)
                << f.name;
            break;
        }
    }
    ASSERT_EQ(a.pfCounters.size(), b.pfCounters.size());
    for (size_t i = 0; i < a.pfCounters.size(); ++i) {
        EXPECT_EQ(a.pfCounters[i].first, b.pfCounters[i].first);
        EXPECT_EQ(a.pfCounters[i].second, b.pfCounters[i].second);
    }
}

std::string
tempDir(const char *tag)
{
    auto dir = std::filesystem::temp_directory_path() /
        (std::string("stems_test_") + tag + "_" +
         std::to_string(::getpid()));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir.string();
}

} // anonymous namespace

// ---------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------

TEST(PrefetcherRegistry, BuildsEveryRegisteredName)
{
    auto &reg = PrefetcherRegistry::builtin();
    auto names = reg.names();
    ASSERT_GE(names.size(), 5u);  // none, sms, ghb, stride, next-line
    for (const auto &name : names) {
        mem::MemorySystem sys(tinySys());
        auto dep = reg.create(name, sys, {});
        ASSERT_NE(dep, nullptr) << name;
        EXPECT_EQ(dep->name(), name);
        dep->drain();  // must be safe on a fresh deployment
    }
}

TEST(PrefetcherRegistry, UnknownNameThrows)
{
    mem::MemorySystem sys(tinySys());
    EXPECT_THROW(PrefetcherRegistry::builtin().create("bogus", sys, {}),
                 std::invalid_argument);
}

TEST(PrefetcherRegistry, SmsOptionsTranslate)
{
    Options o{{"region", "4096"},   {"pht-entries", "1024"},
              {"pht-assoc", "8"},   {"pht-update", "union"},
              {"agt-filter", "16"}, {"agt-accum", "48"},
              {"index", "pc"},      {"pred-regs", "4"},
              {"into-l1", "0"}};
    core::SmsConfig cfg = smsConfigFromOptions(o);
    EXPECT_EQ(cfg.geometry.regionSize(), 4096u);
    EXPECT_EQ(cfg.pht.entries, 1024u);
    EXPECT_EQ(cfg.pht.assoc, 8u);
    EXPECT_EQ(cfg.pht.update, core::PhtUpdateMode::Union);
    EXPECT_EQ(cfg.agt.filterEntries, 16u);
    EXPECT_EQ(cfg.agt.accumEntries, 48u);
    EXPECT_EQ(cfg.index, core::IndexKind::Pc);
    EXPECT_EQ(cfg.predictionRegisters, 4u);
    EXPECT_FALSE(cfg.intoL1);

    EXPECT_THROW(smsConfigFromOptions({{"pht-update", "wat"}}),
                 std::invalid_argument);
    EXPECT_THROW(smsConfigFromOptions({{"pht-entries", "lots"}}),
                 std::invalid_argument);
}

TEST(PrefetcherRegistry, GhbAndStrideOptionsTranslate)
{
    prefetch::GhbConfig g = ghbConfigFromOptions(
        {{"ghb-entries", "16384"}, {"it-entries", "1024"},
         {"degree", "8"}});
    EXPECT_EQ(g.ghbEntries, 16384u);
    EXPECT_EQ(g.itEntries, 1024u);
    EXPECT_EQ(g.degree, 8u);

    prefetch::StrideConfig s = strideConfigFromOptions(
        {{"entries", "512"}, {"threshold", "3"}});
    EXPECT_EQ(s.entries, 512u);
    EXPECT_EQ(s.threshold, 3u);
}

// ---------------------------------------------------------------------
// spec parsing + expansion
// ---------------------------------------------------------------------

TEST(ExperimentSpec, TwoByTwoMatrixExpands)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse,Apache", "prefetchers=sms,none"});
    auto cells = expandSpec(spec);
    ASSERT_EQ(cells.size(), 4u);
    // workload-major, engine order preserved
    EXPECT_EQ(cells[0].workload, "sparse");
    EXPECT_EQ(cells[0].engine.kind, "sms");
    EXPECT_EQ(cells[1].workload, "sparse");
    EXPECT_EQ(cells[1].engine.kind, "none");
    EXPECT_EQ(cells[2].workload, "Apache");
    EXPECT_EQ(cells[2].engine.kind, "sms");
    EXPECT_EQ(cells[3].workload, "Apache");
    EXPECT_EQ(cells[3].engine.kind, "none");
    for (uint32_t i = 0; i < 4; ++i)
        EXPECT_EQ(cells[i].id, i);
}

TEST(ExperimentSpec, SweepAxesCross)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms",
         "pf.sms.pht-assoc=8",
         "sweep.pht-entries=1024,16384", "sweep.pred-regs=1,16"});
    auto cells = expandSpec(spec);
    ASSERT_EQ(cells.size(), 4u);
    // last axis fastest
    EXPECT_EQ(cells[0].engine.options.at("pht-entries"), "1024");
    EXPECT_EQ(cells[0].engine.options.at("pred-regs"), "1");
    EXPECT_EQ(cells[1].engine.options.at("pred-regs"), "16");
    EXPECT_EQ(cells[3].engine.options.at("pht-entries"), "16384");
    // base options survive the sweep merge
    for (const auto &c : cells) {
        EXPECT_EQ(c.engine.options.at("pht-assoc"), "8");
        EXPECT_EQ(c.sweepPoint.size(), 2u);
    }
}

TEST(ExperimentSpec, SweepSkipsEnginesThatIgnoreTheAxis)
{
    // pred-regs means nothing to ghb: sms gets 2 cells, ghb gets 1
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms,ghb",
         "sweep.pred-regs=1,16"});
    auto cells = expandSpec(spec);
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(cells[0].engine.kind, "sms");
    EXPECT_EQ(cells[1].engine.kind, "sms");
    EXPECT_EQ(cells[2].engine.kind, "ghb");
    EXPECT_TRUE(cells[2].sweepPoint.empty());
}

TEST(ExperimentSpec, BlockSweepReshapesCellCaches)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms", "sweep.block=32,128"});
    auto cells = expandSpec(spec);
    ASSERT_EQ(cells.size(), 2u);
    EXPECT_EQ(cells[0].sys.l1.blockSize, 32u);
    EXPECT_EQ(cells[0].sys.l2.blockSize, 32u);
    EXPECT_EQ(cells[1].sys.l1.blockSize, 128u);
}

TEST(ExperimentSpec, LabelsAndPerLabelOptions)
{
    ExperimentSpec spec = parseSpec(
        {"prefetchers=ghb:GHB-256,ghb:GHB-16k",
         "pf.GHB-256.ghb-entries=256",
         "pf.GHB-16k.ghb-entries=16384"});
    ASSERT_EQ(spec.engines.size(), 2u);
    EXPECT_EQ(spec.engines[0].displayLabel(), "GHB-256");
    EXPECT_EQ(spec.engines[0].options.at("ghb-entries"), "256");
    EXPECT_EQ(spec.engines[1].options.at("ghb-entries"), "16384");
}

TEST(ExperimentSpec, RejectsBadInput)
{
    EXPECT_THROW(parseSpec({"workloads=nope"}), std::invalid_argument);
    EXPECT_THROW(parseSpec({"prefetchers=warp-drive"}),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec({"frobnicate=1"}), std::invalid_argument);
    EXPECT_THROW(parseSpec({"prefetchers=sms,sms"}),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec({"mode=l1", "prefetchers=ghb"}),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec({"pf.ghost.degree=2"}),
                 std::invalid_argument);
    // numbers out of their field's range, or negative, are rejected
    // rather than truncated or wrapped
    EXPECT_THROW(parseSpec({"ncpu=4294967298"}), std::invalid_argument);
    EXPECT_THROW(parseSpec({"threads=4294967297"}),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec({"seed=-1"}), std::invalid_argument);
    // a cell of no references would report all zeros as "ok"
    EXPECT_THROW(parseSpec({"refs=0"}), std::invalid_argument);
    EXPECT_THROW(parseSpec({"pf.sms.pht-entries=4294967296"}),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec({"sweep.pht-entries=1024,4294967296"}),
                 std::invalid_argument);
    // retired keys are unknown keys, not silently ignored ones
    EXPECT_THROW(parseSpec({"dispatch-speculate=1"}),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec({"stats-out=x"}), std::invalid_argument);
    EXPECT_THROW(parseSpec({"stats-interval-ms=5"}),
                 std::invalid_argument);
}

TEST(ExperimentSpec, AcceptedSyntaxParsesToTheSameValues)
{
    // base prefixes and surrounding forms still parse as before
    ExperimentSpec spec = parseSpec(
        {"ncpu=0x4", "refs=010", "seed=18446744073709551615",
         "--threads=2", "--quiet", "timing=only", "l2-kb=4096"});
    EXPECT_EQ(spec.params.ncpu, 4u);
    EXPECT_EQ(spec.params.refsPerCpu, 8u);
    EXPECT_EQ(spec.params.seed, UINT64_MAX);
    EXPECT_EQ(spec.threads, 2u);
    EXPECT_TRUE(spec.quiet);
    EXPECT_TRUE(spec.timing && spec.timingOnly);
    EXPECT_EQ(spec.sys.l2.sizeBytes, 4u << 20);
}

TEST(ExperimentSpec, DefaultsIgnoreTheEnvironment)
{
    // a spec means the same in every shell: stems run and a daemon
    // resolving the same tokens must agree
    setenv("STEMS_REFS_PER_CPU", "3000", 1);
    setenv("STEMS_SCALE", "4", 1);
    const ExperimentSpec spec = parseSpec({});
    unsetenv("STEMS_REFS_PER_CPU");
    unsetenv("STEMS_SCALE");
    EXPECT_EQ(spec.params.refsPerCpu, 100000u);
    EXPECT_EQ(spec.params.ncpu, 16u);
    EXPECT_EQ(spec.params.seed, 1u);
}

TEST(ExperimentSpec, RejectsBadEngineValuesWithTheCellMessage)
{
    // engine option values fail at parse time, with the message a
    // cell running them would carry
    auto message = [](std::vector<std::string> tokens) {
        try {
            parseSpec(tokens);
        } catch (const std::invalid_argument &e) {
            return std::string(e.what());
        }
        return std::string("accepted");
    };
    EXPECT_EQ(message({"prefetchers=sms", "opt.index=bogus"}),
              "index=bogus: expected pc+off|pc|addr|pc+addr");
    EXPECT_EQ(message({"prefetchers=sms", "pf.sms.pht-update=wat"}),
              "pht-update=wat: expected replace|union");
    EXPECT_EQ(message({"mode=l1", "prefetchers=sms",
                       "sweep.trainer=agt,xyz"}),
              "trainer=xyz: expected agt|ls|ds");
    EXPECT_EQ(message({"prefetchers=sms", "sweep.pht-entries=1024,lots"}),
              "option pht-entries=lots: expected an unsigned integer");
    EXPECT_EQ(message({"prefetchers=ghb", "sweep.degree=2,x"}),
              "option degree=x: expected an unsigned integer");
    EXPECT_EQ(message({"sweep.l1-kb=32,0"}),
              "option sweep.l1-kb=0: expected an integer in "
              "[1, 18014398509481983]");
    // a zero-entry stride table would divide by zero in every cell
    EXPECT_EQ(message({"prefetchers=stride", "opt.entries=0"}),
              "option entries=0: expected an integer in [1, 4294967295]");
    EXPECT_EQ(message({"prefetchers=stride", "sweep.entries=64,0"}),
              "option entries=0: expected an integer in [1, 4294967295]");
}

TEST(KeyTables, EveryRowParsesItsDefaultAndIsDocumented)
{
    std::string server;
    serve::ServeArgs serveArgs;
    AnalyzeArgs analyzeArgs;
    TraceArgs traceArgs;
    WorkerArgs workerArgs;
    mem::MemSysConfig sys;
    uint32_t density = 0;
    std::vector<std::pair<std::string, KeyTable>> tables = {
        {"run", specKeys()},
        {"submit", serve::submitKeys(server)},
        {"serve", serve::serveKeys(serveArgs)},
        {"analyze", analyzeKeys(analyzeArgs)},
        {"trace", traceKeys(traceArgs)},
        {"worker", workerKeys(workerArgs)},
        {"cell axes", cellKeys(sys, density)},
    };
    const auto &reg = PrefetcherRegistry::builtin();
    for (const auto &name : reg.names())
        tables.emplace_back("prefetcher " + name, reg.options(name));

    const std::string docs = helpText() + listText();
    size_t rows = 0;
    for (const auto &[table, keys] : tables) {
        for (const auto &row : keys) {
            ++rows;
            EXPECT_NE(docs.find("  " + row.name + "=" + row.def),
                      std::string::npos)
                << table << ": " << row.name << " is undocumented";
            EXPECT_FALSE(row.help.empty()) << table << ": " << row.name;
            // family rows (opt.OPT, ...) show value syntax, not a
            // default
            if (row.name.find_first_of("ABCDEFGHIJKLMNOPQRSTUVWXYZ") !=
                std::string::npos)
                continue;
            EXPECT_NO_THROW(row.apply(row.name, row.def))
                << table << ": " << row.name << "=" << row.def;
        }
    }
    EXPECT_GT(rows, 80u);
}

TEST(KeyTables, UnknownKeyListsTheKnownOnes)
{
    WorkerArgs a;
    try {
        parseKeys(workerKeys(a), {"--lisen=unix:/x"});
        FAIL() << "accepted a misspelled key";
    } catch (const std::invalid_argument &e) {
        EXPECT_EQ(std::string(e.what()),
                  "unknown key \"lisen\" (known: listen, once)");
    }
    parseKeys(workerKeys(a), {"--listen=unix:/x", "--once"});
    EXPECT_EQ(a.listen, "unix:/x");
    EXPECT_TRUE(a.once);
}

TEST(ExperimentSpec, RejectsMisspelledPrefetcherOptions)
{
    // a typo'd option must not silently run with defaults
    EXPECT_THROW(parseSpec({"prefetchers=sms",
                            "pf.sms.pht-entires=1024"}),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec({"prefetchers=sms",
                            "sweep.pht-entres=1024,16384"}),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec({"prefetchers=sms", "opt.degre=2"}),
                 std::invalid_argument);
    // ghb-only option is fine in a mixed matrix (applies where known)
    EXPECT_NO_THROW(parseSpec({"prefetchers=sms,ghb",
                               "sweep.ghb-entries=256,16384"}));
    // but not when no selected prefetcher understands it
    EXPECT_THROW(parseSpec({"prefetchers=sms",
                            "sweep.ghb-entries=256,16384"}),
                 std::invalid_argument);
}

TEST(ExperimentSpec, ConfigFileSplices)
{
    const std::string dir = tempDir("cfg");
    const std::string path = dir + "/exp.conf";
    {
        std::ofstream f(path);
        f << "# comment line\n"
          << "workloads=sparse\n"
          << "\n"
          << "prefetchers=stride   # trailing comment\n"
          << "refs=2000\n";
    }
    ExperimentSpec spec = parseSpec({"config=" + path, "ncpu=4"});
    ASSERT_EQ(spec.workloads.size(), 1u);
    EXPECT_EQ(spec.workloads[0], "sparse");
    ASSERT_EQ(spec.engines.size(), 1u);
    EXPECT_EQ(spec.engines[0].kind, "stride");
    EXPECT_EQ(spec.params.refsPerCpu, 2000u);
    EXPECT_EQ(spec.params.ncpu, 4u);
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// runner
// ---------------------------------------------------------------------

TEST(Runner, DeterministicAcrossThreadCounts)
{
    auto tokens = quickTokens();
    tokens.push_back("threads=1");
    ExperimentSpec one = parseSpec(tokens);
    tokens.back() = "threads=4";
    ExperimentSpec four = parseSpec(tokens);

    auto r1 = dispatch::runSpec(one);
    auto r4 = dispatch::runSpec(four);
    ASSERT_EQ(r1.size(), 4u);
    ASSERT_EQ(r1.size(), r4.size());
    for (size_t i = 0; i < r1.size(); ++i) {
        EXPECT_TRUE(r1[i].error.empty()) << r1[i].error;
        EXPECT_TRUE(r4[i].error.empty()) << r4[i].error;
        EXPECT_EQ(r1[i].cell.workload, r4[i].cell.workload);
        EXPECT_EQ(r1[i].cell.engine.kind, r4[i].cell.engine.kind);
        expectSameMetrics(r1[i].metrics, r4[i].metrics);
    }
    // sanity: SMS actually prefetched something
    EXPECT_GT(r1[0].metrics.u64(Metric::l1Covered), 0u);
}

TEST(Runner, TraceRecordThenReplayMatchesLiveStats)
{
    const std::string dir = tempDir("traces");

    auto live = dispatch::runSpec(parseSpec(quickTokens()));

    auto tokens = quickTokens();
    tokens.push_back("trace-dir=" + dir);
    // generates + writes
    auto recorded = dispatch::runSpec(parseSpec(tokens));

    // the spill directory now holds one .stmt per workload (plus the
    // generation .lock files guarding concurrent generators)
    size_t files = 0;
    for (const auto &e : std::filesystem::directory_iterator(dir)) {
        if (e.path().extension() == ".stmt")
            ++files;
        else
            EXPECT_EQ(e.path().extension(), ".lock");
    }
    EXPECT_EQ(files, 2u);

    auto replayed = dispatch::runSpec(parseSpec(tokens));  // reads from disk

    ASSERT_EQ(live.size(), recorded.size());
    ASSERT_EQ(live.size(), replayed.size());
    for (size_t i = 0; i < live.size(); ++i) {
        expectSameMetrics(live[i].metrics, recorded[i].metrics);
        expectSameMetrics(live[i].metrics, replayed[i].metrics);
    }
    std::filesystem::remove_all(dir);
}

TEST(TraceCommand, SpillReplaysInALaterRun)
{
    // stems trace records exactly the spill stems run trace-dir=
    // looks for: the following run replays it and reports what a
    // live run does
    const std::string dir = tempDir("tracecmd");
    ASSERT_EQ(cmdTrace({"workload=sparse", "trace-dir=" + dir, "ncpu=4",
                        "refs=3000", "seed=7"}),
              0);

    std::vector<std::string> tokens = {"workloads=sparse",
                                       "prefetchers=sms,none", "ncpu=4",
                                       "refs=3000", "seed=7", "wall=0"};
    const ExperimentSpec liveSpec = parseSpec(tokens);
    const std::string live = toJson(liveSpec, dispatch::runSpec(liveSpec));

    tokens.push_back("trace-dir=" + dir);
    const ExperimentSpec spec = parseSpec(tokens);
    const auto &replays = obs::Counters::get().traceSpillReplays;
    const uint64_t before = replays.load();
    const std::string replayed = toJson(spec, dispatch::runSpec(spec));
    EXPECT_GT(replays.load(), before);
    EXPECT_EQ(live, replayed);
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, SpillDirRoundTripsTraces)
{
    const std::string dir = tempDir("spill");
    workloads::WorkloadParams p;
    p.ncpu = 2;
    p.refsPerCpu = 1500;
    p.seed = 3;

    study::TraceCache writer;
    writer.setSpillDir(dir);
    const auto generated = streamsOf(writer, "graph", p);

    study::TraceCache reader;
    reader.setSpillDir(dir);
    const auto replayed = streamsOf(reader, "graph", p);
    ASSERT_EQ(generated.size(), replayed.size());
    EXPECT_TRUE(generated == replayed);
    std::filesystem::remove_all(dir);
}

TEST(Runner, CellErrorsAreCapturedNotFatal)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms", "ncpu=4", "refs=1000"});
    // sabotage: an invalid option value surfaces as a cell error
    spec.engines[0].options["region"] = "1000";  // not a power of two
    auto results = dispatch::runSpec(spec);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_FALSE(results[0].error.empty());
}

// ---------------------------------------------------------------------
// report
// ---------------------------------------------------------------------

TEST(Report, JsonAndCsvCarryTheMatrix)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms,none", "ncpu=4",
         "refs=2000"});
    auto results = dispatch::runSpec(spec);
    const std::string json = toJson(spec, results);
    EXPECT_NE(json.find("\"workload\":\"sparse\""), std::string::npos);
    EXPECT_NE(json.find("\"prefetcher\":\"sms\""), std::string::npos);
    EXPECT_NE(json.find("\"l2_coverage\""), std::string::npos);
    EXPECT_NE(json.find("\"stream_requests\""), std::string::npos);

    const std::string csv = toCsv(spec, results);
    size_t lines = 0;
    for (char c : csv)
        lines += c == '\n';
    EXPECT_EQ(lines, results.size() + 1);  // header + one per cell
}

TEST(Report, JsonWriterEscapes)
{
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
}

TEST(Report, CsvQuotesFieldsWithCommas)
{
    CellResult r;
    r.cell.workload = "sparse";
    r.cell.engine.kind = "sms";
    r.error = "bad thing, with commas and \"quotes\"";
    const std::string csv = toCsv(ExperimentSpec{}, {r});
    EXPECT_NE(csv.find("\"bad thing, with commas and \"\"quotes\"\"\""),
              std::string::npos);
    // the data row still has exactly as many columns as the header
    const size_t headerEnd = csv.find('\n');
    const std::string header = csv.substr(0, headerEnd);
    size_t headerCols = 1;
    for (char c : header)
        headerCols += c == ',';
    std::string row = csv.substr(headerEnd + 1);
    size_t rowCols = 1;
    bool quoted = false;
    for (char c : row) {
        if (c == '"')
            quoted = !quoted;
        else if (c == ',' && !quoted)
            ++rowCols;
    }
    EXPECT_EQ(rowCols, headerCols);
}

TEST(TraceIo, RejectsCorruptCountInsteadOfThrowing)
{
    const std::string dir = tempDir("io");
    const std::string path = dir + "/bad.stmt";
    trace::Trace t(16);
    ASSERT_TRUE(trace::writeTraceStreams({t}, path));
    {
        // corrupt the count field (magic + version + hash = 16 bytes)
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(16);
        uint64_t huge = ~uint64_t{0};
        f.write(reinterpret_cast<const char *>(&huge), sizeof(huge));
    }
    EXPECT_FALSE(trace::MappedTrace::open(path));
    std::filesystem::remove_all(dir);
}

TEST(TraceIo, RejectsOldFormatVersion)
{
    const std::string dir = tempDir("iov");
    const std::string path = dir + "/old.stmt";
    trace::Trace t(4);
    ASSERT_TRUE(trace::writeTraceStreams({t}, path));
    {
        // rewrite the version field (bytes 4..7) to format v1
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekp(4);
        uint32_t old = 1;
        f.write(reinterpret_cast<const char *>(&old), sizeof(old));
    }
    EXPECT_FALSE(trace::MappedTrace::open(path));
    std::filesystem::remove_all(dir);
}

TEST(TraceIo, RejectsGeneratorConfigHashMismatch)
{
    const std::string dir = tempDir("ioh");
    const std::string path = dir + "/t.stmt";
    trace::Trace t(4);
    ASSERT_TRUE(trace::writeTraceStreams({t}, path, 0xabcdef));

    EXPECT_TRUE(trace::MappedTrace::open(path, 0xabcdef));  // matching
    EXPECT_TRUE(trace::MappedTrace::open(path));            // unchecked
    EXPECT_FALSE(trace::MappedTrace::open(path, 0x123456)); // stale
    std::filesystem::remove_all(dir);
}

TEST(TraceCache, RejectsStaleSpillAndRegenerates)
{
    const std::string dir = tempDir("stale");
    workloads::WorkloadParams p;
    p.ncpu = 2;
    p.refsPerCpu = 1500;
    p.seed = 3;

    study::TraceCache writer;
    writer.setSpillDir(dir);
    const auto live = streamsOf(writer, "graph", p);

    // sabotage the spill: same shape, wrong generator fingerprint
    std::string file;
    for (const auto &e : std::filesystem::directory_iterator(dir))
        if (e.path().extension() == ".stmt")
            file = e.path().string();
    ASSERT_FALSE(file.empty());
    std::vector<trace::Trace> doctored =
        writer.viewSet("graph", p).materialize();
    doctored[0][0].addr ^= 0xff00;  // stale content a silent replay keeps
    ASSERT_TRUE(trace::writeTraceStreams(doctored, file, 0xdeadbeef));

    // a fresh cache must reject the stale file and regenerate
    study::TraceCache reader;
    reader.setSpillDir(dir);
    const auto regenerated = streamsOf(reader, "graph", p);
    EXPECT_TRUE(live == regenerated);

    // ... and the rewritten spill now carries the correct hash again
    auto spill =
        trace::MappedTrace::open(file, study::generatorConfigHash("graph", p));
    ASSERT_TRUE(spill);
    EXPECT_TRUE(live ==
                stamped(trace::StreamSet::mapped(spill).materialize()));
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// suite extension
// ---------------------------------------------------------------------

TEST(SuiteExtension, GraphRegisteredInFullSuiteOnly)
{
    EXPECT_NE(workloads::findWorkload("graph"), nullptr);
    for (const auto &e : workloads::paperSuite())
        EXPECT_NE(e.name, "graph");
    EXPECT_EQ(workloads::fullSuite().size(),
              workloads::paperSuite().size() +
                  workloads::extensionSuite().size());
}

TEST(SuiteExtension, HashJoinRegisteredOutsidePaperSuite)
{
    EXPECT_NE(workloads::findWorkload("hashjoin"), nullptr);
    for (const auto &e : workloads::paperSuite())
        EXPECT_NE(e.name, "hashjoin");
}

TEST(SuiteExtension, HashJoinGeneratesDeterministicStreams)
{
    workloads::WorkloadParams p;
    p.ncpu = 4;
    p.refsPerCpu = 3000;
    p.seed = 17;
    auto w1 = workloads::findWorkload("hashjoin")->make();
    auto w2 = workloads::findWorkload("hashjoin")->make();
    auto s1 = w1->generateStreams(p);
    auto s2 = w2->generateStreams(p);
    ASSERT_EQ(s1.size(), 4u);
    for (size_t c = 0; c < s1.size(); ++c) {
        ASSERT_EQ(s1[c].size(), p.refsPerCpu);
        EXPECT_TRUE(s1[c] == s2[c]);
    }
    // the probe phase shares build-side tables: some references must
    // cross into other CPUs' partitions (coherence traffic exists)
    bool crossPartition = false;
    const uint64_t partStride = 0x10000000ULL;
    for (const auto &a : s1[0]) {
        if (a.addr >= 0x04'00000000ULL + partStride &&
            a.addr < 0x05'00000000ULL)
            crossPartition = true;
    }
    EXPECT_TRUE(crossPartition);
}

TEST(SuiteExtension, HashJoinRunsThroughTheEngine)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=hashjoin", "prefetchers=sms,none", "ncpu=4",
         "refs=2000"});
    auto results = dispatch::runSpec(spec);
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results)
        ASSERT_TRUE(r.error.empty()) << r.error;
    // SMS finds the join's spatial structure
    EXPECT_GT(results[0].metrics.u64(Metric::l1Covered), 0u);
}

TEST(SuiteExtension, GraphSurvivesMoreCpusThanVertices)
{
    workloads::GraphParams gp;
    gp.vertices = 8;  // perCpu clamps to 1; partitions must wrap
    workloads::GraphWorkload w(gp);
    workloads::WorkloadParams p;
    p.ncpu = 32;
    p.refsPerCpu = 500;
    p.seed = 5;
    auto streams = w.generateStreams(p);
    ASSERT_EQ(streams.size(), 32u);
    for (const auto &s : streams)
        EXPECT_EQ(s.size(), p.refsPerCpu);
}

TEST(SuiteExtension, GraphGeneratesDeterministicStreams)
{
    workloads::WorkloadParams p;
    p.ncpu = 2;
    p.refsPerCpu = 2000;
    p.seed = 11;
    auto w1 = workloads::findWorkload("graph")->make();
    auto w2 = workloads::findWorkload("graph")->make();
    auto s1 = w1->generateStreams(p);
    auto s2 = w2->generateStreams(p);
    ASSERT_EQ(s1.size(), 2u);
    for (size_t c = 0; c < s1.size(); ++c) {
        ASSERT_EQ(s1[c].size(), p.refsPerCpu);
        EXPECT_TRUE(s1[c] == s2[c]);
    }
}

TEST(SuiteExtension, PacketRegisteredOutsidePaperSuite)
{
    EXPECT_NE(workloads::findWorkload("packet"), nullptr);
    for (const auto &e : workloads::paperSuite())
        EXPECT_NE(e.name, "packet");
    EXPECT_EQ(workloads::fullSuite().size(),
              workloads::paperSuite().size() +
                  workloads::extensionSuite().size());
}

TEST(SuiteExtension, PacketGeneratesDeterministicStreams)
{
    workloads::WorkloadParams p;
    p.ncpu = 4;
    p.refsPerCpu = 3000;
    p.seed = 23;
    auto w1 = workloads::findWorkload("packet")->make();
    auto w2 = workloads::findWorkload("packet")->make();
    auto s1 = w1->generateStreams(p);
    auto s2 = w2->generateStreams(p);
    ASSERT_EQ(s1.size(), 4u);
    for (size_t c = 0; c < s1.size(); ++c) {
        ASSERT_EQ(s1[c].size(), p.refsPerCpu);
        EXPECT_TRUE(s1[c] == s2[c]);
    }
    // a fraction of flow-state lookups cross into other CPUs' table
    // slices (the sharing surface), and the RX loop both loads and
    // stores
    bool crossPartition = false, stores = false;
    const uint64_t partStride = 0x10000000ULL;
    for (const auto &a : s1[0]) {
        if (a.addr >= 0x09'00000000ULL + partStride &&
            a.addr < 0x0A'00000000ULL)
            crossPartition = true;
        stores = stores || a.isWrite;
    }
    EXPECT_TRUE(crossPartition);
    EXPECT_TRUE(stores);
}

TEST(SuiteExtension, PacketRunsThroughTheEngine)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=packet", "prefetchers=sms,none", "ncpu=4",
         "refs=2000"});
    auto results = dispatch::runSpec(spec);
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results)
        ASSERT_TRUE(r.error.empty()) << r.error;
    // SMS finds the RX path's spatial structure
    EXPECT_GT(results[0].metrics.u64(Metric::l1Covered), 0u);
}

TEST(SuiteExtension, LsmCompactRegisteredOutsidePaperSuite)
{
    EXPECT_NE(workloads::findWorkload("lsmcompact"), nullptr);
    for (const auto &e : workloads::paperSuite())
        EXPECT_NE(e.name, "lsmcompact");
}

TEST(SuiteExtension, LsmCompactGeneratesDeterministicStreams)
{
    workloads::WorkloadParams p;
    p.ncpu = 4;
    p.refsPerCpu = 3000;
    p.seed = 31;
    auto w1 = workloads::findWorkload("lsmcompact")->make();
    auto w2 = workloads::findWorkload("lsmcompact")->make();
    auto s1 = w1->generateStreams(p);
    auto s2 = w2->generateStreams(p);
    ASSERT_EQ(s1.size(), 4u);
    for (size_t c = 0; c < s1.size(); ++c) {
        ASSERT_EQ(s1[c].size(), p.refsPerCpu);
        EXPECT_TRUE(s1[c] == s2[c]);
    }
    // a different seed produces a different merge order
    p.seed = 32;
    auto s3 = w1->generateStreams(p);
    EXPECT_FALSE(s1[0] == s3[0]);
    // the compaction loop reads the sorted runs and writes both the
    // write buffer and the shared manifest (kernel-side flushes)
    bool stores = false, kernel = false, deps = false;
    for (const auto &a : s1[0]) {
        stores = stores || a.isWrite;
        kernel = kernel || a.isKernel;
        deps = deps || a.dep > 0;
    }
    EXPECT_TRUE(stores);
    EXPECT_TRUE(kernel);
    EXPECT_TRUE(deps);
}

TEST(SuiteExtension, LsmCompactRunsThroughTheEngine)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=lsmcompact", "prefetchers=sms,none", "ncpu=4",
         "refs=2000"});
    auto results = dispatch::runSpec(spec);
    ASSERT_EQ(results.size(), 2u);
    for (const auto &r : results)
        ASSERT_TRUE(r.error.empty()) << r.error;
    // SMS covers the sorted-run scans and buffered flushes
    EXPECT_GT(results[0].metrics.u64(Metric::l1Covered), 0u);
}

// ---------------------------------------------------------------------
// engine-agnostic timing pipeline
// ---------------------------------------------------------------------

TEST(TimingPipeline, EveryRegistryEngineReportsUipcAndSpeedup)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms,ghb,stride,next-line,none",
         "timing=only", "ncpu=4", "refs=2000"});
    auto results = dispatch::runSpec(spec);
    ASSERT_EQ(results.size(), 5u);
    for (const auto &r : results) {
        ASSERT_TRUE(r.error.empty()) << r.error;
        const MetricSet &m = r.metrics;
        using enum Metric;
        EXPECT_GT(m.value(uipc), 0.0) << r.cell.engine.kind;
        EXPECT_GT(m.value(baselineUipc), 0.0) << r.cell.engine.kind;
        EXPECT_GT(m.value(speedup), 0.0) << r.cell.engine.kind;
        EXPECT_GT(m.timingResult(timing).cycles, 0.0) << r.cell.engine.kind;
        // baselines agree across engines: one memoized "none" pass
        EXPECT_EQ(m.value(baselineUipc), results.back().metrics.value(uipc));
    }
}

TEST(TimingPipeline, GhbStrideTimingDeterministicAcrossThreadCounts)
{
    std::vector<std::string> tokens{
        "workloads=sparse,graph", "prefetchers=ghb,stride",
        "timing=only", "ncpu=4", "refs=2000", "seed=13",
        "threads=1"};
    ExperimentSpec one = parseSpec(tokens);
    tokens.back() = "threads=4";
    ExperimentSpec four = parseSpec(tokens);

    auto r1 = dispatch::runSpec(one);
    auto r4 = dispatch::runSpec(four);
    ASSERT_EQ(r1.size(), 4u);
    ASSERT_EQ(r1.size(), r4.size());
    for (auto *rs : {&r1, &r4})
        for (auto &r : *rs) {
            ASSERT_TRUE(r.error.empty()) << r.error;
            r.metrics.setValue(Metric::wallMs, 0);
        }
    EXPECT_EQ(toJson(one, r1), toJson(one, r4));
    for (size_t i = 0; i < r1.size(); ++i) {
        EXPECT_EQ(r1[i].metrics.value(Metric::uipc),
                  r4[i].metrics.value(Metric::uipc));
        EXPECT_GT(r1[i].metrics.value(Metric::uipc), 0.0);
    }
}

TEST(TimingPipeline, TimingMemoKeysOnEngineOptions)
{
    // two SMS engines with different options must run (and report)
    // distinct timing passes — the memo may never hand a cell a stale
    // result recorded under other engine options...
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms:tiny,sms:full,sms:again",
         "pf.tiny.pht-entries=64", "pf.tiny.pht-assoc=4",
         "pf.tiny.region=256",
         "timing=only", "ncpu=4", "refs=2000"});
    auto results = dispatch::runSpec(spec);
    ASSERT_EQ(results.size(), 3u);
    for (const auto &r : results)
        ASSERT_TRUE(r.error.empty()) << r.error;
    EXPECT_NE(results[0].metrics.value(Metric::uipc),
              results[1].metrics.value(Metric::uipc));
    // ...while engines with identical configurations share one
    // memoized pass bit-exactly
    EXPECT_EQ(results[1].metrics.value(Metric::uipc),
              results[2].metrics.value(Metric::uipc));
    // and every cell's baseline is the shared no-prefetch pass
    EXPECT_EQ(results[0].metrics.value(Metric::baselineUipc),
              results[1].metrics.value(Metric::baselineUipc));
}

TEST(TimingPipeline, UntimedPassesNeverServeTimedCells)
{
    // an executor that already walked every (workload, engine) pair
    // without the core model must still time a later timing=1 spec
    std::vector<std::string> tokens{
        "workloads=sparse,graph", "prefetchers=sms,stride,none",
        "ncpu=4", "refs=2000", "seed=9", "wall=0"};
    const ExperimentSpec untimed = parseSpec(tokens);
    tokens.push_back("timing=1");
    const ExperimentSpec timed = parseSpec(tokens);

    CellExecutor exec(executorConfig(timed));
    for (const RunCell &cell : expandSpec(untimed))
        ASSERT_TRUE(exec.execute(cell).error.empty());
    std::vector<CellResult> results;
    for (const RunCell &cell : expandSpec(timed)) {
        results.push_back(exec.execute(cell));
        ASSERT_TRUE(results.back().error.empty());
        EXPECT_GT(results.back().metrics.value(Metric::uipc), 0.0);
    }
    EXPECT_EQ(toJson(timed, results), toJson(timed, dispatch::runSpec(timed)));
}

TEST(TimingPipeline, SmsThroughGenericSeamMatchesDirectController)
{
    // the executor's timing cell must equal a hand-wired
    // sim::runTiming with the same SMS deployment — uIPC and the full
    // Figure-13 breakdown, bit for bit
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=sms", "timing=only",
         "ncpu=4", "refs=2000", "seed=21"});
    auto results = dispatch::runSpec(spec);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].error.empty()) << results[0].error;

    auto w = workloads::findWorkload("sparse")->make();
    auto streams = w->generateStreams(spec.params);
    sim::TimingConfig tc;
    tc.sys = spec.sys;
    std::unique_ptr<PrefetcherDeployment> dep;
    auto direct = sim::runTiming(
        trace::StreamSet::borrowed(streams), tc, spec.params.seed,
        [&](mem::MemorySystem &sys) -> study::AttachedPrefetcher * {
            dep = PrefetcherRegistry::builtin().create("sms", sys, {});
            return dep.get();
        });

    const sim::TimingResult &cell =
        results[0].metrics.timingResult(Metric::timing);
    EXPECT_EQ(cell.cycles, direct.cycles);
    EXPECT_EQ(cell.userInstructions, direct.userInstructions);
    EXPECT_EQ(cell.breakdown.userBusy, direct.breakdown.userBusy);
    EXPECT_EQ(cell.breakdown.offChipRead, direct.breakdown.offChipRead);
    EXPECT_EQ(cell.breakdown.onChipRead, direct.breakdown.onChipRead);
    EXPECT_EQ(cell.breakdown.storeBuffer, direct.breakdown.storeBuffer);
    EXPECT_EQ(cell.breakdown.other, direct.breakdown.other);
    EXPECT_EQ(results[0].metrics.value(Metric::uipc), direct.uipc());
}

// ---------------------------------------------------------------------
// flat-table / trace-view equivalence suite
// ---------------------------------------------------------------------

TEST(Equivalence, PaperSuitePlusGraphJsonIdenticalAcrossThreadCounts)
{
    // the acceptance gate for the zero-copy hot path: the full paper
    // suite plus the graph extension, run seeded through the engine,
    // must emit byte-identical `stems run` JSON no matter how many
    // runner shards execute the cells (wall_ms excluded — it is the
    // only nondeterministic field)
    std::vector<std::string> tokens{
        "workloads=paper,graph", "prefetchers=sms,none",
        "ncpu=4", "refs=2000", "seed=13"};
    tokens.push_back("threads=1");
    ExperimentSpec one = parseSpec(tokens);
    tokens.back() = "threads=4";
    ExperimentSpec four = parseSpec(tokens);

    auto r1 = dispatch::runSpec(one);
    auto r4 = dispatch::runSpec(four);
    ASSERT_EQ(r1.size(), 24u);
    ASSERT_EQ(r1.size(), r4.size());
    for (auto *rs : {&r1, &r4})
        for (auto &r : *rs) {
            ASSERT_TRUE(r.error.empty()) << r.error;
            r.metrics.setValue(Metric::wallMs, 0);
        }
    // spec.threads differs by construction; compare the cells array
    const std::string j1 = toJson(one, r1);
    const std::string j4 = toJson(one, r4);
    EXPECT_EQ(j1, j4);
}

// ---------------------------------------------------------------------
// metric table
// ---------------------------------------------------------------------

TEST(MetricTable, FamiliesResolveAndAreUnique)
{
    ASSERT_EQ(metricFamilies().size(), kMetricCount);
    std::set<std::string> names;
    for (const auto &f : metricFamilies()) {
        EXPECT_TRUE(names.insert(f.name).second) << f.name;
        ASSERT_NE(findMetric(f.name), nullptr) << f.name;
        EXPECT_EQ(findMetric(f.name)->id, f.id) << f.name;
        EXPECT_EQ(&metricFamily(f.id), &f) << f.name;
    }
    EXPECT_EQ(findMetric("no_such_family"), nullptr);
    using enum Metric;
    EXPECT_STREQ(metricFamily(instructions).name, "instructions");
    EXPECT_EQ(metricFamily(l1Density).kind, MetricKind::Histogram);
    EXPECT_EQ(bucketLabels(metricFamily(l1Density)).size(),
              study::kDensityBuckets);
    EXPECT_TRUE(bucketLabels(metricFamily(l1Coverage)).empty());
    EXPECT_EQ(metricFamily(peakAccumOccupancy).agg, MetricAgg::Max);
}

TEST(MetricSet, AggregateFollowsFamilyRules)
{
    using enum Metric;
    MetricSet a, b;
    a.setU64(l1Covered, 10);
    a.setU64(baselineL1ReadMisses, 100);
    a.setU64(peakAccumOccupancy, 7);
    a.setVec(l1Density, {1, 2, 3, 4, 5, 6, 7});
    a.pfCounters = {{"triggers", 5}};
    b.setU64(l1Covered, 30);
    b.setU64(baselineL1ReadMisses, 100);
    b.setU64(peakAccumOccupancy, 3);
    b.setVec(l1Density, {10, 0, 0, 0, 0, 0, 0});
    b.pfCounters = {{"triggers", 2}, {"pht_hits", 1}};

    MetricSet agg;
    agg.aggregate(a);
    agg.aggregate(b);
    EXPECT_EQ(agg.u64(l1Covered), 40u);                 // Sum
    EXPECT_EQ(agg.u64(baselineL1ReadMisses), 200u);     // Sum
    EXPECT_EQ(agg.u64(peakAccumOccupancy), 7u);         // Max
    EXPECT_EQ(agg.vec(l1Density),
              (std::vector<uint64_t>{11, 2, 3, 4, 5, 6, 7}));
    // ratios derive from the folded operands, CoverageAgg-style
    EXPECT_DOUBLE_EQ(agg.value(l1Coverage), 40.0 / 200.0);
    ASSERT_EQ(agg.pfCounters.size(), 2u);
    EXPECT_EQ(agg.pfCounters[0], (std::pair<std::string, uint64_t>{
                                     "triggers", 7}));
    // families neither input produced stay absent
    EXPECT_FALSE(agg.present(uipc));
}

TEST(MetricSet, HiddenFamilyRidesTheWireNotTheReport)
{
    // a family is one enumerator and one row: no serializer edits
    CellResult r;
    r.cell.id = 0;
    r.metrics.setU64(Metric::peakAccumOccupancy, 1234);
    // wire: encodes under its name, decodes into the same slot
    const auto wire = dispatch::encodeResult(r);
    EXPECT_NE(wire.find("\"peak_accum_occupancy\":1234"),
              std::string::npos);
    const CellResult back =
        dispatch::decodeResult(dispatch::parseJson(wire));
    EXPECT_EQ(back.metrics.u64(Metric::peakAccumOccupancy), 1234u);
    // JSON report: hidden families never appear
    ExperimentSpec spec = parseSpec({"workloads=sparse"});
    const std::string json = toJson(spec, {r});
    EXPECT_EQ(json.find("peak_accum_occupancy"), std::string::npos);
}

// ---------------------------------------------------------------------
// density and trainer axes
// ---------------------------------------------------------------------

TEST(DensityAxis, CellsCarrySevenBucketHistograms)
{
    ExperimentSpec spec = parseSpec(
        {"workloads=sparse", "prefetchers=none", "density=2048",
         "ncpu=4", "refs=2000"});
    auto results = dispatch::runSpec(spec);
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].error.empty()) << results[0].error;
    const MetricSet &m = results[0].metrics;
    ASSERT_EQ(m.vec(Metric::l1Density).size(), study::kDensityBuckets);
    ASSERT_EQ(m.vec(Metric::l2Density).size(), study::kDensityBuckets);
    uint64_t total = 0;
    for (uint64_t v : m.vec(Metric::l1Density))
        total += v;
    EXPECT_GT(total, 0u);
    // the histogram listener must not perturb the measured system
    ExperimentSpec plain = parseSpec(
        {"workloads=sparse", "prefetchers=none", "ncpu=4",
         "refs=2000"});
    auto base = dispatch::runSpec(plain);
    ASSERT_TRUE(base[0].error.empty());
    EXPECT_EQ(base[0].metrics.u64(Metric::l1ReadMisses),
              m.u64(Metric::l1ReadMisses));
    EXPECT_EQ(base[0].metrics.u64(Metric::l2ReadMisses),
              m.u64(Metric::l2ReadMisses));
    EXPECT_FALSE(base[0].metrics.present(Metric::l1Density));
}

TEST(DensityAxis, SweepsPerCellAndStaysDeterministic)
{
    std::vector<std::string> tokens{
        "workloads=sparse", "prefetchers=none",
        "sweep.density=512,2048", "ncpu=4", "refs=2000", "seed=5",
        "threads=1"};
    ExperimentSpec one = parseSpec(tokens);
    tokens.back() = "threads=4";
    ExperimentSpec four = parseSpec(tokens);
    auto r1 = dispatch::runSpec(one);
    auto r4 = dispatch::runSpec(four);
    ASSERT_EQ(r1.size(), 2u);
    EXPECT_EQ(r1[0].cell.densityRegion, 512u);
    EXPECT_EQ(r1[1].cell.densityRegion, 2048u);
    for (auto *rs : {&r1, &r4})
        for (auto &r : *rs) {
            ASSERT_TRUE(r.error.empty()) << r.error;
            r.metrics.setValue(Metric::wallMs, 0);
        }
    EXPECT_EQ(toJson(one, r1), toJson(one, r4));
    // coarser regions concentrate the same misses into fewer, denser
    // generations — the histograms must differ
    EXPECT_NE(r1[0].metrics.vec(Metric::l1Density),
              r1[1].metrics.vec(Metric::l1Density));
}

TEST(TrainerAxis, SweepMatchesDirectL1StudyAndIsDeterministic)
{
    std::vector<std::string> tokens{
        "mode=l1", "workloads=sparse,Apache", "prefetchers=sms",
        "opt.pht-entries=0", "opt.agt-filter=0", "opt.agt-accum=0",
        "sweep.trainer=ds,ls,agt", "ncpu=4", "refs=2000", "seed=5",
        "threads=1"};
    ExperimentSpec one = parseSpec(tokens);
    tokens.back() = "threads=4";
    ExperimentSpec four = parseSpec(tokens);
    auto r1 = dispatch::runSpec(one);
    auto r4 = dispatch::runSpec(four);
    ASSERT_EQ(r1.size(), 6u);
    for (auto *rs : {&r1, &r4})
        for (auto &r : *rs) {
            ASSERT_TRUE(r.error.empty()) << r.error;
            r.metrics.setValue(Metric::wallMs, 0);
        }
    EXPECT_EQ(toJson(one, r1), toJson(one, r4));

    // each trainer cell reproduces a hand-wired study::runL1Study
    study::TraceCache traces;
    workloads::WorkloadParams p;
    p.ncpu = 4;
    p.refsPerCpu = 2000;
    p.seed = 5;
    const study::TrainerKind kinds[] = {
        study::TrainerKind::DecoupledSectored,
        study::TrainerKind::LogicalSectored,
        study::TrainerKind::AGT};
    for (size_t i = 0; i < 3; ++i) {
        study::L1StudyConfig cfg;
        cfg.ncpu = p.ncpu;
        cfg.trainer = kinds[i];
        cfg.sms.pht.entries = 0;
        cfg.sms.agt = {0, 0};
        auto direct =
            study::runL1Study(traces.viewSet("sparse", p), cfg, p.seed);
        const MetricSet &m = r1[i].metrics;
        EXPECT_EQ(m.u64(Metric::l1Covered), direct.coveredReads)
            << trainerName(kinds[i]);
        EXPECT_EQ(m.u64(Metric::l1ReadMisses), direct.readMisses);
        EXPECT_EQ(m.u64(Metric::l1Overpred), direct.overpredictions);
    }
    // the trainers genuinely differ on this workload
    EXPECT_NE(r1[0].metrics.u64(Metric::l1ReadMisses),
              r1[2].metrics.u64(Metric::l1ReadMisses));
}

TEST(TrainerAxis, RejectedOutsideL1Mode)
{
    EXPECT_THROW(parseSpec({"workloads=sparse", "prefetchers=sms",
                            "opt.trainer=ls"}),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec({"workloads=sparse", "prefetchers=sms",
                            "sweep.trainer=ls,agt"}),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec({"mode=l1", "workloads=sparse",
                            "prefetchers=sms", "density=2048"}),
                 std::invalid_argument);
    EXPECT_THROW(parseSpec({"workloads=sparse", "density=100"}),
                 std::invalid_argument);
}
