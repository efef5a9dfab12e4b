/**
 * @file
 * The `stems` CLI: front door to the experiment engine.
 *
 *   stems run [key=value ...]   expand and execute an experiment
 *                               matrix, emit JSON/CSV/table reports
 *                               (--dispatch=N farms cells to worker
 *                               processes)
 *   stems list                  registered workloads and prefetchers
 *   stems trace [key=value ...] record one workload trace to disk
 *   stems merge [json=OUT] A B  merge run reports by cell id
 *   stems worker                dispatch worker mode (internal)
 *   stems help                  usage
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <unistd.h>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dispatch/coordinator.hh"
#include "dispatch/journal.hh"
#include "dispatch/merge.hh"
#include "dispatch/worker.hh"
#include "driver/analyze.hh"
#include "driver/costmodel.hh"
#include "driver/metrics.hh"
#include "driver/report.hh"
#include "driver/runner.hh"
#include "driver/spec.hh"
#include "obs/counters.hh"
#include "obs/histogram.hh"
#include "obs/obs.hh"
#include "obs/sampler.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/transport.hh"
#include "study/suite.hh"
#include "trace/io.hh"
#include "workloads/workload.hh"

namespace {

using namespace stems;
using namespace stems::driver;

int
usage()
{
    std::cout <<
        "stems — Spatial Memory Streaming experiment engine\n\n"
        "  stems run [key=value ...]    run a workload x prefetcher x\n"
        "                               parameter matrix in parallel\n"
        "                               (--dispatch=N: in N crash-\n"
        "                               isolated worker processes)\n"
        "  stems list                   show workloads and prefetchers\n"
        "  stems trace workload=W out=FILE [ncpu= refs= seed=]\n"
        "                               record one trace to disk\n"
        "  stems merge [json=OUT] A.json B.json ...\n"
        "                               merge run reports by cell id\n"
        "  stems analyze [trace=F] [telemetry=F] [format=table|json]\n"
        "                               offline run analysis: critical\n"
        "                               path, phase breakdown, memo hit\n"
        "                               rates, worker utilization and\n"
        "                               stragglers from --trace-out /\n"
        "                               --telemetry-out artifacts\n"
        "  stems worker [--listen=ADDR [--once]]\n"
        "                               serve dispatched cells on\n"
        "                               stdin/stdout (spawned by\n"
        "                               stems run --dispatch=N), or on\n"
        "                               a unix:/path or host:port\n"
        "                               socket for workers= fleets\n"
        "  stems serve listen=ADDR [fleet=N max-active=N max-queue=N\n"
        "              journal-dir=DIR trace-dir=DIR trace-out=\n"
        "              telemetry-out= quiet=1]\n"
        "                               persistent experiment service:\n"
        "                               warm caches shared across\n"
        "                               requests, admission queuing,\n"
        "                               per-request journals for warm\n"
        "                               restart\n"
        "  stems submit server=ADDR [key=value ...]\n"
        "                               run a spec on a stems serve\n"
        "                               daemon; reports byte-identical\n"
        "                               to stems run on the same spec\n"
        "  stems help                   this text\n\n"
              << specHelp() <<
        "\nexamples:\n"
        "  stems run workloads=paper prefetchers=sms,ghb,none json=-\n"
        "  stems run workloads=OLTP-DB2 prefetchers=sms \\\n"
        "      sweep.pht-entries=1024,4096,16384 csv=sweep.csv table=1\n"
        "  stems run workloads=all prefetchers=sms timing=1 \\\n"
        "      trace-dir=/tmp/stems-traces json=report.json\n"
        "  stems run workloads=paper --dispatch=8 wall=0 json=a.json\n"
        "  stems run workloads=paper cells=0-5 json=part1.json &&\n"
        "      stems run workloads=paper cells=6-10 json=part2.json &&\n"
        "      stems merge json=full.json part1.json part2.json\n";
    return 0;
}

int
cmdList()
{
    std::cout << "workloads (paper suite, Table 1):\n";
    for (const auto &e : workloads::paperSuite())
        std::cout << "  " << e.name << "  ["
                  << workloads::suiteClassName(e.cls) << "]\n";
    std::cout << "workloads (extensions):\n";
    for (const auto &e : workloads::extensionSuite())
        std::cout << "  " << e.name << "  ["
                  << workloads::suiteClassName(e.cls) << "]\n";
    std::cout << "prefetchers:\n";
    const auto &reg = PrefetcherRegistry::builtin();
    for (const auto &name : reg.names())
        std::cout << "  " << name << ": " << reg.help(name) << "\n";
    std::cout <<
        "sweep axes (sweep.KEY=V1,V2,... crosses values per cell;\n"
        "every KEY also works as a top-level key=value):\n"
        "  block=BYTES                  cache/coherence block "
        "(geometry)\n"
        "  l1-kb= l1-assoc=             L1 geometry\n"
        "  l2-kb= l2-mb= l2-assoc=      L2 geometry\n"
        "  density=BYTES                access-density histograms at\n"
        "                               this power-of-two region size\n"
        "                               (mode=system; 0 = off)\n"
        "  trainer=agt|ls|ds            sms training structure: Active\n"
        "                               Generation Table, Logical\n"
        "                               Sectored tags, or Decoupled\n"
        "                               Sectored cache (mode=l1)\n"
        "  index=pc+off|pc|addr|pc+addr sms prediction index\n"
        "  (plus any prefetcher option listed above, e.g.\n"
        "   sweep.pht-entries=1024,16384)\n";
    std::cout << "metric families (JSON/CSV/wire emission is "
                 "schema-driven):\n";
    for (const auto &f : MetricSchema::builtin().families()) {
        std::printf("  %-26s %-9s %s\n", f.name.c_str(),
                    metricKindName(f.kind), f.help.c_str());
    }
    return 0;
}

int
cmdTrace(const std::vector<std::string> &args)
{
    Options opts;
    for (const auto &tok : args) {
        auto [k, v] = parseKeyValue(tok);
        if (k != "workload" && k != "out" && k != "ncpu" &&
            k != "refs" && k != "seed") {
            std::cerr << "stems trace: unknown key \"" << k
                      << "\" (expected workload, out, ncpu, refs, "
                         "seed)\n";
            return 2;
        }
        opts[k] = v;
    }
    const std::string workload = optStr(opts, "workload", "");
    const std::string out = optStr(opts, "out", "");
    if (workload.empty() || out.empty()) {
        std::cerr << "stems trace: workload= and out= are required\n";
        return 2;
    }
    const workloads::SuiteEntry *entry = workloads::findWorkload(workload);
    if (!entry) {
        std::cerr << "stems trace: unknown workload " << workload << "\n";
        return 2;
    }
    workloads::WorkloadParams p = study::defaultParams();
    p.ncpu = static_cast<uint32_t>(optU64(opts, "ncpu", p.ncpu));
    if (p.ncpu == 0) {
        std::cerr << "stems trace: ncpu must be positive\n";
        return 2;
    }
    p.refsPerCpu = optU64(opts, "refs", p.refsPerCpu);
    p.seed = optU64(opts, "seed", p.seed);

    auto w = entry->make();
    trace::Trace t = workloads::makeTrace(*w, p);
    // embed the generator fingerprint so engine replay rejects the
    // file once generators change behaviour
    if (!trace::writeTrace(t, out,
                           study::generatorConfigHash(workload, p))) {
        std::cerr << "stems trace: cannot write " << out << "\n";
        return 1;
    }
    std::cout << "wrote " << t.size() << " references to " << out
              << "\n";
    return 0;
}

int
cmdRun(const std::vector<std::string> &args)
{
    // --key=value is sugar for the key=value spec key (and a bare
    // --flag for flag=1), so dispatch/observability switches read
    // like conventional CLI options
    std::vector<std::string> tokens;
    tokens.reserve(args.size());
    for (const auto &arg : args) {
        if (arg.rfind("--", 0) == 0)
            tokens.push_back(arg.find('=') != std::string::npos
                                 ? arg.substr(2)
                                 : arg.substr(2) + "=1");
        else
            tokens.push_back(arg);
    }
    ExperimentSpec spec = parseSpec(tokens);
    // default output: JSON on stdout
    if (spec.jsonPath.empty() && spec.csvPath.empty() && !spec.table)
        spec.jsonPath = "-";

    if (!spec.traceOut.empty()) {
        obs::Recorder::get().enable();
        obs::setThreadName(spec.dispatch > 0 ? "coordinator" : "main");
    }

    const bool quiet = spec.quiet;
    // keep stdout clean for machine-readable output; when the summary
    // table is re-routed to stderr it shares the stream with progress,
    // so the ETA decoration is dropped there to keep it greppable
    const bool stdoutBusy = spec.jsonPath == "-" ||
        spec.csvPath == "-" || spec.traceOut == "-" ||
        spec.telemetryOut == "-";
    const bool showEta = !quiet && !(spec.table && stdoutBusy);

    // per-cell cost estimates power the progress ETA — the same model
    // schedule=cost dispatches by (see driver/costmodel.hh)
    std::map<uint32_t, double> costById;
    double totalCost = 0;
    if (showEta) {
        const CostModel model = CostModel::fromSpec(spec);
        for (const auto &cell : selectedCells(spec)) {
            const double c = model.estimate(cell);
            costById.emplace(cell.id, c);
            totalCost += c;
        }
    }

    // progress lines are composed before the single stream write so
    // they cannot interleave with worker stderr mid-line; doneCost and
    // lastPrint are guarded by the runner's progress mutex (the
    // dispatch coordinator calls from one thread)
    double doneCost = 0;
    const auto progressStart = std::chrono::steady_clock::now();
    auto lastPrint = progressStart - std::chrono::seconds(10);
    const auto progress = [&](const CellResult &r, size_t done,
                              size_t total) {
        if (quiet)
            return;
        const auto it = costById.find(r.cell.id);
        if (it != costById.end())
            doneCost += it->second;
        // rate-limit: a large sweep would otherwise flood stderr with
        // one line per cell; failures and the final cell always print
        const auto now = std::chrono::steady_clock::now();
        if (r.error.empty() && done != total &&
            now - lastPrint < std::chrono::milliseconds(250))
            return;
        lastPrint = now;
        std::ostringstream line;
        line << "stems: [" << done << "/" << total << "] "
             << r.cell.workload << " / "
             << r.cell.engine.displayLabel();
        const double elapsedS =
            std::chrono::duration<double>(now - progressStart)
                .count();
        if (showEta && done < total && doneCost > 0 &&
            totalCost > doneCost && elapsedS > 0) {
            char eta[64];
            std::snprintf(eta, sizeof(eta),
                          "  %.1f cells/s, ETA %.0fs",
                          static_cast<double>(done) / elapsedS,
                          elapsedS * (totalCost - doneCost) /
                              doneCost);
            line << eta;
        }
        line << (r.error.empty() ? "" : "  FAILED: " + r.error)
             << "\n";
        std::cerr << line.str();
    };

    if (!quiet) {
        const size_t nCells = selectedCells(spec).size();
        if (spec.dispatch > 0)
            std::cerr << "stems: " << nCells << " cells across "
                      << std::min<size_t>(spec.dispatch, nCells)
                      << " worker processes\n";
        else
            std::cerr << "stems: " << nCells << " cells ("
                      << spec.workloads.size() << " workloads x "
                      << spec.engines.size() << " prefetchers"
                      << (spec.sweeps.empty() ? "" : " x sweep")
                      << ")\n";
    }

    // time-series sampler: ticks in the background for the duration
    // of the run, reading atomics only — report bytes are identical
    // with it on or off
    obs::StatsSampler sampler;
    if (!spec.statsOut.empty())
        sampler.start(spec.statsOut, spec.statsIntervalMs);

    const auto runStart = std::chrono::steady_clock::now();
    std::vector<dispatch::WorkerStats> workerStats;
    // runSpec is the one execution entry point: fault plan, journal
    // and resume splicing, dispatch-vs-in-process selection
    std::vector<CellResult> results =
        dispatch::runSpec(spec, progress, &workerStats);
    const double runWallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - runStart)
            .count();
    sampler.stop();

    if (!spec.jsonPath.empty())
        writeReport(spec.jsonPath, toJson(spec, results));
    if (!spec.csvPath.empty())
        writeReport(spec.csvPath, toCsv(spec, results));
    if (spec.table)
        (stdoutBusy ? std::cerr : std::cout) << toTable(spec, results);

    // observability sinks come last so a report on stdout is already
    // complete before any telemetry text appears anywhere
    if (!spec.traceOut.empty())
        writeReport(spec.traceOut, obs::Recorder::get().chromeJson());
    if (spec.telemetry || !spec.telemetryOut.empty()) {
        const std::string dump =
            dispatch::telemetryJson(runWallMs, workerStats);
        if (!spec.telemetryOut.empty())
            writeReport(spec.telemetryOut, dump);
        if (spec.telemetry)
            std::cerr << dump;
        if (!workerStats.empty())
            std::cerr << dispatch::workerSummary(workerStats,
                                                 runWallMs);
    }

    int failed = 0;
    for (const auto &r : results)
        if (!r.error.empty())
            ++failed;
    return failed ? 1 : 0;
}

int
cmdMerge(const std::vector<std::string> &args)
{
    std::string outPath = "-";
    std::vector<std::string> inputs;
    for (const auto &arg : args) {
        if (arg.rfind("json=", 0) == 0) {
            outPath = arg.substr(5);
        } else if (arg.find('=') != std::string::npos) {
            std::cerr << "stems merge: unknown key \"" << arg
                      << "\" (expected json=OUT and input files)\n";
            return 2;
        } else {
            inputs.push_back(arg);
        }
    }
    if (inputs.empty()) {
        std::cerr << "stems merge: no input reports given\n";
        return 2;
    }
    std::vector<std::string> texts;
    for (const auto &path : inputs) {
        std::ifstream f(path, std::ios::binary);
        if (!f) {
            std::cerr << "stems merge: cannot read " << path << "\n";
            return 1;
        }
        std::ostringstream ss;
        ss << f.rdbuf();
        texts.push_back(ss.str());
    }
    writeReport(outPath, dispatch::mergeReports(texts));
    if (outPath != "-")
        std::cerr << "stems merge: wrote " << outPath << " ("
                  << inputs.size() << " reports)\n";
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> args(argv + 1, argv + argc);
    if (args.empty())
        return usage();
    const std::string cmd = args[0];
    args.erase(args.begin());
    try {
        if (cmd == "run")
            return cmdRun(args);
        if (cmd == "list")
            return cmdList();
        if (cmd == "trace")
            return cmdTrace(args);
        if (cmd == "merge")
            return cmdMerge(args);
        if (cmd == "analyze")
            return cmdAnalyze(args);
        if (cmd == "worker") {
            std::string listen;
            bool once = false;
            for (const auto &arg : args) {
                if (arg.rfind("--listen=", 0) == 0)
                    listen = arg.substr(9);
                else if (arg.rfind("listen=", 0) == 0)
                    listen = arg.substr(7);
                else if (arg == "--once" || arg == "once=1")
                    once = true;
            }
            if (!listen.empty())
                return serve::runListenWorker(listen, once);
            return dispatch::runWorker(STDIN_FILENO, STDOUT_FILENO);
        }
        if (cmd == "serve")
            return serve::cmdServe(args);
        if (cmd == "submit")
            return serve::cmdSubmit(args);
        if (cmd == "help" || cmd == "--help" || cmd == "-h")
            return usage();
        std::cerr << "stems: unknown command \"" << cmd
                  << "\" (try: stems help)\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "stems: " << e.what() << "\n";
        return 2;
    }
}
