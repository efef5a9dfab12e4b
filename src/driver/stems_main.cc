/**
 * @file
 * The `stems` CLI: front door to the experiment engine.
 *
 *   stems run [key=value ...]   expand and execute an experiment
 *                               matrix, emit JSON/CSV/table reports
 *                               (--dispatch=N farms cells to worker
 *                               processes)
 *   stems list                  workloads, prefetcher options, axes
 *   stems trace [key=value ...] record one workload's trace spill
 *   stems merge [json=OUT] A B  merge run reports by cell id
 *   stems worker                dispatch worker mode (internal)
 *   stems help                  usage
 */

#include <chrono>
#include <cstdio>
#include <exception>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "dispatch/coordinator.hh"
#include "dispatch/journal.hh"
#include "dispatch/merge.hh"
#include "driver/analyze.hh"
#include "driver/commands.hh"
#include "driver/costmodel.hh"
#include "driver/report.hh"
#include "driver/runner.hh"
#include "driver/spec.hh"
#include "obs/counters.hh"
#include "obs/obs.hh"
#include "obs/sampler.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"

namespace {

using namespace stems;
using namespace stems::driver;

int
cmdRun(const std::vector<std::string> &args)
{
    ExperimentSpec spec = parseSpec(args);
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
        if (!readFile(path, texts.emplace_back())) {
            std::cerr << "stems merge: cannot read " << path << "\n";
            return 1;
        }
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
    if (args.empty()) {
        std::cout << helpText();
        return 0;
    }
    const std::string cmd = args[0];
    args.erase(args.begin());
    try {
        if (cmd == "run")
            return cmdRun(args);
        if (cmd == "list") {
            std::cout << listText();
            return 0;
        }
        if (cmd == "trace")
            return cmdTrace(args);
        if (cmd == "merge")
            return cmdMerge(args);
        if (cmd == "analyze")
            return cmdAnalyze(args);
        if (cmd == "worker")
            return cmdWorker(args);
        if (cmd == "serve")
            return serve::cmdServe(args);
        if (cmd == "submit")
            return serve::cmdSubmit(args);
        if (cmd == "help" || cmd == "--help" || cmd == "-h") {
            std::cout << helpText();
            return 0;
        }
        std::cerr << "stems: unknown command \"" << cmd
                  << "\" (try: stems help)\n";
        return 2;
    } catch (const std::exception &e) {
        std::cerr << "stems: " << e.what() << "\n";
        return 2;
    }
}
