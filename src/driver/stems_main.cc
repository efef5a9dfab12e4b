/**
 * @file
 * The `stems` CLI: front door to the experiment engine.
 *
 *   stems run [key=value ...]   expand and execute an experiment
 *                               matrix, emit JSON/CSV/table reports
 *                               (--dispatch=N farms cells to worker
 *                               processes)
 *   stems figure NAME [...]     render a paper figure or table
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
#include <sstream>
#include <string>
#include <vector>

#include "dispatch/coordinator.hh"
#include "dispatch/journal.hh"
#include "dispatch/merge.hh"
#include "driver/analyze.hh"
#include "driver/commands.hh"
#include "driver/figures.hh"
#include "driver/report.hh"
#include "driver/scheduler.hh"
#include "driver/spec.hh"
#include "obs/counters.hh"
#include "obs/obs.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"

namespace {

using namespace stems;
using namespace stems::driver;

/**
 * `stems run`, or `stems figure` given @p fig: its tokens go before
 * @p args and the figure, rendered from the run(s), replaces the
 * default JSON report on stdout.
 */
int
cmdRun(const std::vector<std::string> &args, const Figure *fig = nullptr)
{
    ExperimentSpec spec = fig ? figureSpec(*fig, args) : parseSpec(args);
    // default output: JSON on stdout
    if (!fig && spec.jsonPath.empty() && spec.csvPath.empty() &&
        !spec.table)
        spec.jsonPath = "-";

    if (!spec.traceOut.empty()) {
        obs::Recorder::get().enable();
        obs::setThreadName(spec.dispatch > 0 ? "coordinator" : "main");
    }

    const bool quiet = spec.quiet;
    // keep stdout clean for machine-readable output; when the summary
    // table is re-routed to stderr it shares the stream with progress,
    // so the ETA decoration is dropped there to keep it greppable
    const bool stdoutBusy = fig || spec.jsonPath == "-" ||
        spec.csvPath == "-" || spec.traceOut == "-" ||
        spec.telemetryOut == "-";
    const bool showEta = !quiet && !(spec.table && stdoutBusy);

    // progress lines are composed before the single stream write so
    // they cannot interleave with worker stderr mid-line. The ETA
    // weighs cells by the scheduler's estimatedCost; its state belongs
    // to one runSpec call (a figure may run several specs) and is
    // reset by run()'s start hook below. doneCost and lastPrint are
    // guarded by the scheduler's hook mutex
    double totalCost = 0;
    double doneCost = 0;
    std::chrono::steady_clock::time_point progressStart;
    std::chrono::steady_clock::time_point lastPrint;
    const auto progress = [&](const CellResult &r, size_t done,
                              size_t total) {
        if (quiet)
            return;
        doneCost += estimatedCost(r.cell);
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

    const auto runStart = std::chrono::steady_clock::now();
    std::vector<dispatch::WorkerStats> workerStats;
    // runSpec is the one execution entry point: fault plan, journal
    // and resume splicing, dispatch-vs-in-process selection
    std::vector<CellResult> results;
    const RunFn run = [&](const ExperimentSpec &s) {
        // the header and the ETA cover only the cells this call
        // executes, not the ones a resumed journal already holds
        const dispatch::StartFn start = [&](const CellScheduler &sched) {
            totalCost = 0;
            for (size_t i = 0; i < sched.cells().size(); ++i)
                if (!sched.done(i))
                    totalCost += estimatedCost(sched.cells()[i]);
            doneCost = 0;
            progressStart = std::chrono::steady_clock::now();
            lastPrint = progressStart - std::chrono::seconds(10);
            const size_t nCells = sched.pending();
            if (quiet)
                return;
            if (s.dispatch > 0)
                std::cerr << "stems: " << nCells << " cells across "
                          << std::min<size_t>(s.dispatch, nCells)
                          << " worker processes\n";
            else
                std::cerr << "stems: " << nCells << " cells ("
                          << s.workloads.size() << " workloads x "
                          << s.engines.size() << " prefetchers"
                          << (s.sweeps.empty() ? "" : " x sweep")
                          << ")\n";
        };
        results = dispatch::runSpec(s, progress, &workerStats, nullptr,
                                    start);
        return results;
    };
    int failed = 0;
    if (!fig) {
        run(spec);
    } else {
        try {
            std::cout << renderFigure(*fig, spec, run);
        } catch (const std::runtime_error &e) {
            std::cerr << "stems figure: " << e.what() << "\n";
            failed = 1;
        }
    }
    const double runWallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - runStart)
            .count();

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
    if (!spec.telemetryOut.empty()) {
        writeReport(spec.telemetryOut,
                    dispatch::telemetryJson(runWallMs, workerStats));
        if (!workerStats.empty())
            std::cerr << dispatch::workerSummary(workerStats,
                                                 runWallMs);
    }

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
        if (cmd == "figure") {
            const Figure &fig = findFigure(args.empty() ? "" : args[0]);
            return cmdRun({args.begin() + 1, args.end()}, &fig);
        }
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
