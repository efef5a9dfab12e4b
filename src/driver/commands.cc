#include "driver/commands.hh"

#include <cstdio>
#include <iostream>
#include <unistd.h>

#include "dispatch/worker.hh"
#include "driver/analyze.hh"
#include "driver/metrics.hh"
#include "driver/registry.hh"
#include "driver/spec.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/transport.hh"
#include "study/suite.hh"

namespace stems::driver {

std::string
helpText()
{
    std::string server;
    serve::ServeArgs serveArgs;
    AnalyzeArgs analyzeArgs;
    TraceArgs traceArgs;
    WorkerArgs workerArgs;
    return std::string(
        "stems — Spatial Memory Streaming experiment engine\n\n"
        "  stems run [key=value ...]      run a workload x prefetcher x\n"
        "                                 parameter matrix\n"
        "  stems submit server=ADDR ...   run a spec on a stems serve\n"
        "                                 daemon (same report bytes)\n"
        "  stems serve listen=ADDR ...    persistent experiment service\n"
        "  stems analyze trace=F ...      offline analysis of --trace-out\n"
        "                                 / --telemetry-out artifacts\n"
        "  stems trace workload=W trace-dir=DIR ...\n"
        "                                 record the trace spill a run\n"
        "                                 with trace-dir=DIR replays\n"
        "  stems merge [json=OUT] A B ... merge run reports by cell id\n"
        "  stems worker ...               serve dispatched cells\n"
        "  stems list                     workloads, prefetcher options,\n"
        "                                 cell axes, metric families\n"
        "  stems help                     this text\n\n"
        "run keys (key=value in any order; --key=value and a bare "
        "--flag work too;\nconfig=FILE splices a file of key=value "
        "lines):\n") +
        renderKeys(specKeys()) + "\nsubmit keys (plus every run key):\n" +
        renderKeys(serve::submitKeys(server)) + "\nserve keys:\n" +
        renderKeys(serve::serveKeys(serveArgs)) + "\nanalyze keys:\n" +
        renderKeys(analyzeKeys(analyzeArgs)) + "\ntrace keys:\n" +
        renderKeys(traceKeys(traceArgs)) + "\nworker keys:\n" +
        renderKeys(workerKeys(workerArgs));
}

std::string
listText()
{
    std::string out = "workloads (paper suite, Table 1):\n";
    auto suite = [&out](const std::vector<workloads::SuiteEntry> &s) {
        for (const auto &e : s)
            out += "  " + e.name + "  [" +
                workloads::suiteClassName(e.cls) + "]\n";
    };
    suite(workloads::paperSuite());
    out += "workloads (extensions):\n";
    suite(workloads::extensionSuite());

    out += "prefetchers (pf.LABEL.OPT= / opt.OPT= / sweep.OPT=):\n";
    const auto &reg = PrefetcherRegistry::builtin();
    for (const auto &name : reg.names())
        out += "  " + name + ": " + reg.help(name);

    mem::MemSysConfig sys;
    uint32_t density = 0;
    out += "cell axes (top-level or sweep.KEY=V1,V2,...; every "
           "engine):\n" +
        renderKeys(cellKeys(sys, density));

    out += "metric families (JSON/CSV/wire emission is "
           "schema-driven):\n";
    for (const auto &f : MetricSchema::builtin().families()) {
        char line[256];
        std::snprintf(line, sizeof(line), "  %-26s %-9s %s\n",
                      f.name.c_str(), metricKindName(f.kind),
                      f.help.c_str());
        out += line;
    }
    return out;
}

TraceArgs::TraceArgs() : params(study::defaultParams()) {}

KeyTable
traceKeys(TraceArgs &a)
{
    KeyTable rows = {
        strKey("workload", a.workload, "suite entry to record"),
        strKey("trace-dir", a.traceDir, "spill dir a run's trace-dir= reads"),
    };
    for (auto &row : workloadKeys(a.params))
        rows.push_back(std::move(row));
    return rows;
}

int
cmdTrace(const std::vector<std::string> &args)
{
    TraceArgs a;
    parseKeys(traceKeys(a), args);
    if (a.workload.empty() || a.traceDir.empty()) {
        std::cerr << "stems trace: workload= and trace-dir= are "
                     "required\n";
        return 2;
    }
    study::TraceCache cache;
    cache.setSpillDir(a.traceDir);
    const uint64_t refs = cache.viewSet(a.workload, a.params).totalRefs();
    const std::string file = cache.spillPath(a.workload, a.params);
    // the spill is best effort inside the cache; here it is the point
    if (!trace::MappedTrace::open(
            file, study::generatorConfigHash(a.workload, a.params))) {
        std::cerr << "stems trace: cannot write " << file << "\n";
        return 1;
    }
    std::cout << "wrote " << refs << " references to " << file << "\n";
    return 0;
}

KeyTable
workerKeys(WorkerArgs &a)
{
    return {
        strKey("listen", a.listen, "unix:/path or host:port (no pipe)"),
        boolKey("once", a.once, "exit after one coordinator session"),
    };
}

int
cmdWorker(const std::vector<std::string> &args)
{
    WorkerArgs a;
    parseKeys(workerKeys(a), args);
    if (!a.listen.empty())
        return serve::runListenWorker(a.listen, a.once);
    return dispatch::runWorker(STDIN_FILENO, STDOUT_FILENO);
}

} // namespace stems::driver
