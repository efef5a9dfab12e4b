/**
 * @file
 * `stems_benchmark layers`: the per-layer panel. Times each layer of a
 * cell from outside, by calling the module's public functions with a
 * benchmark-side span around every call, over the paper's four-class
 * panel (OLTP-DB2, Qry1, Apache, em3d), single-threaded except where
 * the layer is itself concurrent (the serve section runs two clients).
 *
 * Output: one JSON object of raw per-layer totals (ns, counts, bytes);
 * run.py turns them into the named per-layer metrics. trace= receives
 * the spans as Chrome trace-event JSON.
 */

#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <mutex>
#include <thread>
#include <vector>

#include "common.hh"
#include "core/sms.hh"
#include "dispatch/journal.hh"
#include "dispatch/wire.hh"
#include "driver/executor.hh"
#include "driver/registry.hh"
#include "driver/spec.hh"
#include "mem/memsys.hh"
#include "obs/counters.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/service.hh"
#include "sim/timing.hh"
#include "spans.hh"
#include "study/l1study.hh"
#include "study/memstudy.hh"
#include "study/suite.hh"
#include "subcommands.hh"
#include "trace/interleaver.hh"
#include "trace/io.hh"
#include "trace/stream.hh"

namespace stems::bench {

namespace {

const std::vector<std::string> kPanel = {"OLTP-DB2", "Qry1", "Apache",
                                         "em3d"};
const std::vector<std::string> kEngines = {"sms", "ghb", "stride",
                                           "next-line"};
const std::vector<uint32_t> kL1Regions = {256, 2048, 8192};
/** Warm resubmissions per client thread in the serve section. */
constexpr int kWarmPerClient = 5;

/** Keeps a computed value alive past the optimizer. */
volatile uint64_t gSink = 0;

std::string
arg(const std::string &key, const std::string &value)
{
    return "\"" + key + "\":\"" + value + "\"";
}

/** Per-layer totals over the panel, summed across workloads. */
struct Totals
{
    uint64_t refs = 0;
    int64_t generateNs = 0;
    int64_t spillWriteNs = 0;
    uint64_t spillBytes = 0;
    int64_t spillValidateNs = 0;
    int64_t interleaveNs = 0;
    int64_t memSetupNs = 0;
    int64_t memAccessNs = 0;
    int64_t smsNs = 0;
    int64_t baselineNs = 0;
    std::map<std::string, int64_t> systemNs;
    std::map<std::string, uint64_t> covered;
    std::map<std::string, uint64_t> overpredicted;
    int64_t l1Ns = 0;
    int64_t l1BaselineNs = 0;
    uint64_t l1Covered = 0;      //!< at 2 kB regions
    uint64_t l1ReadMisses = 0;   //!< baseline
    std::map<std::string, int64_t> timingNs;
    std::map<std::string, double> logSpeedup;
};

void
panelWorkload(const std::string &name, const workloads::WorkloadParams &p,
              const std::string &dir, Totals &t)
{
    SpanLog &log = SpanLog::get();
    const size_t wspan = log.begin("workload", arg("workload", name));

    auto w = workloads::findWorkload(name)->make();
    std::vector<trace::Trace> streams;
    t.generateNs += timed("workloads.generate",
                          [&] { streams = w->generateStreams(p); });
    for (const auto &s : streams)
        t.refs += s.size();

    // study::TraceCache's spill name, so panelDriver replays these
    // files; it fails the panel if the name ever stops matching
    const std::string path = dir + "/" + name + "_" +
        std::to_string(p.ncpu) + "_" + std::to_string(p.refsPerCpu) +
        "_" + std::to_string(p.seed) + ".stmt";
    const uint64_t hash = study::generatorConfigHash(name, p);
    bool written = false;
    t.spillWriteNs += timed("trace.spill_write", [&] {
        written = trace::writeTraceStreams(streams, path, hash);
    });
    if (!written)
        throw std::runtime_error("cannot write " + path);
    t.spillBytes += std::filesystem::file_size(path);
    streams.clear();

    std::shared_ptr<trace::MappedTrace> mapped;
    t.spillValidateNs += timed("trace.spill_validate", [&] {
        mapped = trace::MappedTrace::open(path, hash);
    });
    if (!mapped)
        throw std::runtime_error("spill failed validation: " + path);
    const trace::StreamSet set = trace::StreamSet::mapped(mapped);

    t.interleaveNs += timed("trace.interleave", [&] {
        trace::InterleavedView view = trace::canonicalView(set, p.seed);
        const trace::MemAccess *base;
        uint32_t stream;
        uint64_t x = 0;
        for (size_t n; (n = view.nextSpan(base, stream)) != 0;)
            x += base[n - 1].addr + n;
        gSink = gSink + x;
    });

    mem::MemSysConfig sysCfg;
    sysCfg.ncpu = p.ncpu;
    t.memSetupNs += timed("mem.setup",
                          [&] { mem::MemorySystem sys(sysCfg); });
    t.memAccessNs += timed("mem.access", [&] {
        mem::MemorySystem sys(sysCfg);
        trace::InterleavedView view = trace::canonicalView(set, p.seed);
        for (trace::MemAccess a; view.next(a);)
            sys.access(a);
    });

    t.smsNs += timed("core.sms_train_predict", [&] {
        uint64_t issued = 0;
        std::vector<std::unique_ptr<core::SmsUnit>> units;
        for (uint32_t c = 0; c < p.ncpu; ++c)
            units.push_back(std::make_unique<core::SmsUnit>(
                c, core::SmsConfig{},
                [&issued](uint32_t, uint64_t a, bool) { issued += a; }));
        trace::InterleavedView view = trace::canonicalView(set, p.seed);
        for (trace::MemAccess a; view.next(a);)
            units[a.cpu]->onAccess(a.pc, a.addr);
        gSink = gSink + issued;
    });

    study::SystemStudyConfig scfg;
    scfg.sys = sysCfg;
    t.baselineNs += timed("study.system", [&] {
        gSink = gSink + study::runSystem(set, scfg, p.seed).instructions;
    }, arg("engine", "none"));
    for (const auto &e : kEngines) {
        std::unique_ptr<driver::PrefetcherDeployment> dep;
        study::SystemStudyResult r;
        t.systemNs[e] += timed("study.system", [&] {
            r = study::runSystem(set, scfg, p.seed,
                                 driver::registryAttach(e, dep));
        }, arg("engine", e));
        t.covered[e] += r.l1Covered + r.l2Covered;
        t.overpredicted[e] += r.l1Overpred + r.l2Overpred;
    }

    study::L1StudyConfig lcfg;
    lcfg.ncpu = p.ncpu;
    lcfg.prefetch = false;
    study::L1StudyResult l1Base;
    t.l1BaselineNs += timed("study.l1", [&] {
        l1Base = study::runL1Study(set, lcfg, p.seed);
    }, arg("region", "none"));
    t.l1ReadMisses += l1Base.readMisses;
    lcfg.prefetch = true;
    for (uint32_t region : kL1Regions) {
        lcfg.sms = driver::smsConfigFromOptions(
            {{"region", std::to_string(region)}});
        study::L1StudyResult r;
        t.l1Ns += timed("study.l1", [&] {
            r = study::runL1Study(set, lcfg, p.seed);
        }, arg("region", std::to_string(region)));
        if (region == 2048)
            t.l1Covered += r.coveredReads;
    }

    sim::TimingConfig tcfg;
    tcfg.sys = sysCfg;
    std::map<std::string, double> uipc;
    for (const std::string e : {"none", "sms", "ghb", "stride",
                                "next-line"}) {
        std::unique_ptr<driver::PrefetcherDeployment> dep;
        sim::TimingResult r;
        t.timingNs[e] += timed("sim.timing", [&] {
            r = sim::runTiming(set, tcfg, p.seed,
                               driver::registryAttach(e, dep));
        }, arg("engine", e));
        uipc[e] = r.uipc();
    }
    for (const std::string e : {"sms", "ghb"})
        t.logSpeedup[e] += std::log(uipc[e] / uipc["none"]);

    log.end(wspan);
}

/** paper_system's spec over the panel workloads. */
std::vector<std::string>
panelSpec(const workloads::WorkloadParams &p)
{
    std::string names;
    for (const auto &w : kPanel)
        names += (names.empty() ? "" : ",") + w;
    return {"workloads=" + names,
            "prefetchers=sms,ghb,stride,next-line,none", "timing=1",
            "ncpu=" + std::to_string(p.ncpu),
            "refs=" + std::to_string(p.refsPerCpu),
            "seed=" + std::to_string(p.seed), "wall=0"};
}

/**
 * driver + dispatch layers over the panel spec's cells, replaying the
 * spills panelWorkload wrote into @p dir.
 */
void
panelDriver(const workloads::WorkloadParams &p, const std::string &dir,
            Fields &out)
{
    std::vector<std::string> tokens = panelSpec(p);
    tokens.push_back("trace-dir=" + dir);
    const driver::ExperimentSpec spec = driver::parseSpec(tokens);
    const std::vector<driver::RunCell> cells = driver::expandSpec(spec);

    // every trace lookup below must replay a spill: a generation would
    // land inside the timed driver.cell spans
    obs::Counters &c = obs::Counters::get();
    const uint64_t misses0 = c.traceCacheMisses.load();
    const uint64_t replays0 = c.traceSpillReplays.load();

    driver::CellExecutor exec(driver::executorConfig(spec));
    std::vector<driver::CellResult> results;
    std::vector<double> cellMs;
    uint64_t failed = 0;
    for (const auto &cell : cells) {
        driver::CellResult r;
        cellMs.push_back(static_cast<double>(timed("driver.cell", [&] {
            r = exec.execute(cell);
        }, arg("workload", cell.workload) + "," +
               arg("engine", cell.engine.kind))) / 1e6);
        failed += r.error.empty() ? 0 : 1;
        results.push_back(std::move(r));
    }
    const uint64_t misses = c.traceCacheMisses.load() - misses0;
    if (misses == 0 || c.traceSpillReplays.load() - replays0 != misses)
        throw std::runtime_error(
            "panel driver cells generated traces instead of replaying "
            "the spills in " + dir);
    out.add("driver_cells", static_cast<uint64_t>(cells.size()));
    out.add("driver_failed", failed);
    out.add("driver_cell_ms_p50", percentile(cellMs, 0.5));
    out.add("driver_cell_ms_p90", percentile(cellMs, 0.9));

    // wire: each call repeated so one sample spans many clock ticks
    constexpr int kReps = 50;
    std::vector<double> encodeUs, decodeUs, resultBytes;
    for (size_t i = 0; i < cells.size(); ++i) {
        std::string job;
        encodeUs.push_back(static_cast<double>(timed(
            "dispatch.encode_cell", [&] {
                for (int k = 0; k < kReps; ++k)
                    job = dispatch::encodeCellJob(cells[i]);
            })) / 1e3 / kReps);
        const std::string frame = dispatch::encodeResult(results[i]);
        resultBytes.push_back(static_cast<double>(frame.size()));
        decodeUs.push_back(static_cast<double>(timed(
            "dispatch.decode_result", [&] {
                for (int k = 0; k < kReps; ++k) {
                    const auto r = dispatch::decodeResult(
                        dispatch::parseJson(frame));
                    gSink = gSink + r.cell.id;
                }
            })) / 1e3 / kReps);
        gSink = gSink + job.size();
    }
    out.add("dispatch_encode_cell_us", percentile(encodeUs, 0.5));
    out.add("dispatch_decode_result_us", percentile(decodeUs, 0.5));
    out.add("dispatch_result_bytes", percentile(resultBytes, 0.5));

    std::vector<double> appendUs;
    {
        dispatch::RunJournal journal;
        journal.open(dir + "/panel.journal",
                     dispatch::specFingerprint(cells), cells.size(),
                     false);
        for (const auto &r : results)
            appendUs.push_back(static_cast<double>(timed(
                "dispatch.journal_append",
                [&] { journal.append(r); })) / 1e3);
        journal.close();
    }
    out.add("dispatch_journal_append_us", percentile(appendUs, 0.5));
}

/**
 * serve layers, with serve_warm's traffic at panel scale: the panel
 * spec cold through an in-process ExperimentService, then resubmitted
 * warm by two client threads (queue wait split from execution at the
 * onAdmitted callback), then the warm spec through a socket daemon
 * versus in-process.
 */
void
panelServe(const workloads::WorkloadParams &p, const std::string &dir,
           Fields &out)
{
    using Status = serve::ExperimentService::Outcome::Status;
    serve::ExperimentService::Config cfg;
    cfg.fleet = 4;
    cfg.traceDir = dir + "/serve-traces";
    cfg.journalDir = dir + "/serve-journals";
    std::vector<std::string> tokens = panelSpec(p);
    tokens.push_back("json=-");  // the service builds only requested sinks

    serve::ExperimentService service(cfg);
    serve::ExperimentService::Outcome cold;
    timed("serve.cold", [&] { cold = service.submit(tokens); });
    uint64_t failed = cold.status == Status::Done && !cold.failed ? 0 : 1;

    obs::Counters &c = obs::Counters::get();
    const uint64_t warm0 = c.serveCacheWarmHits.load();
    const uint64_t stolen0 = c.cellsStolen.load();
    const uint64_t cells0 = c.cellsExecuted.load();

    std::mutex mu;  // guards the sample vectors and failed
    std::vector<double> waitMs, execMs;
    std::vector<std::thread> clients;
    for (int k = 0; k < 2; ++k)
        clients.emplace_back([&, k] {
            for (int i = 0; i < kWarmPerClient; ++i) {
                const int64_t t0 = nowNs();
                int64_t admitted = t0;
                serve::ExperimentService::Outcome r;
                timed("serve.request", [&] {
                    try {
                        r = service.submit(tokens, [&](uint64_t) {
                            admitted = nowNs();
                        });
                    } catch (const std::exception &e) {
                        r.reason = e.what();  // status stays Error
                    }
                }, "\"client\":" + std::to_string(k));
                const int64_t t1 = nowNs();
                std::lock_guard<std::mutex> lock(mu);
                waitMs.push_back(static_cast<double>(admitted - t0) / 1e6);
                execMs.push_back(static_cast<double>(t1 - admitted) / 1e6);
                if (r.status != Status::Done || r.failed ||
                    r.json != cold.json)
                    ++failed;
            }
        });
    for (auto &t : clients)
        t.join();
    const uint64_t cells = c.cellsExecuted.load() - cells0;
    out.add("serve_requests", static_cast<uint64_t>(1 + waitMs.size()));
    out.add("serve_failed", failed);
    out.add("serve_admit_wait_ms_p50", percentile(waitMs, 0.5));
    out.add("serve_admit_wait_ms_p90", percentile(waitMs, 0.9));
    out.add("serve_exec_ms_p50", percentile(execMs, 0.5));
    out.add("serve_exec_ms_p90", percentile(execMs, 0.9));
    out.add("serve_warm_hits", c.serveCacheWarmHits.load() - warm0);
    out.add("serve_cells_stolen", c.cellsStolen.load() - stolen0);
    out.add("serve_cells", cells);

    // the spec is warm in `service`; warm the daemon with it too, then
    // time the same request both ways. The probe is one of the spec's
    // cells whose passes are all memoized, and each way keeps its
    // fastest time, so the difference is the socket round trip rather
    // than noise.
    const std::vector<std::string> probe = {
        "workloads=" + kPanel[0], "prefetchers=none", "timing=1",
        "ncpu=" + std::to_string(p.ncpu),
        "refs=" + std::to_string(p.refsPerCpu),
        "seed=" + std::to_string(p.seed), "wall=0", "json=-"};
    serve::Daemon::Config dcfg;
    dcfg.listen = "unix:" + dir + "/panel.sock";
    dcfg.service = cfg;
    // journals like `service`'s, in a directory of its own
    dcfg.service.journalDir = dir + "/daemon-journals";
    dcfg.quiet = true;
    serve::Daemon daemon(dcfg);
    constexpr int kReps = 20;
    std::vector<double> socketMs, inprocMs;
    serve::submitToServer(dcfg.listen, probe);
    for (int k = 0; k < kReps; ++k) {
        socketMs.push_back(static_cast<double>(timed(
            "serve.submit_socket",
            [&] { serve::submitToServer(dcfg.listen, probe); })) / 1e6);
        inprocMs.push_back(static_cast<double>(timed(
            "serve.submit_inprocess",
            [&] { service.submit(probe); })) / 1e6);
    }
    out.add("serve_socket_ms", percentile(socketMs, 0));
    out.add("serve_inprocess_ms", percentile(inprocMs, 0));
    daemon.stop();
}

} // anonymous namespace

int
cmdLayers(const driver::Options &o)
{
    const workloads::WorkloadParams p = paramsFrom(o);
    const std::string dir = driver::optStr(o, "dir", "");
    if (dir.empty())
        throw std::invalid_argument("layers needs dir=");
    std::filesystem::create_directories(dir);

    Totals t;
    for (const auto &w : kPanel)
        panelWorkload(w, p, dir, t);

    Fields out;
    out.add("refs", t.refs);
    out.add("workloads", static_cast<uint64_t>(kPanel.size()));
    out.add("generate_ns", static_cast<uint64_t>(t.generateNs));
    out.add("spill_write_ns", static_cast<uint64_t>(t.spillWriteNs));
    out.add("spill_bytes", t.spillBytes);
    out.add("spill_validate_ns",
            static_cast<uint64_t>(t.spillValidateNs));
    out.add("interleave_ns", static_cast<uint64_t>(t.interleaveNs));
    out.add("mem_setup_ns", static_cast<uint64_t>(t.memSetupNs));
    out.add("mem_access_ns", static_cast<uint64_t>(t.memAccessNs));
    out.add("sms_ns", static_cast<uint64_t>(t.smsNs));
    out.add("system_ns.none", static_cast<uint64_t>(t.baselineNs));
    for (const auto &e : kEngines) {
        out.add("system_ns." + e, static_cast<uint64_t>(t.systemNs[e]));
        out.add("covered." + e, t.covered[e]);
        out.add("overpredicted." + e, t.overpredicted[e]);
    }
    out.add("l1_ns", static_cast<uint64_t>(t.l1Ns));
    out.add("l1_passes", static_cast<uint64_t>(kL1Regions.size()));
    out.add("l1_baseline_ns", static_cast<uint64_t>(t.l1BaselineNs));
    out.add("l1_covered", t.l1Covered);
    out.add("l1_read_misses", t.l1ReadMisses);
    for (const auto &[e, ns] : t.timingNs)
        out.add("timing_ns." + e, static_cast<uint64_t>(ns));
    for (const auto &[e, l] : t.logSpeedup)
        out.add("speedup_geomean." + e,
                std::exp(l / static_cast<double>(kPanel.size())));

    panelDriver(p, dir, out);
    panelServe(p, dir, out);

    const std::string tracePath = driver::optStr(o, "trace", "");
    if (!tracePath.empty())
        writeFile(tracePath, SpanLog::get().chromeJson());
    std::cout << out.json() << "\n";
    return 0;
}

} // namespace stems::bench
