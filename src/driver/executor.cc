#include "driver/executor.hh"

#include <algorithm>
#include <chrono>
#include <exception>
#include <new>
#include <optional>
#include <stdexcept>

#include "driver/registry.hh"
#include "obs/counters.hh"
#include "obs/histogram.hh"
#include "obs/obs.hh"
#include "sim/timing.hh"
#include "study/l1study.hh"
#include "study/memstudy.hh"

namespace stems::driver {

namespace {

double
msSince(const std::chrono::steady_clock::time_point &t0)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Density tracking region for @p cell, 0 when below the block grain. */
uint32_t
densityRegionFor(const RunCell &cell)
{
    const uint32_t block =
        std::max(cell.sys.l1.blockSize, cell.sys.l2.blockSize);
    return cell.densityRegion >= block ? cell.densityRegion : 0;
}

/**
 * Oracle region trackers only make sense at or above the cell's block
 * grain (the paper computes oracle opportunity on the baseline-grain
 * hierarchy); cells swept to a coarser block skip tracking entirely.
 */
std::vector<uint32_t>
oracleSizesFor(const RunCell &cell)
{
    const uint32_t block =
        std::max(cell.sys.l1.blockSize, cell.sys.l2.blockSize);
    for (uint32_t s : cell.oracleRegionSizes)
        if (s < block)
            return {};
    return cell.oracleRegionSizes;
}

/**
 * The system study a cell's hierarchy passes run. A timing=only cell
 * never reads the study, so its passes skip the oracle and density
 * trackers, which never change the hierarchy's behaviour.
 */
study::SystemStudyConfig
systemConfigFor(const RunCell &cell)
{
    study::SystemStudyConfig scfg;
    scfg.sys = cell.sys;
    if (!cell.timingOnly) {
        scfg.oracleRegionSizes = oracleSizesFor(cell);
        if (const uint32_t region = densityRegionFor(cell)) {
            scfg.trackDensity = true;
            scfg.densityRegionSize = region;
        }
    }
    return scfg;
}

/**
 * Baseline memo key: everything a baseline pass reads. The shadow-L1
 * baseline reads the trace and the hierarchy's geometry alone; the
 * no-prefetch pass also reads the trackers it runs and whether the
 * core model rides it.
 */
std::string
passKey(const RunCell &cell, bool l1Shadow,
        const study::SystemStudyConfig &scfg)
{
    const mem::MemSysConfig &s = cell.sys;
    std::string key = cell.workload + "/g" +
        std::to_string(s.l1.sizeBytes) + "." +
        std::to_string(s.l1.assoc) + "." +
        std::to_string(s.l1.blockSize) + "." +
        std::to_string(s.l2.sizeBytes) + "." +
        std::to_string(s.l2.assoc) + "." +
        std::to_string(s.l2.blockSize) + "/n" +
        std::to_string(cell.params.ncpu) + "/r" +
        std::to_string(cell.params.refsPerCpu) + "/s" +
        std::to_string(cell.params.seed);
    if (l1Shadow)
        return key + "|l1";
    key += "|o";
    for (uint32_t size : scfg.oracleRegionSizes)
        key += std::to_string(size) + ",";
    if (scfg.trackDensity)
        key += "|d" + std::to_string(scfg.densityRegionSize);
    if (cell.timing)
        key += "|t";
    return key;
}

/** The L1-mode study @p engine's options select on @p cell. */
study::L1StudyConfig
l1ConfigFor(const RunCell &cell, const EngineConfig &engine)
{
    study::L1StudyConfig lcfg;
    if (engine.kind == "sms")
        lcfg = l1StudyConfigFromOptions(engine.options);
    else
        lcfg.prefetch = false;
    lcfg.ncpu = cell.params.ncpu;
    lcfg.l1 = cell.sys.l1;
    if (lcfg.prefetch &&
        lcfg.trainer == study::TrainerKind::DecoupledSectored) {
        // DS is the cache: it inherits the cell's L1 shape and
        // sectors it at the configured region size
        lcfg.ds.dataBytes = cell.sys.l1.sizeBytes;
        lcfg.ds.dataAssoc = cell.sys.l1.assoc;
        lcfg.ds.blockSize = cell.sys.l1.blockSize;
        lcfg.ds.sectorSize = lcfg.sms.geometry.regionSize();
    }
    return lcfg;
}

/** Copy a density histogram array into a metric-set vector. */
std::vector<uint64_t>
histVec(const std::array<uint64_t, study::kDensityBuckets> &h)
{
    return {h.begin(), h.end()};
}

} // anonymous namespace

CellExecutor::CellExecutor(Config config)
{
    if (!config.traceDir.empty())
        traces.setSpillDir(config.traceDir);
}

CellExecutor::SystemLease::SystemLease(CellExecutor &owner,
                                       const mem::MemSysConfig &geometry)
    : owner(owner)
{
    std::unique_ptr<mem::MemorySystem> stale;
    {
        std::lock_guard<std::mutex> lock(owner.systemsMu);
        auto &free = owner.freeSystems;
        const auto it = std::find_if(
            free.begin(), free.end(),
            [&](const auto &s) { return s->config() == geometry; });
        if (it != free.end()) {
            sys = std::move(*it);
            free.erase(it);
            return;
        }
        // no free system fits: the oldest free one (if any) makes way,
        // so the systems alive never outnumber the passes holding one
        if (!free.empty()) {
            stale = std::move(free.front());
            free.erase(free.begin());
        }
    }
    stale.reset();  // freed before the build, not after
    sys = std::make_unique<mem::MemorySystem>(geometry);
    std::lock_guard<std::mutex> lock(owner.systemsMu);
    ++owner.systemsBuilt;
}

CellExecutor::SystemLease::~SystemLease()
{
    sys->reset();  // drops the finished pass's listeners, too
    std::lock_guard<std::mutex> lock(owner.systemsMu);
    try {
        owner.freeSystems.push_back(std::move(sys));
    } catch (const std::bad_alloc &) {
        // the list cannot grow: the system is freed, not kept
    }
}

uint64_t
CellExecutor::memorySystemsBuilt() const
{
    std::lock_guard<std::mutex> lock(systemsMu);
    return systemsBuilt;
}

CellExecutor::PassResult
CellExecutor::runPass(const RunCell &cell, const EngineConfig &engine)
{
    obs::Span span(engine.kind == "none" ? "baseline_pass"
                                         : "engine_pass",
                   {{"workload", cell.workload},
                    {"engine", engine.kind}});
    obs::count(&obs::Counters::systemPasses);
    const study::SystemStudyConfig scfg = systemConfigFor(cell);
    const trace::StreamSet &set = viewSet(cell);
    // declared before the deployment, so the system goes back to the
    // free list only once nothing of this pass refers to it
    const SystemLease sys(*this, cell.sys);
    // every engine — "none" included — attaches through the registry:
    // no pass has engine-specific wiring
    std::unique_ptr<PrefetcherDeployment> dep;
    const prefetch::PfAttach attach =
        registryAttach(engine.kind, dep, engine.options);
    PassResult r;
    if (cell.timing) {
        sim::CoreTimer timer(sim::CoreConfig{}, cell.sys.ncpu);
        r.system = study::runSystem(set, scfg, cell.params.seed, *sys,
                                    attach, timer);
        r.timing = timer.finish();
    } else {
        study::NoObserver none;
        r.system = study::runSystem(set, scfg, cell.params.seed, *sys,
                                    attach, none);
    }
    r.pfCounters = dep->counters();
    return r;
}

const CellExecutor::PassResult &
CellExecutor::baselinePass(const RunCell &cell, Lookup lookup)
{
    const bool l1Shadow =
        lookup == Lookup::Baseline && cell.mode == StudyMode::L1;
    PassSlot *slot;
    {
        std::lock_guard<std::mutex> lock(memoMu);
        slot = &passes[passKey(cell, l1Shadow, systemConfigFor(cell))];
    }
    bool ran = false;
    std::call_once(slot->once, [&] {
        ran = true;
        const EngineConfig none;
        if (!l1Shadow) {
            slot->result = runPass(cell, none);
            return;
        }
        obs::Span span("baseline_pass", {{"workload", cell.workload}});
        auto l1 = study::runL1Study(viewSet(cell), l1ConfigFor(cell, none),
                                    cell.params.seed);
        slot->result.system.instructions = l1.instructions;
        slot->result.system.l1ReadMisses = l1.readMisses;
    });
    // `ran` is true exactly once per memo slot regardless of thread
    // count, and within a spec each slot's first lookup always comes
    // from the same phase, so hit/miss totals are deterministic 1-vs-N
    // threads
    if (lookup == Lookup::Baseline)
        obs::count(ran ? &obs::Counters::baselineMemoMisses
                       : &obs::Counters::baselineMemoHits);
    else
        obs::count(ran ? &obs::Counters::timingMemoMisses
                       : &obs::Counters::timingMemoHits);
    return slot->result;
}

const trace::StreamSet &
CellExecutor::viewSet(const RunCell &cell)
{
    return traces.viewSet(cell.workload, cell.params);
}

void
CellExecutor::prefetch(const RunCell &cell)
{
    obs::Span span("trace_stream", {{"workload", cell.workload}});
    try {
        traces.prepare(cell.workload, cell.params);
        obs::count(&obs::Counters::tracePrefetchAhead);
    } catch (const std::exception &) {
        // leave the failure to the executing thread, which reports it
    }
}

bool
CellExecutor::prepared(const RunCell &cell)
{
    return traces.ready(cell.workload, cell.params);
}

void
CellExecutor::runCell(const RunCell &cell, CellResult &out)
{
    const auto t0 = std::chrono::steady_clock::now();
    out.cell = cell;
    MetricSet &m = out.metrics;
    const metric::Builtin &M = metric::ids();

    // each phase gets a trace span and a named wall-time entry in the
    // result's telemetry sidecar (dispatch workers ship these back for
    // the coordinator's straggler table)
    auto phase = [&](const char *name, auto &&body) {
        obs::Span span(name, {{"workload", cell.workload},
                              {"engine", cell.engine.kind}});
        const auto p0 = std::chrono::steady_clock::now();
        body();
        out.telemetry.phases.emplace_back(name, msSince(p0));
    };

    // warm the trace cache up front so generation/replay cost is
    // attributed to the trace phase, not whichever study ran first
    phase("trace", [&] { viewSet(cell); });

    // what the baseline and every engine's system study report
    auto setStudy = [&](const study::SystemStudyResult &r) {
        m.setU64(M.instructions, r.instructions);
        m.setU64(M.l1ReadMisses, r.l1ReadMisses);
        m.setU64(M.l2ReadMisses, r.l2ReadMisses);
        m.setU64(M.falseSharing, r.falseSharing);
        m.setVec(M.oracleL1Gens, r.oracleL1Gens);
        m.setVec(M.oracleL2Gens, r.oracleL2Gens);
        if (densityRegionFor(cell)) {
            m.setVec(M.l1Density, histVec(r.l1Density));
            m.setVec(M.l2Density, histVec(r.l2Density));
        }
    };

    // an engine's pass serves only the cell that names it: its system
    // study and timing model read one walk, run by whichever phase
    // needs it first
    std::optional<PassResult> own;
    if (!cell.timingOnly) {
        const PassResult *base = nullptr;
        phase("baseline",
              [&] { base = &baselinePass(cell, Lookup::Baseline); });

        if (cell.engine.kind == "none") {
            // a "none" cell IS the baseline run
            setStudy(base->system);
        } else if (cell.mode == StudyMode::System) {
            phase("system_study", [&] {
                own = runPass(cell, cell.engine);
                const PassResult &r = *own;
                setStudy(r.system);
                m.setU64(M.l1Covered, r.system.l1Covered);
                m.setU64(M.l2Covered, r.system.l2Covered);
                m.setU64(M.l1Overpred, r.system.l1Overpred);
                m.setU64(M.l2Overpred, r.system.l2Overpred);
                m.pfCounters = r.pfCounters;
            });
        } else {
            phase("l1_study", [&] {
                auto r = study::runL1Study(viewSet(cell),
                                           l1ConfigFor(cell, cell.engine),
                                           cell.params.seed);
                m.setU64(M.instructions, r.instructions);
                m.setU64(M.l1ReadMisses, r.readMisses);
                m.setU64(M.l1Covered, r.coveredReads);
                m.setU64(M.l1Overpred, r.overpredictions);
                m.setU64(M.peakAccumOccupancy, r.peakAccumOccupancy);
                m.setU64(M.peakFilterOccupancy, r.peakFilterOccupancy);
            });
        }

        m.setU64(M.baselineL1ReadMisses, base->system.l1ReadMisses);
        m.setU64(M.baselineL2ReadMisses, base->system.l2ReadMisses);
    }

    if (cell.timing) {
        phase("timing", [&] {
            // the system study's passes carry the core model, so in
            // system mode both passes read here have already run
            const sim::TimingResult &baseTiming =
                baselinePass(cell, Lookup::Timing).timing;
            m.setTimingResult(M.baselineTiming, baseTiming);
            m.setValue(M.baselineUipc, baseTiming.uipc());
            if (cell.engine.kind != "none") {
                obs::count(own ? &obs::Counters::timingMemoHits
                               : &obs::Counters::timingMemoMisses);
                if (!own)
                    own = runPass(cell, cell.engine);
            }
            const sim::TimingResult &engineTiming =
                own ? own->timing : baseTiming;
            m.setTimingResult(M.timing, engineTiming);
            m.setValue(M.uipc, engineTiming.uipc());
            if (baseTiming.uipc() > 0 && engineTiming.uipc() > 0)
                m.setValue(M.speedup,
                           engineTiming.uipc() / baseTiming.uipc());
        });
    }

    m.setWallMs(msSince(t0));
}

CellExecutor::Config
executorConfig(const ExperimentSpec &spec)
{
    return {spec.traceDir};
}

CellResult
CellExecutor::execute(const RunCell &cell)
{
    CellResult out;
    obs::count(&obs::Counters::cellsExecuted);
    const auto t0 = std::chrono::steady_clock::now();
    try {
        runCell(cell, out);
    } catch (const std::exception &e) {
        out.cell = cell;
        out.error = e.what();
    }
    obs::recordHist(&obs::Histograms::cellWallUs,
                    static_cast<uint64_t>(msSince(t0) * 1000.0));
    return out;
}

} // namespace stems::driver
