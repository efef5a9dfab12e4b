#include "driver/executor.hh"

#include <algorithm>
#include <chrono>
#include <exception>
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
 * Everything the timing pass depends on: a cell's sys config can
 * differ per cell (geometry sweeps) and generation params could
 * differ across executors sharing code paths (per-seed harnesses),
 * so both are part of the key.
 */
std::string
geometryKey(const RunCell &cell)
{
    const mem::MemSysConfig &s = cell.sys;
    return cell.workload + "/g" +
        std::to_string(s.l1.sizeBytes) + "." +
        std::to_string(s.l1.assoc) + "." +
        std::to_string(s.l1.blockSize) + "." +
        std::to_string(s.l2.sizeBytes) + "." +
        std::to_string(s.l2.assoc) + "." +
        std::to_string(s.l2.blockSize) + "/n" +
        std::to_string(cell.params.ncpu) + "/r" +
        std::to_string(cell.params.refsPerCpu) + "/s" +
        std::to_string(cell.params.seed);
}

/**
 * Baseline memo key: density tracking rides the baseline pass for
 * "none" cells, so an *effective* tracked region size (below-block
 * values disable tracking and share the untracked slot) keys its own
 * slot on top of the geometry.
 */
std::string
baselineKey(const RunCell &cell)
{
    std::string key = geometryKey(cell);
    if (const uint32_t region = densityRegionFor(cell))
        key += "/d" + std::to_string(region);
    return key;
}

/**
 * Timing memo key: the timing pass depends on everything the miss
 * baseline depends on *plus* the full engine configuration, so a cell
 * whose engine options change (e.g. a pht-entries sweep) invalidates
 * into its own slot instead of reusing a stale result. The baseline
 * pass is the "none" engine's entry — "none" takes no options, so any
 * option noise on a none engine (the top-level block= key fans out to
 * every engine) is ignored for keying. Density never reaches the
 * timing model, so the key deliberately omits it — density-swept
 * cells share one timing pass per engine.
 */
std::string
timingKey(const RunCell &cell, const EngineConfig &engine)
{
    std::string key = geometryKey(cell) + "|" + engine.kind;
    if (engine.kind != "none")
        for (const auto &[k, v] : engine.options)
            key += "," + k + "=" + v;
    return key;
}

/**
 * Oracle region trackers only make sense at or above the cell's block
 * grain (the paper computes oracle opportunity on the baseline-grain
 * hierarchy); cells swept to a coarser block skip tracking entirely.
 */
std::vector<uint32_t>
oracleSizesFor(const std::vector<uint32_t> &sizes, const RunCell &cell)
{
    const uint32_t block =
        std::max(cell.sys.l1.blockSize, cell.sys.l2.blockSize);
    for (uint32_t s : sizes)
        if (s < block)
            return {};
    return sizes;
}

/** L1-mode study configuration a cell's engine options select. */
study::L1StudyConfig
l1ConfigFor(const RunCell &cell)
{
    study::L1StudyConfig lcfg;
    if (cell.engine.kind == "sms")
        lcfg = l1StudyConfigFromOptions(cell.engine.options);
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

CellExecutor::CellExecutor(Config config) : cfg(std::move(config))
{
    if (!cfg.traceDir.empty())
        traces.setSpillDir(cfg.traceDir);
}

const CellExecutor::BaselineSlot &
CellExecutor::baseline(const RunCell &cell)
{
    BaselineSlot *slot;
    {
        std::lock_guard<std::mutex> lock(memoMu);
        slot = &baselines[baselineKey(cell)];
    }
    bool ran = false;
    std::call_once(slot->once, [&] {
        ran = true;
        obs::Span span("baseline_pass", {{"workload", cell.workload}});
        if (cell.mode == StudyMode::System) {
            study::SystemStudyConfig scfg;
            scfg.sys = cell.sys;
            scfg.oracleRegionSizes =
                oracleSizesFor(cfg.oracleRegionSizes, cell);
            if (const uint32_t region = densityRegionFor(cell)) {
                scfg.trackDensity = true;
                scfg.densityRegionSize = region;
            }
            auto r = study::runSystem(viewSet(cell), scfg,
                                      cell.params.seed);
            slot->instructions = r.instructions;
            slot->l1ReadMisses = r.l1ReadMisses;
            slot->l2ReadMisses = r.l2ReadMisses;
            slot->falseSharing = r.falseSharing;
            slot->oracleL1Gens = r.oracleL1Gens;
            slot->oracleL2Gens = r.oracleL2Gens;
            slot->l1Density = r.l1Density;
            slot->l2Density = r.l2Density;
        } else {
            study::L1StudyConfig lcfg;
            lcfg.ncpu = cell.params.ncpu;
            lcfg.l1 = cell.sys.l1;
            lcfg.prefetch = false;
            auto r = study::runL1Study(viewSet(cell), lcfg,
                                       cell.params.seed);
            slot->instructions = r.instructions;
            slot->l1ReadMisses = r.readMisses;
        }
    });
    // `ran` is true exactly once per memo slot regardless of thread
    // count, so hit/miss totals are deterministic 1-vs-N threads
    obs::count(ran ? &obs::Counters::baselineMemoMisses
                   : &obs::Counters::baselineMemoHits);
    return *slot;
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

const sim::TimingResult &
CellExecutor::timingRun(const RunCell &cell, const EngineConfig &engine)
{
    TimingSlot *slot;
    {
        std::lock_guard<std::mutex> lock(memoMu);
        slot = &timingRuns[timingKey(cell, engine)];
    }
    bool ran = false;
    std::call_once(slot->once, [&] {
        ran = true;
        obs::Span span("timing_pass", {{"workload", cell.workload},
                                       {"engine", engine.kind}});
        sim::TimingConfig tc;
        tc.sys = cell.sys;
        // every engine — "none" included — attaches through the
        // registry: the timing model has no engine-specific wiring
        std::unique_ptr<PrefetcherDeployment> dep;
        slot->result =
            sim::runTiming(viewSet(cell), tc, cell.params.seed,
                           registryAttach(engine.kind, dep,
                                          engine.options));
    });
    obs::count(ran ? &obs::Counters::timingMemoMisses
                   : &obs::Counters::timingMemoHits);
    return slot->result;
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

    if (!cell.timingOnly) {
        const BaselineSlot *base = nullptr;
        phase("baseline", [&] { base = &baseline(cell); });

        if (cell.engine.kind == "none") {
            // a "none" cell IS the baseline run — reuse the memoized pass
            m.setU64(M.instructions, base->instructions);
            m.setU64(M.l1ReadMisses, base->l1ReadMisses);
            m.setU64(M.l2ReadMisses, base->l2ReadMisses);
            m.setU64(M.falseSharing, base->falseSharing);
            m.setVec(M.oracleL1Gens, base->oracleL1Gens);
            m.setVec(M.oracleL2Gens, base->oracleL2Gens);
            if (densityRegionFor(cell)) {
                m.setVec(M.l1Density, histVec(base->l1Density));
                m.setVec(M.l2Density, histVec(base->l2Density));
            }
        } else if (cell.mode == StudyMode::System) {
            phase("system_study", [&] {
                study::SystemStudyConfig scfg;
                scfg.sys = cell.sys;
                scfg.oracleRegionSizes =
                    oracleSizesFor(cfg.oracleRegionSizes, cell);
                if (const uint32_t region = densityRegionFor(cell)) {
                    scfg.trackDensity = true;
                    scfg.densityRegionSize = region;
                }
                std::unique_ptr<PrefetcherDeployment> dep;
                auto r = study::runSystem(
                    viewSet(cell), scfg, cell.params.seed,
                    registryAttach(cell.engine.kind, dep,
                                   cell.engine.options));
                m.setU64(M.instructions, r.instructions);
                m.setU64(M.l1ReadMisses, r.l1ReadMisses);
                m.setU64(M.l2ReadMisses, r.l2ReadMisses);
                m.setU64(M.l1Covered, r.l1Covered);
                m.setU64(M.l2Covered, r.l2Covered);
                m.setU64(M.l1Overpred, r.l1Overpred);
                m.setU64(M.l2Overpred, r.l2Overpred);
                m.setU64(M.falseSharing, r.falseSharing);
                m.setVec(M.oracleL1Gens, r.oracleL1Gens);
                m.setVec(M.oracleL2Gens, r.oracleL2Gens);
                if (scfg.trackDensity) {
                    m.setVec(M.l1Density, histVec(r.l1Density));
                    m.setVec(M.l2Density, histVec(r.l2Density));
                }
                if (dep)
                    m.pfCounters = dep->counters();
            });
        } else {
            phase("l1_study", [&] {
                auto r = study::runL1Study(viewSet(cell),
                                           l1ConfigFor(cell),
                                           cell.params.seed);
                m.setU64(M.instructions, r.instructions);
                m.setU64(M.l1ReadMisses, r.readMisses);
                m.setU64(M.l1Covered, r.coveredReads);
                m.setU64(M.l1Overpred, r.overpredictions);
                m.setU64(M.peakAccumOccupancy, r.peakAccumOccupancy);
                m.setU64(M.peakFilterOccupancy, r.peakFilterOccupancy);
            });
        }

        m.setU64(M.baselineL1ReadMisses, base->l1ReadMisses);
        m.setU64(M.baselineL2ReadMisses, base->l2ReadMisses);
    }

    if (cell.timing) {
        phase("timing", [&] {
            // the engine-agnostic timing pipeline: the baseline is just
            // the "none" engine's memoized pass, and every registry
            // prefetcher runs through the same attach seam
            EngineConfig none;
            const sim::TimingResult &baseTiming = timingRun(cell, none);
            m.setTimingResult(M.baselineTiming, baseTiming);
            m.setValue(M.baselineUipc, baseTiming.uipc());
            const sim::TimingResult &engineTiming =
                cell.engine.kind == "none"
                    ? baseTiming
                    : timingRun(cell, cell.engine);
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
    CellExecutor::Config cfg;
    cfg.traceDir = spec.traceDir;
    cfg.oracleRegionSizes = spec.oracleRegionSizes;
    return cfg;
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
