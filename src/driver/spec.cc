#include "driver/spec.hh"

#include <cstdint>
#include <stdexcept>

#include "fault/fault.hh"
#include "study/suite.hh"

namespace stems::driver {

namespace {

std::vector<std::string>
resolveWorkloads(const std::vector<std::string> &names)
{
    std::vector<std::string> out;
    for (const auto &name : names) {
        if (name == "paper") {
            for (const auto &e : workloads::paperSuite())
                out.push_back(e.name);
        } else if (name == "all") {
            for (const auto &e : workloads::fullSuite())
                out.push_back(e.name);
        } else if (workloads::findWorkload(name)) {
            out.push_back(name);
        } else {
            std::string known;
            for (const auto &e : workloads::fullSuite())
                known += (known.empty() ? "" : ", ") + e.name;
            throw std::invalid_argument("unknown workload \"" + name +
                                        "\" (known: " + known +
                                        ", paper, all)");
        }
    }
    return out;
}

std::vector<EngineConfig>
resolveEngines(const std::vector<std::string> &items)
{
    const auto &reg = PrefetcherRegistry::builtin();
    std::vector<EngineConfig> out;
    for (const auto &item : items) {
        EngineConfig e;
        size_t colon = item.find(':');
        e.kind = item.substr(0, colon);
        if (colon != std::string::npos)
            e.label = item.substr(colon + 1);
        if (!reg.has(e.kind)) {
            std::string known;
            for (const auto &n : reg.names())
                known += (known.empty() ? "" : ", ") + n;
            throw std::invalid_argument("unknown prefetcher \"" + e.kind +
                                        "\" (known: " + known + ")");
        }
        for (const auto &prev : out) {
            if (prev.displayLabel() == e.displayLabel())
                throw std::invalid_argument(
                    "duplicate prefetcher label \"" + e.displayLabel() +
                    "\" (use kind:label to disambiguate)");
        }
        out.push_back(std::move(e));
    }
    return out;
}

/** A region size: a power of two, or 0 when @p zero_off. */
uint32_t
regionSize(const std::string &key, const std::string &value, bool zero_off)
{
    const auto size =
        static_cast<uint32_t>(parseUnsigned(key, value, 0, UINT32_MAX));
    if ((size & (size - 1)) != 0 || (size == 0 && !zero_off))
        throw std::invalid_argument(
            key + "=" + value + ": must be a power of two" +
            (zero_off ? " (0 = off)" : ""));
    return size;
}

/** Whether @p key is a per-cell axis rather than an engine option. */
bool
isCellAxis(const std::string &key)
{
    mem::MemSysConfig sys;
    uint32_t density = 0;
    return findKey(cellKeys(sys, density), key) != nullptr;
}

/**
 * Parse a cell filter ("3", "0-7", "1,4-6") into inclusive id ranges;
 * throws std::invalid_argument on malformed input.
 */
std::vector<std::pair<uint32_t, uint32_t>>
parseCellRanges(const std::string &filter)
{
    std::vector<std::pair<uint32_t, uint32_t>> ranges;
    for (const auto &item : splitList(filter)) {
        const size_t dash = item.find('-');
        try {
            auto id = [](const std::string &s) {
                return static_cast<uint32_t>(
                    parseUnsigned("cells", s, 0, UINT32_MAX));
            };
            const uint32_t lo = id(item.substr(0, dash));
            const uint32_t hi =
                dash == std::string::npos ? lo : id(item.substr(dash + 1));
            if (lo > hi)
                throw std::invalid_argument(item);
            ranges.emplace_back(lo, hi);
        } catch (const std::exception &) {
            throw std::invalid_argument(
                "cells=" + filter +
                ": expected comma list of ids and A-B ranges");
        }
    }
    if (ranges.empty())
        throw std::invalid_argument("cells=: empty filter");
    return ranges;
}

/**
 * Reject option keys no prefetcher in the spec understands — a typo'd
 * pf./opt./sweep. key would otherwise silently run with defaults —
 * then check @p value against every engine that has the option, so a
 * bad value fails here, not in every cell.
 */
void
checkOption(const std::vector<EngineConfig> &engines,
            const std::string &opt, const std::string &value,
            const std::string &where)
{
    std::string kinds, names;
    bool known = false;
    for (const auto &e : engines) {
        const KeyTable rows = PrefetcherRegistry::builtin().options(e.kind);
        if (const Key *row = findKey(rows, opt)) {
            row->apply(opt, value);
            known = true;
        }
        kinds += (kinds.empty() ? "" : ", ") + e.kind;
        for (const auto &r : rows)
            names += (names.empty() ? "" : ", ") + r.name;
    }
    if (!known)
        throw std::invalid_argument(
            where + ": no selected prefetcher (" + kinds +
            ") understands option \"" + opt + "\"" +
            (names.empty() ? "" : " (known: " + names + ")"));
}

/**
 * parseSpec's target. Engine-option keys (opt., pf., sweep. and the
 * engine side of block=) resolve against the final prefetcher list,
 * so their rows queue work that runs once every key is read.
 */
struct SpecParse
{
    SpecParse()
    {
        spec.params = study::defaultParams();
        spec.workloads = resolveWorkloads({"paper"});
        spec.engines = resolveEngines({"sms"});
    }

    ExperimentSpec spec;
    std::vector<std::function<void()>> engineKeys;
};

KeyTable
specRows(SpecParse &p)
{
    ExperimentSpec &s = p.spec;
    auto later = [&p](std::function<void(const std::string &,
                                          const std::string &)> f) {
        return [&p, f = std::move(f)](const std::string &k,
                                      const std::string &v) {
            p.engineKeys.push_back([f, k, v] { f(k, v); });
        };
    };

    KeyTable rows = {
        {"workloads", "paper", "suite selection: paper|all|NAME,...",
         [&s](const std::string &, const std::string &v) {
             s.workloads = resolveWorkloads(splitList(v));
         }},
        {"prefetchers", "sms", "KIND[:LABEL],... (labels tell duplicates "
                               "apart)",
         [&s](const std::string &, const std::string &v) {
             s.engines = resolveEngines(splitList(v));
         }},
        {"pf.LABEL.OPT", "V", "option for the prefetcher labelled LABEL",
         later([&s](const std::string &k, const std::string &v) {
             const size_t dot = k.find('.', 3);
             if (dot == std::string::npos)
                 throw std::invalid_argument(
                     "expected pf.<label>.<option>, got \"" + k + "\"");
             const std::string label = k.substr(3, dot - 3);
             const std::string opt = k.substr(dot + 1);
             bool found = false;
             for (auto &e : s.engines) {
                 if (e.displayLabel() == label) {
                     checkOption({e}, opt, v, k);
                     e.options[opt] = v;
                     found = true;
                 }
             }
             if (!found)
                 throw std::invalid_argument(
                     "pf option for unknown prefetcher label \"" + label +
                     "\"");
         })},
        {"opt.OPT", "V", "option for every prefetcher",
         later([&s](const std::string &k, const std::string &v) {
             const std::string opt = k.substr(4);
             checkOption(s.engines, opt, v, k);
             for (auto &e : s.engines)
                 e.options[opt] = v;
         })},
        {"sweep.OPT", "V1,V2,...",
         "matrix axis over a prefetcher option or cell axis",
         later([&s](const std::string &k, const std::string &v) {
             const std::string opt = k.substr(6);
             auto values = splitList(v);
             if (values.empty())
                 throw std::invalid_argument("empty sweep axis " + k);
             mem::MemSysConfig sys;
             uint32_t density = 0;
             const KeyTable cell = cellKeys(sys, density);
             for (const auto &value : values) {
                 if (const Key *axis = findKey(cell, opt))
                     axis->apply(k, value);
                 else
                     checkOption(s.engines, opt, value, k);
             }
             for (auto &axis : s.sweeps) {
                 if (axis.first == opt) {
                     axis.second = values;
                     return;
                 }
             }
             s.sweeps.emplace_back(opt, std::move(values));
         })},
    };
    for (auto &row : workloadKeys(s.params))
        rows.push_back(std::move(row));
    KeyTable more = {
        enumKey("mode", s.mode,
                {{"system", StudyMode::System}, {"l1", StudyMode::L1}},
                "full hierarchy or shadow L1"),
        {"timing", "0", "add the timing model; only = skip the system "
                        "study (0|1|only)",
         [&s](const std::string &k, const std::string &v) {
             s.timingOnly = v == "only";
             s.timing = s.timingOnly || parseBool(k, v);
         }},
        u32Key("threads", s.threads, "runner threads (0 = all cores)"),
        u32Key("dispatch", s.dispatch, "worker processes (0 = in-process)"),
        u32Key("dispatch-timeout-ms", s.dispatchTimeoutMs, "0 = none"),
        u32Key("dispatch-retries", s.dispatchRetries, "tries per cell", 1),
        u32Key("dispatch-heartbeat-ms", s.dispatchHeartbeatMs, "0 = off"),
        strKey("workers", s.dispatchWorkers, "socket worker endpoints"),
        strKey("spawn-cmd", s.dispatchSpawnCmd, "per-worker launch, {addr}"),
        strKey("journal", s.journalPath, "crash-safe journal of cells"),
        boolKey("resume", s.resume, "splice journaled cells, run the rest"),
        {"fault-plan", "", "seeded chaos, e.g. seed=7,crash=0.2",
         [&s](const std::string &, const std::string &v) {
             (void)fault::parsePlan(v);
             s.faultPlan = v;
         }},
        {"cells", "", "run a cell-id subset: A-B,C,... (ids kept)",
         [&s](const std::string &, const std::string &v) {
             if (!v.empty())
                 (void)parseCellRanges(v);
             s.cellFilter = v;
         }},
        strKey("trace-dir", s.traceDir, "record/replay traces here"),
        strKey("json", s.jsonPath, "JSON report path (- = stdout)"),
        strKey("csv", s.csvPath, "CSV report path (- = stdout)"),
        boolKey("table", s.table, "ASCII summary table"),
        boolKey("groups", s.groups, "engine-folded per-group rows"),
        boolKey("quiet", s.quiet, "no progress lines"),
        boolKey("wall", s.emitWall, "wall_ms in JSON (0 = byte-stable)"),
        strKey("trace-out", s.traceOut, "Chrome trace-event JSON"),
        strKey("telemetry-out", s.telemetryOut, "counters JSON file"),
        {"oracle-regions", "", "track oracle generations at these sizes",
         [&s](const std::string &k, const std::string &v) {
             s.oracleRegionSizes.clear();
             for (const auto &item : splitList(v))
                 s.oracleRegionSizes.push_back(regionSize(k, item, false));
         }},
    };
    for (auto &row : more)
        rows.push_back(std::move(row));
    for (auto &row : cellKeys(s.sys, s.densityRegion)) {
        if (row.name == "block") {
            // block also reaches every prefetcher; emplace keeps an
            // explicit pf./opt. block
            row.apply = [&s, &p, apply = std::move(row.apply)](
                            const std::string &k, const std::string &v) {
                apply(k, v);
                p.engineKeys.push_back([&s, v] {
                    for (auto &e : s.engines)
                        e.options.emplace("block", v);
                });
            };
        }
        rows.push_back(std::move(row));
    }
    return rows;
}

} // anonymous namespace

KeyTable
workloadKeys(workloads::WorkloadParams &p)
{
    return {
        u32Key("ncpu", p.ncpu, "CPUs, one reference stream each", 1),
        u64Key("refs", p.refsPerCpu, "references per CPU", 1),
        u64Key("seed", p.seed, "workload generation seed"),
    };
}

KeyTable
cellKeys(mem::MemSysConfig &sys, uint32_t &density)
{
    // a positive capacity in kB
    auto size = [](std::string name, uint64_t &bytes,
                   std::string help) -> Key {
        return {std::move(name), std::to_string(bytes >> 10),
                std::move(help),
                [&bytes](const std::string &k, const std::string &v) {
                    bytes = parseUnsigned(k, v, 1, UINT64_MAX >> 10) << 10;
                }};
    };
    return {
        {"block", std::to_string(sys.l1.blockSize),
         "cache and coherence block bytes",
         [&sys](const std::string &k, const std::string &v) {
             sys.l1.blockSize = sys.l2.blockSize =
                 static_cast<uint32_t>(parseUnsigned(k, v, 1, UINT32_MAX));
         }},
        size("l1-kb", sys.l1.sizeBytes, "L1 capacity"),
        u32Key("l1-assoc", sys.l1.assoc, "L1 ways", 1),
        size("l2-kb", sys.l2.sizeBytes, "L2 capacity"),
        u32Key("l2-assoc", sys.l2.assoc, "L2 ways", 1),
        {"density", std::to_string(density),
         "Fig 5 density histograms at this region size (0 = off)",
         [&density](const std::string &k, const std::string &v) {
             density = regionSize(k, v, true);
         }},
    };
}

KeyTable
specKeys()
{
    return scratchKeys(specRows);
}

ExperimentSpec
parseSpec(const std::vector<std::string> &tokens)
{
    SpecParse p;
    parseKeys(specRows(p), tokens, true);
    for (const auto &apply : p.engineKeys)
        apply();
    ExperimentSpec &spec = p.spec;
    spec.sys.ncpu = spec.params.ncpu;

    if (spec.mode == StudyMode::L1) {
        for (const auto &e : spec.engines) {
            if (e.kind != "sms" && e.kind != "none")
                throw std::invalid_argument(
                    "mode=l1 supports only sms and none prefetchers "
                    "(got " + e.kind + ")");
        }
        if (spec.timing)
            throw std::invalid_argument(
                "timing requires mode=system");
        bool sweepsDensity = false;
        for (const auto &axis : spec.sweeps)
            sweepsDensity = sweepsDensity || axis.first == "density";
        if (spec.densityRegion || sweepsDensity)
            throw std::invalid_argument(
                "density= histograms ride the system study "
                "(requires mode=system)");
    } else {
        // the trainer axis selects an L1-mode training structure
        auto rejectTrainer = [](bool hit) {
            if (hit)
                throw std::invalid_argument(
                    "trainer= selects an L1-mode training structure "
                    "(requires mode=l1)");
        };
        for (const auto &e : spec.engines)
            rejectTrainer(e.options.count("trainer") != 0);
        for (const auto &axis : spec.sweeps)
            rejectTrainer(axis.first == "trainer");
    }

    if (spec.resume && spec.journalPath.empty())
        throw std::invalid_argument(
            "resume=1 needs a journal=FILE to splice results from");

    if (!spec.dispatchSpawnCmd.empty() && spec.dispatchWorkers.empty())
        throw std::invalid_argument(
            "spawn-cmd= needs workers=ADDR,... to name the endpoints "
            "it launches");

    return std::move(p.spec);
}

std::vector<RunCell>
expandSpec(const ExperimentSpec &spec)
{
    const auto &reg = PrefetcherRegistry::builtin();

    // cartesian product of sweep axes, last axis fastest; axes an
    // engine's kind does not understand are skipped for that engine so
    // a mixed matrix does not duplicate identical cells (geometry axes
    // reshape every engine's hierarchy, so they are never skipped)
    auto pointsFor = [&](const EngineConfig &e) {
        std::vector<Options> points{Options{}};
        for (const auto &[opt, values] : spec.sweeps) {
            if (!isCellAxis(opt) && !reg.knowsOption(e.kind, opt))
                continue;
            std::vector<Options> next;
            for (const auto &base : points) {
                for (const auto &v : values) {
                    Options p = base;
                    p[opt] = v;
                    next.push_back(std::move(p));
                }
            }
            points = std::move(next);
        }
        return points;
    };

    std::vector<RunCell> cells;
    uint32_t id = 0;
    for (const auto &w : spec.workloads) {
        for (const auto &e : spec.engines) {
            for (const auto &point : pointsFor(e)) {
                RunCell cell;
                cell.id = id++;
                cell.workload = w;
                cell.engine = e;
                cell.sweepPoint = point;
                cell.params = spec.params;
                cell.sys = spec.sys;
                cell.densityRegion = spec.densityRegion;
                cell.oracleRegionSizes = spec.oracleRegionSizes;
                const KeyTable axes =
                    cellKeys(cell.sys, cell.densityRegion);
                for (const auto &[k, v] : point) {
                    // cell axes reshape this cell's hierarchy or
                    // retune its trackers; block additionally reaches
                    // the prefetcher (its stream granularity must
                    // match the caches)
                    const Key *axis = findKey(axes, k);
                    if (axis)
                        axis->apply(k, v);
                    if (!axis || k == "block")
                        cell.engine.options[k] = v;  // sweep overrides
                }
                // a per-engine block override (pf.LABEL.block) must
                // reshape this cell's caches too, or the prefetcher
                // would run at a different granularity than the
                // hierarchy
                auto blk = cell.engine.options.find("block");
                if (blk != cell.engine.options.end()) {
                    const auto bytes = static_cast<uint32_t>(
                        optU64(cell.engine.options, "block",
                               spec.sys.l1.blockSize));
                    cell.sys.l1.blockSize = bytes;
                    cell.sys.l2.blockSize = bytes;
                }
                cell.mode = spec.mode;
                cell.timing = spec.timing;
                cell.timingOnly = spec.timingOnly;
                cells.push_back(std::move(cell));
            }
        }
    }
    return cells;
}

std::vector<RunCell>
selectedCells(const ExperimentSpec &spec)
{
    std::vector<RunCell> cells = expandSpec(spec);
    if (spec.cellFilter.empty())
        return cells;
    const auto ranges = parseCellRanges(spec.cellFilter);
    std::vector<RunCell> out;
    for (auto &cell : cells) {
        for (const auto &[lo, hi] : ranges) {
            if (cell.id >= lo && cell.id <= hi) {
                out.push_back(std::move(cell));
                break;
            }
        }
    }
    if (out.empty())
        throw std::invalid_argument("cells=" + spec.cellFilter +
                                    ": selects no cells (matrix has " +
                                    std::to_string(cells.size()) + ")");
    return out;
}

} // namespace stems::driver
