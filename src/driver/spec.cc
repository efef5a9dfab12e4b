#include "driver/spec.hh"

#include <stdexcept>

#include "fault/fault.hh"
#include "study/suite.hh"

namespace stems::driver {

namespace {

/** Expand config=FILE tokens into their contents, depth-first. */
std::vector<std::pair<std::string, std::string>>
flattenTokens(const std::vector<std::string> &tokens, int depth = 0)
{
    if (depth > 8)
        throw std::invalid_argument("config files nested too deeply");
    std::vector<std::pair<std::string, std::string>> out;
    for (const auto &tok : tokens) {
        auto [key, value] = parseKeyValue(tok);
        if (key == "config") {
            auto nested = flattenTokens(readConfigFile(value), depth + 1);
            out.insert(out.end(), nested.begin(), nested.end());
        } else {
            out.emplace_back(key, value);
        }
    }
    return out;
}

std::vector<std::string>
resolveWorkloads(const std::string &value)
{
    std::vector<std::string> out;
    for (const auto &name : splitList(value)) {
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
resolveEngines(const std::string &value)
{
    const auto &reg = PrefetcherRegistry::builtin();
    std::vector<EngineConfig> out;
    for (const auto &item : splitList(value)) {
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

/** Parse one numeric value under its key's error message. */
uint64_t
parseU64(const std::string &key, const std::string &value, uint64_t def)
{
    Options o{{key, value}};
    return optU64(o, key, def);
}

/** Apply one cache-geometry key to a system config. */
void
applyGeometry(mem::MemSysConfig &sys, const std::string &key,
              const std::string &value)
{
    const uint64_t v = parseU64(key, value, 0);
    if (v == 0)
        throw std::invalid_argument(key + "=" + value +
                                    ": must be positive");
    if (key == "block") {
        sys.l1.blockSize = static_cast<uint32_t>(v);
        sys.l2.blockSize = static_cast<uint32_t>(v);
    } else if (key == "l1-kb") {
        sys.l1.sizeBytes = v * 1024;
    } else if (key == "l2-kb") {
        sys.l2.sizeBytes = v * 1024;
    } else if (key == "l2-mb") {
        sys.l2.sizeBytes = v * 1024 * 1024;
    } else if (key == "l1-assoc") {
        sys.l1.assoc = static_cast<uint32_t>(v);
    } else if (key == "l2-assoc") {
        sys.l2.assoc = static_cast<uint32_t>(v);
    }
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
            size_t pos = 0;
            uint32_t lo, hi;
            if (dash == std::string::npos) {
                lo = hi = static_cast<uint32_t>(std::stoul(item, &pos));
                if (pos != item.size())
                    throw std::invalid_argument(item);
            } else {
                const std::string a = item.substr(0, dash);
                const std::string b = item.substr(dash + 1);
                lo = static_cast<uint32_t>(std::stoul(a, &pos));
                if (pos != a.size())
                    throw std::invalid_argument(item);
                hi = static_cast<uint32_t>(std::stoul(b, &pos));
                if (pos != b.size())
                    throw std::invalid_argument(item);
            }
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
 * pf./opt./sweep. key would otherwise silently run with defaults.
 * (Cache-geometry axes are legal only as sweep.* axes or top-level
 * keys; the sweep branch skips this check for them. An opt./pf.
 * geometry key would land in the engine's option bag where nothing
 * reads it, so it stays rejected here.)
 */
void
checkOptionKnown(const std::vector<EngineConfig> &engines,
                 const std::string &opt, const std::string &where)
{
    const auto &reg = PrefetcherRegistry::builtin();
    for (const auto &e : engines)
        if (reg.knowsOption(e.kind, opt))
            return;
    std::string kinds, known;
    for (const auto &e : engines) {
        kinds += (kinds.empty() ? "" : ", ") + e.kind;
        for (const auto &k : reg.optionKeys(e.kind))
            known += (known.empty() ? "" : ", ") + k;
    }
    throw std::invalid_argument(
        where + ": no selected prefetcher (" + kinds +
        ") understands option \"" + opt + "\"" +
        (known.empty() ? "" : " (known: " + known + ")"));
}

} // anonymous namespace

bool
isGeometryKey(const std::string &key)
{
    return key == "block" || key == "l1-kb" || key == "l2-kb" ||
        key == "l2-mb" || key == "l1-assoc" || key == "l2-assoc";
}

ExperimentSpec
parseSpec(const std::vector<std::string> &tokens)
{
    auto kvs = flattenTokens(tokens);

    ExperimentSpec spec;
    spec.params = study::defaultParams();
    spec.workloads = resolveWorkloads("paper");
    spec.engines = resolveEngines("sms");

    // pass 1: structure-defining keys
    for (const auto &[key, value] : kvs) {
        if (key == "workloads")
            spec.workloads = resolveWorkloads(value);
        else if (key == "prefetchers")
            spec.engines = resolveEngines(value);
    }

    // pass 2: everything else (pf.* needs the engine list)
    for (const auto &[key, value] : kvs) {
        if (key == "workloads" || key == "prefetchers") {
            // handled above
        } else if (key.rfind("opt.", 0) == 0) {
            const std::string opt = key.substr(4);
            checkOptionKnown(spec.engines, opt, key);
            for (auto &e : spec.engines)
                e.options[opt] = value;
        } else if (key.rfind("pf.", 0) == 0) {
            size_t dot = key.find('.', 3);
            if (dot == std::string::npos)
                throw std::invalid_argument(
                    "expected pf.<label>.<option>, got \"" + key + "\"");
            const std::string label = key.substr(3, dot - 3);
            const std::string opt = key.substr(dot + 1);
            bool found = false;
            for (auto &e : spec.engines) {
                if (e.displayLabel() == label) {
                    checkOptionKnown({e}, opt, key);
                    e.options[opt] = value;
                    found = true;
                }
            }
            if (!found)
                throw std::invalid_argument(
                    "pf option for unknown prefetcher label \"" + label +
                    "\"");
        } else if (key.rfind("sweep.", 0) == 0) {
            const std::string opt = key.substr(6);
            // geometry axes reshape every cell's hierarchy and the
            // density axis retunes the cell's trackers — neither
            // parameterizes a prefetcher, so they need no engine
            if (!isGeometryKey(opt) && opt != "density")
                checkOptionKnown(spec.engines, opt, key);
            auto values = splitList(value);
            if (values.empty())
                throw std::invalid_argument("empty sweep axis " + key);
            if (opt == "density") {
                for (const auto &v : values) {
                    const uint64_t size = parseU64(key, v, 0);
                    if (size != 0 && (size & (size - 1)) != 0)
                        throw std::invalid_argument(
                            key + "=" + v +
                            ": region sizes must be powers of two");
                }
            }
            bool replaced = false;
            for (auto &axis : spec.sweeps) {
                if (axis.first == opt) {
                    axis.second = values;
                    replaced = true;
                }
            }
            if (!replaced)
                spec.sweeps.emplace_back(opt, std::move(values));
        } else if (key == "ncpu") {
            Options o{{key, value}};
            spec.params.ncpu =
                static_cast<uint32_t>(optU64(o, key, spec.params.ncpu));
            if (spec.params.ncpu == 0)
                throw std::invalid_argument("ncpu must be positive");
        } else if (key == "refs") {
            Options o{{key, value}};
            spec.params.refsPerCpu =
                optU64(o, key, spec.params.refsPerCpu);
        } else if (key == "seed") {
            Options o{{key, value}};
            spec.params.seed = optU64(o, key, spec.params.seed);
        } else if (key == "threads") {
            Options o{{key, value}};
            spec.threads =
                static_cast<uint32_t>(optU64(o, key, spec.threads));
        } else if (key == "mode") {
            if (value == "system")
                spec.mode = StudyMode::System;
            else if (value == "l1")
                spec.mode = StudyMode::L1;
            else
                throw std::invalid_argument("mode=" + value +
                                            ": expected system|l1");
        } else if (key == "timing") {
            if (value == "only") {
                // skip the system-study pass (and its memoized miss
                // baseline) whose metrics pure timing harnesses never
                // read — roughly halves per-cell work
                spec.timing = true;
                spec.timingOnly = true;
            } else {
                Options o{{key, value}};
                spec.timing = optBool(o, key, spec.timing);
                spec.timingOnly = false;
            }
        } else if (key == "trace-dir") {
            spec.traceDir = value;
        } else if (key == "json") {
            spec.jsonPath = value;
        } else if (key == "csv") {
            spec.csvPath = value;
        } else if (key == "table") {
            Options o{{key, value}};
            spec.table = optBool(o, key, spec.table);
        } else if (key == "quiet") {
            Options o{{key, value}};
            spec.quiet = optBool(o, key, spec.quiet);
        } else if (key == "groups") {
            Options o{{key, value}};
            spec.groups = optBool(o, key, spec.groups);
        } else if (key == "trace-out") {
            spec.traceOut = value;
        } else if (key == "telemetry-out") {
            spec.telemetryOut = value;
        } else if (key == "stats-out") {
            spec.statsOut = value;
        } else if (key == "stats-interval-ms") {
            spec.statsIntervalMs = static_cast<uint32_t>(
                parseU64(key, value, spec.statsIntervalMs));
            if (spec.statsIntervalMs == 0)
                throw std::invalid_argument(
                    "stats-interval-ms must be positive");
        } else if (key == "schedule") {
            if (value == "cost")
                spec.scheduleCost = true;
            else if (value == "fifo")
                spec.scheduleCost = false;
            else
                throw std::invalid_argument(
                    "schedule=" + value + ": expected cost|fifo");
        } else if (key == "schedule-from") {
            spec.scheduleFrom = value;
        } else if (key == "telemetry") {
            Options o{{key, value}};
            spec.telemetry = optBool(o, key, spec.telemetry);
        } else if (key == "block") {
            applyGeometry(spec.sys, key, value);
            for (auto &e : spec.engines)
                e.options.emplace("block", value);  // keep pf.* override
        } else if (isGeometryKey(key)) {
            applyGeometry(spec.sys, key, value);
        } else if (key == "density") {
            const uint64_t size = parseU64(key, value, 0);
            if (size != 0 && (size & (size - 1)) != 0)
                throw std::invalid_argument(
                    key + "=" + value +
                    ": region size must be a power of two (or 0 = "
                    "off)");
            spec.densityRegion = static_cast<uint32_t>(size);
        } else if (key == "oracle-regions") {
            spec.oracleRegionSizes.clear();
            for (const auto &v : splitList(value)) {
                const uint64_t size = parseU64(key, v, 0);
                if (size == 0 || (size & (size - 1)) != 0)
                    throw std::invalid_argument(
                        key + "=" + value +
                        ": sizes must be powers of two");
                spec.oracleRegionSizes.push_back(
                    static_cast<uint32_t>(size));
            }
        } else if (key == "cells") {
            (void)parseCellRanges(value);  // fail early on bad input
            spec.cellFilter = value;
        } else if (key == "dispatch") {
            spec.dispatch = static_cast<uint32_t>(
                parseU64(key, value, spec.dispatch));
        } else if (key == "dispatch-timeout-ms") {
            spec.dispatchTimeoutMs = static_cast<uint32_t>(
                parseU64(key, value, spec.dispatchTimeoutMs));
        } else if (key == "dispatch-retries") {
            spec.dispatchRetries = static_cast<uint32_t>(
                parseU64(key, value, spec.dispatchRetries));
            if (spec.dispatchRetries == 0)
                throw std::invalid_argument(
                    "dispatch-retries must be positive");
        } else if (key == "dispatch-heartbeat-ms") {
            spec.dispatchHeartbeatMs = static_cast<uint32_t>(
                parseU64(key, value, spec.dispatchHeartbeatMs));
        } else if (key == "dispatch-backoff-ms") {
            spec.dispatchBackoffMs = static_cast<uint32_t>(
                parseU64(key, value, spec.dispatchBackoffMs));
        } else if (key == "dispatch-speculate") {
            Options o{{key, value}};
            spec.dispatchSpeculate =
                optBool(o, key, spec.dispatchSpeculate);
        } else if (key == "workers") {
            spec.dispatchWorkers = value;
        } else if (key == "spawn-cmd") {
            spec.dispatchSpawnCmd = value;
        } else if (key == "fault-plan") {
            (void)fault::parsePlan(value);  // fail early on bad input
            spec.faultPlan = value;
        } else if (key == "journal") {
            spec.journalPath = value;
        } else if (key == "resume") {
            Options o{{key, value}};
            spec.resume = optBool(o, key, spec.resume);
        } else if (key == "wall") {
            Options o{{key, value}};
            spec.emitWall = optBool(o, key, spec.emitWall);
        } else {
            throw std::invalid_argument("unknown key \"" + key +
                                        "\" (see stems help)");
        }
    }

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

    return spec;
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
            if (!isGeometryKey(opt) && opt != "density" &&
                !reg.knowsOption(e.kind, opt))
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
                for (const auto &[k, v] : point) {
                    // geometry axes reshape this cell's hierarchy;
                    // block additionally reaches the prefetcher (its
                    // stream granularity must match the caches); the
                    // density axis retunes the cell's trackers
                    if (k == "density") {
                        cell.densityRegion = static_cast<uint32_t>(
                            optU64(point, k, 0));
                        continue;
                    }
                    if (isGeometryKey(k))
                        applyGeometry(cell.sys, k, v);
                    if (!isGeometryKey(k) || k == "block")
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

const char *
specHelp()
{
    return
        "run keys (key=value, any order; config=FILE splices a file of\n"
        "key=value lines):\n"
        "  workloads=paper|all|NAME,...   suite selection\n"
        "  prefetchers=KIND[:LABEL],...   sms, ghb, stride, next-line,\n"
        "                                 none; label for duplicates\n"
        "  pf.LABEL.OPT=V                 option for one prefetcher\n"
        "  opt.OPT=V                      option for every prefetcher\n"
        "  sweep.OPT=V1,V2,...            parameter matrix axis; cache\n"
        "                                 geometry keys sweep per-cell\n"
        "  ncpu=16 refs=100000 seed=1     workload generation\n"
        "  mode=system|l1                 full hierarchy or shadow L1\n"
        "  timing=0|1|only                also (or only) run the timing\n"
        "                                 model; \"only\" skips the\n"
        "                                 system-study pass\n"
        "  threads=N                      runner shards (0 = all cores)\n"
        "  schedule=fifo|cost             cell dispatch order: expansion\n"
        "                                 order, or longest-estimated-\n"
        "                                 first with slowest-worker-last\n"
        "                                 (reports byte-identical)\n"
        "  schedule-from=FILE             calibrate the cost model from\n"
        "                                 a prior run's journal or\n"
        "                                 report JSON\n"
        "  dispatch=N                     execute cells in N worker\n"
        "                                 processes (crash-isolated)\n"
        "  dispatch-timeout-ms=N          per-cell timeout (0 = none)\n"
        "  dispatch-retries=N             attempts per cell (default 3)\n"
        "  dispatch-heartbeat-ms=N        worker liveness period; a\n"
        "                                 wedged worker is killed after\n"
        "                                 4 missed beats (0 = off)\n"
        "  dispatch-backoff-ms=N          respawn backoff base, doubles\n"
        "                                 per loss, 5s cap (default 50)\n"
        "  dispatch-speculate=0|1         give idle workers a copy of a\n"
        "                                 cell running > max(3x median,\n"
        "                                 2s) once none is pending\n"
        "                                 (first result wins)\n"
        "  workers=ADDR,...               dispatch over sockets to these\n"
        "                                 worker endpoints (unix:/path\n"
        "                                 or host:port) instead of\n"
        "                                 forked pipe workers\n"
        "  spawn-cmd=CMD                  launch template run per worker\n"
        "                                 ({addr} substituted; use exec)\n"
        "  journal=FILE                   append each completed cell to\n"
        "                                 a crash-safe result journal\n"
        "  resume=0|1                     skip journaled cells, splice\n"
        "                                 them into the report\n"
        "  fault-plan=SPEC                seeded chaos injection (e.g.\n"
        "                                 seed=7,crash=0.2,hang=0.1/4000\n"
        "                                 — see src/fault/fault.hh)\n"
        "  cells=A-B,C,...                run a cell-id subset (ids are\n"
        "                                 kept, stems merge recombines)\n"
        "  trace-dir=DIR                  record/replay traces on disk\n"
        "                                 (in-process runs always warm\n"
        "                                 the next cell's trace while\n"
        "                                 the current ones simulate)\n"
        "  json=PATH|- csv=PATH|-         reports (- = stdout)\n"
        "  table=0|1                      ASCII summary table\n"
        "  groups=0|1                     engine-folded per-group\n"
        "                                 aggregate rows in json/table\n"
        "  quiet=0|1                      suppress progress lines\n"
        "  trace-out=PATH                 Chrome trace-event JSON\n"
        "                                 (Perfetto-loadable spans)\n"
        "  telemetry=0|1                  counters JSON on stderr\n"
        "  telemetry-out=PATH             counters JSON to a file\n"
        "  stats-out=PATH                 sampled time-series JSONL\n"
        "                                 (counters, gauges, RSS)\n"
        "  stats-interval-ms=N            sampler period (default 100)\n"
        "  wall=0|1                       wall_ms in JSON (0 = stable\n"
        "                                 byte-comparable output)\n"
        "  l1-kb=64 l1-assoc=2 l2-kb=N    cache geometry\n"
        "  l2-mb=8 l2-assoc=8 block=64\n"
        "  oracle-regions=S1,S2,...       track oracle generations\n"
        "  density=BYTES                  track access-density\n"
        "                                 histograms (Fig 5) at this\n"
        "                                 region size (0 = off)\n";
}

} // namespace stems::driver
