#include "driver/analyze.hh"

#include <algorithm>
#include <cstdint>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "dispatch/coordinator.hh"
#include "dispatch/json.hh"
#include "driver/report.hh"
#include "study/table.hh"

namespace stems::driver {

namespace {

using dispatch::JsonValue;
using dispatch::parseJson;
using study::TablePrinter;

/** One trace span/instant, decoded from the Chrome-trace JSON. */
struct Ev
{
    std::string name;
    char ph = 'X';
    double tsUs = 0;
    double durUs = 0;
    int64_t pid = 0;
    uint32_t tid = 0;
    std::vector<std::pair<std::string, std::string>> args;

    double endUs() const { return tsUs + durUs; }

    const std::string *
    arg(const std::string &key) const
    {
        for (const auto &[k, v] : args)
            if (k == key)
                return &v;
        return nullptr;
    }
};

struct Trace
{
    std::vector<Ev> spans;     //!< 'X' events
    std::vector<Ev> instants;  //!< 'i' events
    /** (pid, tid) → thread_name metadata. */
    std::map<std::pair<int64_t, uint32_t>, std::string> threadNames;
    double extentUs = 0;       //!< max span end (the traced wall)
};

Trace
parseTrace(const std::string &text)
{
    Trace t;
    const JsonValue doc = parseJson(text);
    const JsonValue *events = doc.find("traceEvents");
    if (!events || events->kind != JsonValue::Kind::Array)
        throw std::invalid_argument(
            "analyze: trace file has no traceEvents array (not a "
            "--trace-out artifact?)");
    for (const JsonValue &item : events->items) {
        Ev e;
        e.name = item.at("name").asString();
        const std::string &ph = item.at("ph").asString();
        e.ph = ph.empty() ? '?' : ph[0];
        if (const JsonValue *ts = item.find("ts"))
            e.tsUs = ts->asDouble();
        if (const JsonValue *dur = item.find("dur"))
            e.durUs = dur->asDouble();
        if (const JsonValue *pid = item.find("pid"))
            e.pid = static_cast<int64_t>(pid->asDouble());
        if (const JsonValue *tid = item.find("tid"))
            e.tid = static_cast<uint32_t>(tid->asDouble());
        if (const JsonValue *args = item.find("args"))
            for (const auto &[k, v] : args->members)
                if (v.kind == JsonValue::Kind::String)
                    e.args.emplace_back(k, v.text);
        if (e.ph == 'X') {
            t.extentUs = std::max(t.extentUs, e.endUs());
            t.spans.push_back(std::move(e));
        } else if (e.ph == 'i') {
            t.instants.push_back(std::move(e));
        } else if (e.ph == 'M' && e.name == "thread_name") {
            if (const std::string *n = e.arg("name"))
                t.threadNames[{e.pid, e.tid}] = *n;
        }
    }
    return t;
}

// -------------------------------------------------------------------
// sections
// -------------------------------------------------------------------

struct PhaseRow
{
    std::string name;
    uint64_t count = 0;
    double totalMs = 0, maxMs = 0;
};

std::vector<PhaseRow>
phaseBreakdown(const Trace &t)
{
    std::map<std::string, PhaseRow> acc;
    for (const Ev &e : t.spans) {
        PhaseRow &r = acc[e.name];
        r.name = e.name;
        ++r.count;
        r.totalMs += e.durUs / 1000.0;
        r.maxMs = std::max(r.maxMs, e.durUs / 1000.0);
    }
    std::vector<PhaseRow> rows;
    for (auto &[name, r] : acc)
        rows.push_back(std::move(r));
    std::stable_sort(rows.begin(), rows.end(),
                     [](const PhaseRow &a, const PhaseRow &b) {
                         return a.totalMs > b.totalMs;
                     });
    return rows;
}

/**
 * Walk the chain of spans that bounded the run's wall time, back to
 * front: start from the latest-finishing span, descend into its
 * latest-finishing contained child — same pid/tid, or across the
 * process boundary when the cell= annotation matches (a
 * dispatch_cell's child is its worker's worker_cell) — and when a
 * span has no children jump to the latest span ending at or before
 * its start. Ties break deterministically (longer span, then name).
 */
std::vector<const Ev *>
criticalPath(const Trace &t, size_t cap)
{
    std::vector<const Ev *> chain;
    if (t.spans.empty())
        return chain;

    auto better = [](const Ev *a, const Ev *b) {
        // is a a better pick than b?
        if (a->endUs() != b->endUs())
            return a->endUs() > b->endUs();
        if (a->durUs != b->durUs)
            return a->durUs > b->durUs;
        return a->name < b->name;
    };

    const Ev *cur = nullptr;
    for (const Ev &e : t.spans)
        if (!cur || better(&e, cur))
            cur = &e;

    while (cur && chain.size() < cap) {
        chain.push_back(cur);
        const Ev *child = nullptr;
        const std::string *curCell = cur->arg("cell");
        for (const Ev &e : t.spans) {
            if (&e == cur)
                continue;
            const bool sameThread =
                e.pid == cur->pid && e.tid == cur->tid;
            const std::string *evCell = e.arg("cell");
            const bool sameCell =
                curCell && evCell && *curCell == *evCell;
            if (!sameThread && !sameCell)
                continue;
            if (e.tsUs < cur->tsUs || e.endUs() > cur->endUs() ||
                e.durUs >= cur->durUs)
                continue;
            if (!child || better(&e, child))
                child = &e;
        }
        if (child) {
            cur = child;
            continue;
        }
        const Ev *prev = nullptr;
        for (const Ev &e : t.spans) {
            if (&e == cur || e.endUs() > cur->tsUs)
                continue;
            if (!prev || better(&e, prev))
                prev = &e;
        }
        cur = prev;
    }
    std::reverse(chain.begin(), chain.end());
    return chain;
}

struct HitRate
{
    std::string family;
    uint64_t hits = 0, misses = 0;

    double
    rate() const
    {
        const uint64_t total = hits + misses;
        return total ? static_cast<double>(hits) /
                static_cast<double>(total)
                     : 0.0;
    }
};

std::vector<HitRate>
hitRates(const JsonValue &counters)
{
    auto get = [&counters](const char *name) -> uint64_t {
        const JsonValue *v = counters.find(name);
        return v ? v->asU64() : 0;
    };
    std::vector<HitRate> rates;
    rates.push_back({"trace_cache", get("trace_cache_hits"),
                     get("trace_cache_misses")});
    rates.push_back({"baseline_memo", get("baseline_memo_hits"),
                     get("baseline_memo_misses")});
    rates.push_back({"timing_memo", get("timing_memo_hits"),
                     get("timing_memo_misses")});
    return rates;
}

/** Busy lanes for the utilization timeline and straggler table:
 *  dispatch_cell spans (one lane per worker pid) when the run was
 *  dispatched, else the runner threads' cell spans (lane per tid),
 *  else a daemon's serve_cell spans (lane per fleet thread). */
struct Lane
{
    std::string label;
    std::vector<const Ev *> spans;
    double busyUs = 0;
};

std::vector<Lane>
busyLanes(const Trace &t)
{
    std::map<std::string, Lane> acc;
    bool dispatched = false, runner = false;
    for (const Ev &e : t.spans) {
        if (e.name == "dispatch_cell")
            dispatched = true;
        else if (e.name == "cell")
            runner = true;
    }
    for (const Ev &e : t.spans) {
        std::string key;
        if (dispatched) {
            if (e.name != "dispatch_cell")
                continue;
            const std::string *pid = e.arg("pid");
            key = "pid " + (pid ? *pid : std::to_string(e.pid));
        } else {
            if (e.name != (runner ? "cell" : "serve_cell"))
                continue;
            const auto it = t.threadNames.find({e.pid, e.tid});
            key = it != t.threadNames.end()
                ? it->second
                : "tid " + std::to_string(e.tid);
        }
        Lane &lane = acc[key];
        lane.label = key;
        lane.spans.push_back(&e);
        lane.busyUs += e.durUs;
    }
    std::vector<Lane> lanes;
    for (auto &[key, lane] : acc)
        lanes.push_back(std::move(lane));
    return lanes;
}

/** Per-request rollup of a `stems serve` trace: the request span
 *  carries queue wait and cell counts; exec time is the sum of the
 *  serve_cell spans tagged with the same request id. */
struct ServeRow
{
    uint64_t request = 0;
    double queueMs = 0, wallMs = 0, execMs = 0;
    uint64_t cells = 0, replayed = 0;
};

std::vector<ServeRow>
serveBreakdown(const Trace &t)
{
    std::map<uint64_t, ServeRow> acc;
    for (const Ev &e : t.spans) {
        if (e.name != "serve_request")
            continue;
        const std::string *id = e.arg("request");
        if (!id)
            continue;
        ServeRow &r = acc[std::stoull(*id)];
        r.request = std::stoull(*id);
        r.wallMs += e.durUs / 1000.0;
        if (const std::string *q = e.arg("queue_ms"))
            r.queueMs += std::stod(*q);
        auto count = [&e](const char *key) -> uint64_t {
            const std::string *v = e.arg(key);
            return v ? std::stoull(*v) : 0;
        };
        r.cells += count("cells");
        r.replayed += count("replayed");
    }
    for (const Ev &e : t.spans) {
        if (e.name != "serve_cell")
            continue;
        const std::string *id = e.arg("request");
        if (!id)
            continue;
        const auto it = acc.find(std::stoull(*id));
        if (it != acc.end())
            it->second.execMs += e.durUs / 1000.0;
    }
    std::vector<ServeRow> rows;
    for (auto &[id, r] : acc)
        rows.push_back(r);
    return rows;
}

std::vector<double>
laneBuckets(const Lane &lane, double extentUs, uint32_t nBuckets)
{
    std::vector<double> busy(nBuckets, 0.0);
    if (extentUs <= 0 || nBuckets == 0)
        return busy;
    const double w = extentUs / nBuckets;
    for (const Ev *e : lane.spans) {
        const size_t first = static_cast<size_t>(
            std::min<double>(e->tsUs / w, nBuckets - 1));
        const size_t last = static_cast<size_t>(
            std::min<double>(e->endUs() / w, nBuckets - 1));
        for (size_t b = first; b <= last; ++b) {
            const double lo = std::max(e->tsUs, b * w);
            const double hi = std::min(e->endUs(), (b + 1) * w);
            if (hi > lo)
                busy[b] += (hi - lo) / w;
        }
    }
    for (double &v : busy)
        v = std::min(v, 1.0);
    return busy;
}

std::string
spanDetail(const Ev &e)
{
    std::string out;
    for (const char *key : {"cell", "id", "workload", "engine", "pid",
                            "path", "kind"}) {
        if (const std::string *v = e.arg(key)) {
            if (!out.empty())
                out += " ";
            out += key;
            out += "=";
            out += *v;
        }
    }
    return out;
}

// -------------------------------------------------------------------
// emitters
// -------------------------------------------------------------------

struct Inputs
{
    const Trace *trace = nullptr;
    const JsonValue *telemetry = nullptr;  //!< the "telemetry" object
};

std::string
emitTable(const Inputs &in, const AnalyzeOptions &opts)
{
    std::ostringstream os;
    const double wallMs = in.telemetry
        ? in.telemetry->at("wall_ms").asDouble()
        : (in.trace ? in.trace->extentUs / 1000.0 : 0);

    if (in.trace) {
        const Trace &t = *in.trace;
        os << "stems analyze: " << t.spans.size() << " spans, "
           << t.instants.size() << " instants, traced extent "
           << TablePrinter::fixed(t.extentUs / 1000.0, 1) << " ms\n";

        double busyMs = 0;
        for (const Ev &e : t.spans)
            busyMs += e.durUs / 1000.0;

        os << "\n== per-phase wall ==\n";
        TablePrinter pt({"Span", "Count", "Total ms", "Mean ms",
                         "Max ms", "Share"});
        for (const PhaseRow &r : phaseBreakdown(t))
            pt.addRow({r.name, std::to_string(r.count),
                       TablePrinter::fixed(r.totalMs, 1),
                       TablePrinter::fixed(
                           r.totalMs / static_cast<double>(r.count),
                           2),
                       TablePrinter::fixed(r.maxMs, 1),
                       TablePrinter::pct(busyMs > 0 ? r.totalMs /
                                             busyMs
                                                    : 0)});
        pt.print(os);

        const auto serveRows = serveBreakdown(t);
        if (!serveRows.empty()) {
            os << "\n== serve requests == (queue wait vs "
                  "execution)\n";
            TablePrinter sv({"Request", "Queue ms", "Wall ms",
                             "Exec ms", "Cells", "Replayed"});
            for (const ServeRow &r : serveRows)
                sv.addRow({std::to_string(r.request),
                           TablePrinter::fixed(r.queueMs, 1),
                           TablePrinter::fixed(r.wallMs, 1),
                           TablePrinter::fixed(r.execMs, 1),
                           std::to_string(r.cells),
                           std::to_string(r.replayed)});
            sv.print(os);
        }

        // the chain nests (a dispatch_cell contains its worker's
        // spans), so coverage is the union of intervals, not the sum
        const auto chain = criticalPath(t, opts.criticalPathCap);
        std::vector<std::pair<double, double>> iv;
        for (const Ev *e : chain)
            iv.emplace_back(e->tsUs, e->endUs());
        std::sort(iv.begin(), iv.end());
        double chainUs = 0, hi = 0;
        for (const auto &[a, b] : iv) {
            chainUs += std::max(0.0, b - std::max(a, hi));
            hi = std::max(hi, b);
        }
        os << "\n== critical path == (" << chain.size()
           << " spans covering "
           << TablePrinter::fixed(chainUs / 1000.0, 1) << " ms of "
           << TablePrinter::fixed(t.extentUs / 1000.0, 1)
           << " ms extent)\n";
        TablePrinter ct({"#", "Span", "Start ms", "Dur ms",
                         "Detail"});
        for (size_t i = 0; i < chain.size(); ++i)
            ct.addRow({std::to_string(i + 1), chain[i]->name,
                       TablePrinter::fixed(chain[i]->tsUs / 1000.0,
                                           1),
                       TablePrinter::fixed(chain[i]->durUs / 1000.0,
                                           1),
                       spanDetail(*chain[i])});
        ct.print(os);
    }

    if (in.telemetry) {
        os << "\n== memo / cache hit rates ==\n";
        TablePrinter ht({"Family", "Hits", "Misses", "Rate"});
        for (const HitRate &r :
             hitRates(in.telemetry->at("counters")))
            ht.addRow({r.family, std::to_string(r.hits),
                       std::to_string(r.misses),
                       r.hits + r.misses
                           ? TablePrinter::pct(r.rate())
                           : "-"});
        ht.print(os);

        const auto workers =
            dispatch::workerStatsFromJson(in.telemetry->at("workers"));
        if (!workers.empty())
            os << "\n== workers == (wall "
               << TablePrinter::fixed(wallMs, 1) << " ms)\n"
               << dispatch::workerTable(workers, wallMs);
    }

    if (in.trace) {
        const Trace &t = *in.trace;
        const auto lanes = busyLanes(t);
        if (!lanes.empty()) {
            os << "\n== utilization timeline == ("
               << opts.timelineBuckets << " slices of "
               << TablePrinter::fixed(
                      t.extentUs / 1000.0 / opts.timelineBuckets, 1)
               << " ms)\n";
            for (const Lane &lane : lanes) {
                std::string bar;
                for (double v :
                     laneBuckets(lane, t.extentUs,
                                 opts.timelineBuckets))
                    bar += v >= 0.75 ? '#'
                        : v >= 0.25  ? '+'
                        : v > 0.0    ? '.'
                                     : ' ';
                os << "  " << lane.label << "  |" << bar << "|  "
                   << TablePrinter::pct(
                          t.extentUs > 0 ? lane.busyUs / t.extentUs
                                         : 0)
                   << "\n";
            }

            std::vector<const Ev *> cells;
            for (const Lane &lane : lanes)
                cells.insert(cells.end(), lane.spans.begin(),
                             lane.spans.end());
            std::stable_sort(cells.begin(), cells.end(),
                             [](const Ev *a, const Ev *b) {
                                 return a->durUs > b->durUs;
                             });
            if (cells.size() > opts.stragglerTop)
                cells.resize(opts.stragglerTop);
            os << "\n== stragglers == (top " << cells.size()
               << " cells by wall)\n";
            TablePrinter st({"Span", "Dur ms", "Share", "Detail"});
            for (const Ev *e : cells)
                st.addRow({e->name,
                           TablePrinter::fixed(e->durUs / 1000.0, 1),
                           TablePrinter::pct(
                               t.extentUs > 0
                                   ? e->durUs / t.extentUs
                                   : 0),
                           spanDetail(*e)});
            st.print(os);
        }
    }
    return os.str();
}

std::string
emitJson(const Inputs &in, const AnalyzeOptions &opts)
{
    JsonWriter j;
    j.beginObject();
    j.key("analyze").beginObject();
    j.key("schema").value(uint64_t{3});

    if (in.trace) {
        const Trace &t = *in.trace;
        j.key("trace_extent_ms").value(t.extentUs / 1000.0);
        j.key("span_count").value(
            static_cast<uint64_t>(t.spans.size()));
        j.key("instant_count").value(
            static_cast<uint64_t>(t.instants.size()));

        j.key("phases").beginArray();
        for (const PhaseRow &r : phaseBreakdown(t)) {
            j.beginObject();
            j.key("name").value(r.name);
            j.key("count").value(r.count);
            j.key("total_ms").value(r.totalMs);
            j.key("max_ms").value(r.maxMs);
            j.endObject();
        }
        j.endArray();

        j.key("critical_path").beginArray();
        for (const Ev *e : criticalPath(t, opts.criticalPathCap)) {
            j.beginObject();
            j.key("name").value(e->name);
            // at the trace's own ns resolution: six significant
            // digits would round a µs step hundreds of ms into a run
            // to end after the step it unblocked
            j.key("start_ms").fixed(e->tsUs / 1000.0, 6);
            j.key("dur_ms").fixed(e->durUs / 1000.0, 6);
            j.key("args").beginObject();
            for (const auto &[k, v] : e->args)
                j.key(k).value(v);
            j.endObject();
            j.endObject();
        }
        j.endArray();

        const auto lanes = busyLanes(t);
        j.key("timeline").beginObject();
        j.key("buckets").value(uint64_t{opts.timelineBuckets});
        j.key("bucket_ms").value(
            opts.timelineBuckets
                ? t.extentUs / 1000.0 / opts.timelineBuckets
                : 0.0);
        j.key("lanes").beginArray();
        for (const Lane &lane : lanes) {
            j.beginObject();
            j.key("label").value(lane.label);
            j.key("busy_ms").value(lane.busyUs / 1000.0);
            j.key("utilization")
                .value(t.extentUs > 0 ? lane.busyUs / t.extentUs
                                      : 0.0);
            j.key("busy").beginArray();
            for (double v :
                 laneBuckets(lane, t.extentUs, opts.timelineBuckets))
                j.value(v);
            j.endArray();
            j.endObject();
        }
        j.endArray();
        j.endObject();

        std::vector<const Ev *> cells;
        for (const Lane &lane : lanes)
            cells.insert(cells.end(), lane.spans.begin(),
                         lane.spans.end());
        std::stable_sort(cells.begin(), cells.end(),
                         [](const Ev *a, const Ev *b) {
                             return a->durUs > b->durUs;
                         });
        if (cells.size() > opts.stragglerTop)
            cells.resize(opts.stragglerTop);
        j.key("stragglers").beginArray();
        for (const Ev *e : cells) {
            j.beginObject();
            j.key("name").value(e->name);
            j.key("dur_ms").value(e->durUs / 1000.0);
            j.key("args").beginObject();
            for (const auto &[k, v] : e->args)
                j.key(k).value(v);
            j.endObject();
            j.endObject();
        }
        j.endArray();

        // present only for `stems serve` traces
        const auto serveRows = serveBreakdown(t);
        if (!serveRows.empty()) {
            j.key("serve").beginArray();
            for (const ServeRow &r : serveRows) {
                j.beginObject();
                j.key("request").value(r.request);
                j.key("queue_ms").value(r.queueMs);
                j.key("wall_ms").value(r.wallMs);
                j.key("exec_ms").value(r.execMs);
                j.key("cells").value(r.cells);
                j.key("replayed").value(r.replayed);
                j.endObject();
            }
            j.endArray();
        }
    }

    if (in.telemetry) {
        j.key("wall_ms").value(
            in.telemetry->at("wall_ms").asDouble());
        j.key("hit_rates").beginObject();
        for (const HitRate &r :
             hitRates(in.telemetry->at("counters"))) {
            j.key(r.family).beginObject();
            j.key("hits").value(r.hits);
            j.key("misses").value(r.misses);
            j.key("rate").value(r.rate());
            j.endObject();
        }
        j.endObject();

        const double wallMs = in.telemetry->at("wall_ms").asDouble();
        j.key("workers").beginArray();
        for (const dispatch::WorkerStats &w : dispatch::workerStatsFromJson(
                 in.telemetry->at("workers"))) {
            const dispatch::WorkerPhases p = dispatch::workerPhases(w);
            j.beginObject();
            j.key("pid").value(static_cast<uint64_t>(w.pid));
            j.key("cells").value(w.cellsDone);
            j.key("busy_ms").value(w.busyMs);
            j.key("utilization")
                .value(wallMs > 0 ? w.busyMs / wallMs : 0.0);
            j.key("trace_ms").value(p.traceMs);
            j.key("base_ms").value(p.baseMs);
            j.key("study_ms").value(p.studyMs);
            j.key("timing_ms").value(p.timingMs);
            j.key("peak_rss_kb").value(w.rssKb);
            j.key("lost").value(w.lost);
            j.endObject();
        }
        j.endArray();
    }

    j.endObject();
    j.endObject();
    return j.str() + "\n";
}

} // anonymous namespace

std::string
analyzeRun(const std::string &traceText,
           const std::string &telemetryText,
           const AnalyzeOptions &opts)
{
    if (traceText.empty() && telemetryText.empty())
        throw std::invalid_argument(
            "analyze: need a trace and/or telemetry artifact");
    if (opts.format != "table" && opts.format != "json")
        throw std::invalid_argument(
            "analyze: format must be table or json (got \"" +
            opts.format + "\")");
    if (opts.timelineBuckets == 0)
        throw std::invalid_argument(
            "analyze: timeline-buckets must be positive");

    Trace trace;
    Inputs in;
    if (!traceText.empty()) {
        trace = parseTrace(traceText);
        in.trace = &trace;
    }
    JsonValue telemetryDoc;
    if (!telemetryText.empty()) {
        telemetryDoc = parseJson(telemetryText);
        const JsonValue *tel = telemetryDoc.find("telemetry");
        if (!tel)
            throw std::invalid_argument(
                "analyze: telemetry file has no telemetry object "
                "(not a --telemetry-out artifact?)");
        in.telemetry = tel;
    }
    return opts.format == "json" ? emitJson(in, opts)
                                 : emitTable(in, opts);
}

KeyTable
analyzeKeys(AnalyzeArgs &a)
{
    return {
        strKey("trace", a.tracePath, "--trace-out artifact"),
        strKey("telemetry", a.telemetryPath, "--telemetry-out artifact"),
        strKey("format", a.opts.format, "table or json"),
        u32Key("timeline-buckets", a.opts.timelineBuckets, "slices/worker"),
        u64Key("top", a.opts.stragglerTop, "slowest cells listed"),
    };
}

int
cmdAnalyze(const std::vector<std::string> &args)
{
    AnalyzeArgs a;
    parseKeys(analyzeKeys(a), args);
    if (a.tracePath.empty() && a.telemetryPath.empty()) {
        std::cerr << "stems analyze: trace= and/or telemetry= is "
                     "required\n";
        return 2;
    }
    std::string traceText, telemetryText;
    for (auto [path, text] : {std::pair{&a.tracePath, &traceText},
                              std::pair{&a.telemetryPath, &telemetryText}}) {
        if (!path->empty() && !readFile(*path, *text)) {
            std::cerr << "stems analyze: cannot read " << *path << "\n";
            return 1;
        }
    }
    std::cout << analyzeRun(traceText, telemetryText, a.opts);
    return 0;
}

} // namespace stems::driver
