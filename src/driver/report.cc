#include "driver/report.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "driver/metrics.hh"
#include "study/stats.hh"
#include "study/table.hh"
#include "workloads/workload.hh"

namespace stems::driver {

// ---------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------

std::string
JsonWriter::escape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::separate()
{
    if (pendingKey) {
        pendingKey = false;
        return;
    }
    if (!needComma.empty()) {
        if (needComma.back())
            out += ',';
        needComma.back() = true;
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separate();
    out += '{';
    needComma.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    out += '}';
    needComma.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    separate();
    out += '[';
    needComma.push_back(false);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    out += ']';
    needComma.pop_back();
    return *this;
}

JsonWriter &
JsonWriter::key(const std::string &k)
{
    separate();
    out += '"' + escape(k) + "\":";
    pendingKey = true;
    return *this;
}

JsonWriter &
JsonWriter::value(const std::string &v)
{
    separate();
    out += '"' + escape(v) + '"';
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string(v));
}

JsonWriter &
JsonWriter::value(uint64_t v)
{
    separate();
    out += std::to_string(v);
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    separate();
    if (std::isfinite(v)) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.6g", v);
        out += buf;
    } else {
        out += "null";
    }
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separate();
    out += v ? "true" : "false";
    return *this;
}

JsonWriter &
JsonWriter::fixed(double v, int decimals)
{
    separate();
    if (std::isfinite(v)) {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.*f", decimals, v);
        out += buf;
    } else {
        out += "null";
    }
    return *this;
}

JsonWriter &
JsonWriter::null()
{
    separate();
    out += "null";
    return *this;
}

// ---------------------------------------------------------------------
// reports
// ---------------------------------------------------------------------

void
writeOptions(JsonWriter &j, const Options &opts)
{
    j.beginObject();
    for (const auto &[k, v] : opts)
        j.key(k).value(v);
    j.endObject();
}

namespace {

std::string
workloadClass(const std::string &name)
{
    const workloads::SuiteEntry *e = workloads::findWorkload(name);
    return e ? workloads::suiteClassName(e->cls) : "?";
}

/** RFC-4180 quoting for fields that may hold commas/quotes/newlines. */
std::string
csvField(const std::string &s)
{
    if (s.find_first_of(",\"\n\r") == std::string::npos)
        return s;
    std::string out = "\"";
    for (char c : s) {
        if (c == '"')
            out += '"';
        out += c;
    }
    out += '"';
    return out;
}

void
writeU64Array(JsonWriter &j, const std::vector<uint64_t> &values)
{
    j.beginArray();
    for (uint64_t v : values)
        j.value(v);
    j.endArray();
}

/** Emit one family's value under its report key. */
void
writeFamilyValue(JsonWriter &j, const MetricFamily &f, const MetricSet &m)
{
    switch (f.kind) {
      case MetricKind::Counter:
        j.value(m.u64(f.id));
        break;
      case MetricKind::Value:
      case MetricKind::Ratio:
        j.value(m.value(f.id));
        break;
      case MetricKind::Histogram:
        j.beginObject();
        j.key("labels").beginArray();
        for (const auto &label : f.buckets)
            j.value(label);
        j.endArray();
        j.key("counts");
        writeU64Array(j, m.vec(f.id));
        j.endObject();
        break;
      case MetricKind::Vector:
        writeU64Array(j, m.vec(f.id));
        break;
      case MetricKind::Timing:
        break;  // wire/API only; never in the report
    }
}

/**
 * Whether the cell's nested oracle object should appear: the spec
 * asked for region tracking and the cell produced generations (cells
 * swept to a coarser block skip tracking).
 */
bool
hasOracle(const ExperimentSpec &spec, const MetricSet &m)
{
    if (spec.oracleRegionSizes.empty())
        return false;
    for (const auto &f : MetricSchema::builtin().families())
        if (f.section == MetricSection::Oracle && m.present(f.id) &&
            !m.vec(f.id).empty())
            return true;
    return false;
}

} // anonymous namespace

std::vector<GroupResult>
aggregateGroups(const std::vector<CellResult> &results)
{
    std::vector<GroupResult> groups;
    for (const auto &r : results) {
        if (!r.error.empty())
            continue;
        const std::string cls = workloadClass(r.cell.workload);
        GroupResult *row = nullptr;
        for (auto &g : groups) {
            if (g.group == cls &&
                g.engine.displayLabel() ==
                    r.cell.engine.displayLabel() &&
                g.sweepPoint == r.cell.sweepPoint) {
                row = &g;
                break;
            }
        }
        if (!row) {
            groups.emplace_back();
            row = &groups.back();
            row->group = cls;
            row->engine = r.cell.engine;
            row->sweepPoint = r.cell.sweepPoint;
        }
        row->metrics.aggregate(r.metrics);
        ++row->cells;
    }
    return groups;
}

std::string
toJson(const ExperimentSpec &spec, const std::vector<CellResult> &results)
{
    JsonWriter j;
    j.beginObject();
    j.key("engine").value("stems");
    j.key("report_version").value(uint64_t{2});

    j.key("spec").beginObject();
    j.key("mode").value(studyModeName(spec.mode));
    j.key("ncpu").value(uint64_t{spec.params.ncpu});
    j.key("refs_per_cpu").value(spec.params.refsPerCpu);
    j.key("seed").value(spec.params.seed);
    j.key("timing").value(spec.timing);
    j.key("threads").value(uint64_t{spec.threads});
    j.key("workloads").beginArray();
    for (const auto &w : spec.workloads)
        j.value(w);
    j.endArray();
    j.key("prefetchers").beginArray();
    for (const auto &e : spec.engines) {
        j.beginObject();
        j.key("kind").value(e.kind);
        j.key("label").value(e.displayLabel());
        j.key("options");
        writeOptions(j, e.options);
        j.endObject();
    }
    j.endArray();
    j.key("sweeps").beginObject();
    for (const auto &[opt, values] : spec.sweeps) {
        j.key(opt).beginArray();
        for (const auto &v : values)
            j.value(v);
        j.endArray();
    }
    j.endObject();
    j.endObject();  // spec

    const MetricSchema &schema = MetricSchema::builtin();
    j.key("cells").beginArray();
    for (const auto &r : results) {
        const MetricSet &m = r.metrics;
        j.beginObject();
        j.key("id").value(uint64_t{r.cell.id});
        j.key("workload").value(r.cell.workload);
        j.key("class").value(workloadClass(r.cell.workload));
        j.key("prefetcher").value(r.cell.engine.kind);
        j.key("label").value(r.cell.engine.displayLabel());
        j.key("options");
        writeOptions(j, r.cell.engine.options);
        j.key("sweep");
        writeOptions(j, r.cell.sweepPoint);
        if (!r.error.empty()) {
            j.key("error").value(r.error);
            j.endObject();
            continue;
        }
        // the metrics object iterates the schema: core families
        // always appear (historical layout), optional families only
        // when the cell produced them
        j.key("metrics").beginObject();
        for (const auto &f : schema.families()) {
            if (f.section != MetricSection::Metrics)
                continue;
            if (!f.core && !m.present(f.id))
                continue;
            j.key(f.reportKey);
            writeFamilyValue(j, f, m);
        }
        if (hasOracle(spec, m)) {
            j.key("oracle").beginObject();
            j.key("region_sizes").beginArray();
            for (uint32_t s : spec.oracleRegionSizes)
                j.value(uint64_t{s});
            j.endArray();
            for (const auto &f : schema.families()) {
                if (f.section != MetricSection::Oracle)
                    continue;
                j.key(f.reportKey);
                writeFamilyValue(j, f, m);
            }
            j.endObject();
        }
        j.endObject();
        j.key("prefetcher_counters").beginObject();
        for (const auto &[k, v] : m.pfCounters)
            j.key(k).value(v);
        j.endObject();
        if (r.cell.timing) {
            j.key("timing").beginObject();
            for (const auto &f : schema.families()) {
                if (f.section != MetricSection::Timing)
                    continue;
                j.key(f.reportKey);
                writeFamilyValue(j, f, m);
            }
            j.endObject();
        }
        if (spec.emitWall)
            j.key("wall_ms").value(m.wallMs());
        j.endObject();
    }
    j.endArray();
    // opt-in engine-folded aggregate rows; the default layout above
    // is unchanged so existing goldens stay byte-identical
    if (spec.groups) {
        j.key("groups").beginArray();
        for (const auto &g : aggregateGroups(results)) {
            j.beginObject();
            j.key("group").value(g.group);
            j.key("prefetcher").value(g.engine.kind);
            j.key("label").value(g.engine.displayLabel());
            j.key("sweep");
            writeOptions(j, g.sweepPoint);
            j.key("cells").value(g.cells);
            j.key("metrics").beginObject();
            for (const auto &f : schema.families()) {
                if (f.section != MetricSection::Metrics)
                    continue;
                if (!f.core && !g.metrics.present(f.id))
                    continue;
                j.key(f.reportKey);
                writeFamilyValue(j, f, g.metrics);
            }
            j.endObject();
            j.endObject();
        }
        j.endArray();
    }
    j.endObject();
    return j.str() + "\n";
}

std::string
toCsv(const ExperimentSpec &spec, const std::vector<CellResult> &results)
{
    const MetricSchema &schema = MetricSchema::builtin();
    std::ostringstream os;
    os << "id,workload,class,prefetcher,label,options";
    for (const auto &f : schema.families())
        if (f.csv)
            os << ',' << f.name;
    os << ",error\n";
    for (const auto &r : results) {
        const MetricSet &m = r.metrics;
        std::string opts;
        for (const auto &[k, v] : r.cell.engine.options)
            opts += (opts.empty() ? "" : ";") + k + "=" + v;
        os << r.cell.id << ',' << csvField(r.cell.workload) << ','
           << workloadClass(r.cell.workload) << ','
           << csvField(r.cell.engine.kind) << ','
           << csvField(r.cell.engine.displayLabel()) << ','
           << csvField(opts);
        for (const auto &f : schema.families()) {
            if (!f.csv)
                continue;
            os << ',';
            if (f.id == metric::ids().wallMs)
                os << (spec.emitWall ? m.wallMs() : 0.0);
            else if (f.kind == MetricKind::Counter)
                os << m.u64(f.id);
            else
                os << m.value(f.id);
        }
        os << ',' << csvField(r.error) << '\n';
    }
    return os.str();
}

std::string
toTable(const std::vector<CellResult> &results)
{
    using study::TablePrinter;
    TablePrinter table({"App", "Prefetcher", "L1 cov", "L2 cov",
                        "L2 acc", "Off-chip misses", "Speedup",
                        "Status"});
    for (const auto &r : results) {
        const MetricSet &m = r.metrics;
        std::string label = r.cell.engine.displayLabel();
        for (const auto &[k, v] : r.cell.sweepPoint)
            label += " " + k + "=" + v;
        table.addRow(
            {r.cell.workload, label, TablePrinter::pct(m.l1Coverage()),
             TablePrinter::pct(m.l2Coverage()),
             TablePrinter::pct(m.l2Accuracy()),
             std::to_string(m.l2ReadMisses()),
             r.cell.timing && m.speedup() > 0
                 ? TablePrinter::fixed(m.speedup(), 3)
                 : "-",
             r.error.empty() ? "ok" : ("FAILED: " + r.error)});
    }
    std::ostringstream os;
    table.print(os);
    return os.str();
}

std::string
toTable(const ExperimentSpec &spec,
        const std::vector<CellResult> &results)
{
    std::string out = toTable(results);
    if (!spec.groups)
        return out;
    using study::TablePrinter;
    TablePrinter table({"Group", "Prefetcher", "Cells", "L1 cov",
                        "L2 cov", "L2 acc", "Off-chip misses"});
    for (const auto &g : aggregateGroups(results)) {
        std::string label = g.engine.displayLabel();
        for (const auto &[k, v] : g.sweepPoint)
            label += " " + k + "=" + v;
        const MetricSet &m = g.metrics;
        table.addRow({g.group, label, std::to_string(g.cells),
                      TablePrinter::pct(m.l1Coverage()),
                      TablePrinter::pct(m.l2Coverage()),
                      TablePrinter::pct(m.l2Accuracy()),
                      std::to_string(m.l2ReadMisses())});
    }
    std::ostringstream os;
    os << out << '\n';
    table.print(os);
    return os.str();
}

namespace {

/** A PivotColumn resolved against the schema; one per bucket. */
struct PivotCol
{
    const PivotColumn &col;
    const MetricFamily &family;
    size_t bucket;
};

std::vector<PivotCol>
resolveColumns(const std::vector<PivotColumn> &columns)
{
    std::vector<PivotCol> out;
    for (const auto &c : columns) {
        const MetricFamily *f = MetricSchema::builtin().find(c.metric);
        if (!f)
            throw std::invalid_argument("pivot: unknown metric " + c.metric);
        for (size_t b = 0; b < std::max<size_t>(1, f->buckets.size()); ++b)
            out.push_back({c, *f, b});
    }
    return out;
}

/** The column's value in @p m; NaN when there is none. */
double
pivotValue(const PivotCol &c, const MetricSet *m)
{
    if (!m)
        return std::nan("");
    if (c.family.kind == MetricKind::Counter)
        return double(m->u64(c.family.id));
    if (c.family.kind != MetricKind::Histogram)
        return m->value(c.family.id);
    const auto &hist = m->vec(c.family.id);
    uint64_t total = 0;
    for (auto v : hist)
        total += v;
    return total && c.bucket < hist.size() ? double(hist[c.bucket]) / total
                                           : std::nan("");
}

std::string
pivotText(const PivotCol &c, double v)
{
    if (std::isnan(v))
        return "-";
    if (c.family.kind == MetricKind::Counter)
        return std::to_string(uint64_t(v));
    return c.col.digits < 0 ? study::TablePrinter::pct(v)
                            : study::TablePrinter::fixed(v, c.col.digits);
}

} // anonymous namespace

std::string
toPivot(const PivotSpec &pivot, const std::vector<CellResult> &results)
{
    // every source row's coordinates (by PivotDim) and its row key
    using Row = std::vector<std::string>;
    struct Entry
    {
        std::array<std::string, 5> at;
        Row row;
        const MetricSet *m;
    };
    std::vector<Entry> entries;
    auto add = [&](std::string group, std::string workload,
                   const EngineConfig &e, const Options &point,
                   const MetricSet &m) {
        Entry entry{{"", group, workload, e.displayLabel(), ""}, {}, &m};
        std::string &sweep = entry.at[size_t(PivotDim::Sweep)];
        for (const auto &[k, v] : point)
            sweep += (sweep.empty() ? "" : ",") + v;
        for (const auto &[dim, header] : pivot.rows)
            entry.row.push_back(entry.at[size_t(dim)]);
        entries.push_back(std::move(entry));
    };
    const std::vector<GroupResult> folds =
        pivot.groups ? aggregateGroups(results) : std::vector<GroupResult>{};
    for (const auto &g : folds)
        add(g.group, "", g.engine, g.sweepPoint, g.metrics);
    for (const auto &r : results)
        if (!pivot.groups && r.error.empty())
            add(workloadClass(r.cell.workload), r.cell.workload,
                r.cell.engine, r.cell.sweepPoint, r.metrics);

    const std::vector<PivotCol> cols = resolveColumns(pivot.columns);
    Row headers;
    for (const auto &[dim, header] : pivot.rows)
        headers.push_back(header);
    for (const auto &c : cols)
        headers.push_back(c.family.kind == MetricKind::Histogram
                              ? c.family.buckets[c.bucket]
                              : c.col.header);
    study::TablePrinter table(headers);
    std::vector<Row> seen;
    for (const auto &e : entries) {
        if (std::find(seen.begin(), seen.end(), e.row) != seen.end())
            continue;
        seen.push_back(e.row);
        Row row = e.row;
        for (const auto &c : cols) {
            // the first entry on this row whose column coordinate matches
            const auto hit = std::find_if(
                entries.begin(), entries.end(), [&](const Entry &o) {
                    return o.row == e.row &&
                        o.at[size_t(pivot.by)] == c.col.key;
                });
            row.push_back(pivotText(
                c, pivotValue(c, hit == entries.end() ? nullptr : hit->m)));
        }
        table.addRow(row);
    }

    const PivotSummary &sum = pivot.summary;
    Row summary(pivot.rows.size());
    std::string line;
    for (const auto &c : resolveColumns(sum.columns)) {
        std::vector<double> values;
        for (const auto &e : entries)
            if (e.at[size_t(PivotDim::Engine)] == c.col.key &&
                !(sum.commercial &&
                  e.at[size_t(PivotDim::Group)] == "Scientific"))
                values.push_back(pivotValue(c, e.m));
        summary.push_back(pivotText(
            c, values.empty() ? std::nan("")
                : sum.geomean ? study::geomean(values)
                              : study::mean(values)));
        line += (line.empty() ? "\n" + sum.label + ": " : " vs ") +
            c.col.header + " " + summary.back();
    }
    if (!sum.label.empty() && !sum.line) {
        summary[0] = sum.label;
        table.addRow(summary);
    }

    std::ostringstream os;
    if (!pivot.title.empty())
        os << '\n' << pivot.title << '\n';
    table.print(os);
    return os.str() + (sum.line ? line : "");
}

void
writeReport(const std::string &path, const std::string &content)
{
    if (path == "-") {
        std::cout << content;
        return;
    }
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write report to " + path);
    out << content;
}

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

} // namespace stems::driver
