/**
 * @file
 * Structured report emission for the experiment engine: JSON (for CI
 * regression diffing) and CSV (for spreadsheets/plots), plus a small
 * dependency-free JSON writer.
 */

#ifndef STEMS_DRIVER_REPORT_HH
#define STEMS_DRIVER_REPORT_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/runner.hh"
#include "driver/spec.hh"

namespace stems::driver {

/** Minimal append-only JSON writer (objects, arrays, scalars). */
class JsonWriter
{
  public:
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    JsonWriter &key(const std::string &k);
    JsonWriter &value(const std::string &v);
    JsonWriter &value(const char *v);
    JsonWriter &value(uint64_t v);
    JsonWriter &value(double v);
    JsonWriter &value(bool v);
    /** @p v with exactly @p decimals digits after the point. */
    JsonWriter &fixed(double v, int decimals);
    JsonWriter &null();

    const std::string &str() const { return out; }

    static std::string escape(const std::string &s);

  private:
    void separate();

    std::string out;
    std::vector<bool> needComma;  //!< per open scope
    bool pendingKey = false;
};

/**
 * One engine-folded aggregate row: every successful cell of a suite
 * group (OLTP/DSS/Web/Scientific) sharing an engine label and sweep
 * point, folded with MetricSet::aggregate() in result order.
 */
struct GroupResult
{
    std::string group;      //!< suite class name
    EngineConfig engine;    //!< first folded cell's engine
    Options sweepPoint;     //!< shared sweep assignment
    MetricSet metrics;      //!< aggregate (ratios derive on read)
    uint64_t cells = 0;     //!< cells folded in
};

/**
 * Fold @p results into per-group aggregate rows, keyed by (workload
 * class, engine display label, sweep point) in first-appearance
 * order. Since results are workload-major in suite order, the fold
 * order per row matches iterating study::workloadsInGroup(). Error
 * cells are skipped.
 */
std::vector<GroupResult>
aggregateGroups(const std::vector<CellResult> &results);

/** A cell's (or group fold's) coordinate that keys a pivot. */
enum class PivotDim { None, Group, Workload, Engine, Sweep };

/**
 * A metric family read from the entry whose PivotSpec::by coordinate
 * is @c key: counters print as integers, a histogram as one share-of-
 * total column per bucket, the rest as a percentage or with @c digits
 * decimals; no value prints "-".
 */
struct PivotColumn
{
    std::string header, key;
    Metric metric;
    int digits = -1;  //!< -1 = percentage
};

/**
 * Each column's mean (or geomean) over the entries whose engine label
 * is its @c key: a table row named @c label, or with @c line a
 * sentence after the table ("label: HEADER v vs HEADER v").
 */
struct PivotSummary
{
    std::string label;  //!< "" = none
    std::vector<PivotColumn> columns;
    bool geomean = false, commercial = false, line = false;
};

/**
 * Cells (or aggregateGroups() folds) pivoted: one row per distinct
 * @c rows coordinate tuple, in first-appearance order.
 */
struct PivotSpec
{
    std::string title{};  //!< heading line above the table ("" = none)
    bool groups = false;
    std::vector<std::pair<PivotDim, std::string>> rows;  //!< and header
    PivotDim by = PivotDim::None;
    std::vector<PivotColumn> columns;
    PivotSummary summary{};
};

/** Render @p results through @p pivot; error cells are skipped. */
std::string toPivot(const PivotSpec &pivot,
                    const std::vector<CellResult> &results);

/** Full experiment report as a JSON document. */
std::string toJson(const ExperimentSpec &spec,
                   const std::vector<CellResult> &results);

/**
 * Flat per-cell CSV with a header row. Honours spec.emitWall the way
 * toJson does (wall=0 writes 0 in the wall_ms column so split runs
 * stay byte-comparable).
 */
std::string toCsv(const ExperimentSpec &spec,
                  const std::vector<CellResult> &results);

/** Human-readable summary table. */
std::string toTable(const std::vector<CellResult> &results);

/**
 * toTable() plus, when spec.groups is set, engine-folded per-group
 * aggregate rows appended after the cell rows. With spec.groups off
 * the output is byte-identical to toTable(results).
 */
std::string toTable(const ExperimentSpec &spec,
                    const std::vector<CellResult> &results);

/** An option bag as one JSON object (reports and the wire alike). */
void writeOptions(JsonWriter &j, const Options &opts);

/** Write @p content to @p path, or to stdout when path is "-". */
void writeReport(const std::string &path, const std::string &content);

/** Read all of @p path into @p out; false when it cannot be opened. */
bool readFile(const std::string &path, std::string &out);

} // namespace stems::driver

#endif // STEMS_DRIVER_REPORT_HH
