/**
 * @file
 * The study-metrics API: one static table of metric families.
 *
 * A family is declared in two places, tied together at compile time:
 * its Metric enumerator and its row in the table (metrics.cc) — name,
 * kind (counter / ratio / histogram / vector / timing / value),
 * aggregation rule and report placement. Producers
 * (study::runSystem, study::runL1Study, sim::runTiming, the attach
 * seam's Counters) emit into a MetricSet; consumers (the JSON/CSV/
 * table report sinks, the dispatch wire, group aggregation in the
 * figure pivots) walk metricFamilies() instead of hard-coding fields.
 * Adding a metric is one enumerator, one row and one emit — no
 * serializer, wire-protocol or report edits.
 */

#ifndef STEMS_DRIVER_METRICS_HH
#define STEMS_DRIVER_METRICS_HH

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "prefetch/attach.hh"
#include "sim/timing.hh"

namespace stems::driver {

class MetricSet;

/**
 * Every metric family, in table order, which is also the JSON/CSV
 * emission order (the historical report layout).
 */
enum class Metric : uint8_t
{
    instructions, l1ReadMisses, l2ReadMisses, l1Covered, l2Covered,
    l1Overpred, l2Overpred, falseSharing, baselineL1ReadMisses,
    baselineL2ReadMisses, l1Coverage, l2Coverage, l1Uncovered,
    l2Uncovered, l1OverpredRate, l2OverpredRate, l1Accuracy, l2Accuracy,
    oracleL1Gens, oracleL2Gens, l1Density, l2Density, peakAccumOccupancy,
    peakFilterOccupancy, uipc, baselineUipc, speedup, timing,
    baselineTiming, wallMs,  // keep last: kMetricCount counts to it
};

inline constexpr size_t kMetricCount = size_t(Metric::wallMs) + 1;

/** Value shape of a metric family. */
enum class MetricKind : uint8_t
{
    Counter,    //!< uint64_t event count
    Value,      //!< stored double (uIPC, wall time)
    Ratio,      //!< double derived from the set (never stored)
    Histogram,  //!< the density buckets' uint64_t counts
    Vector,     //!< runtime-length uint64_t array
    Timing,     //!< one sim::TimingResult pass
};

/** Display name of a metric kind (stems list, docs). */
const char *metricKindName(MetricKind kind);

/** How aggregate() folds two sets' values for a family. */
enum class MetricAgg : uint8_t
{
    Sum,    //!< add (element-wise for histogram/vector)
    Max,    //!< keep the larger (peak occupancies)
    First,  //!< keep the first present value
};

/** Where the JSON report places a family. */
enum class MetricSection : uint8_t
{
    Metrics,  //!< the cell's "metrics" object
    Oracle,   //!< the nested "oracle" object (region-size studies)
    Timing,   //!< the "timing" object (emitted when the cell timed)
    Hidden,   //!< wire/API only; never in the JSON report
};

/** One row of the metric table. */
struct MetricFamily
{
    Metric id;
    const char *name;       //!< canonical key (wire protocol, stems list)
    MetricKind kind = MetricKind::Counter;
    MetricAgg agg = MetricAgg::Sum;
    MetricSection section = MetricSection::Metrics;
    const char *reportKey = name;  //!< JSON key inside the section
    /**
     * Core families are always emitted in the JSON metrics object
     * (zero-valued when the cell never produced them); non-core
     * families appear only when present in the set.
     */
    bool core = false;
    bool csv = false;       //!< column in the CSV summary
    const char *help = "";  //!< one-line description (stems list)
    /** A ratio's value, computed from the set on demand. */
    double (*derive)(const MetricSet &) = nullptr;
};

/** Every family, in Metric (= emission) order. */
std::span<const MetricFamily> metricFamilies();

/** The row of @p id. */
const MetricFamily &metricFamily(Metric id);

/** The family named @p name, or nullptr. */
const MetricFamily *findMetric(std::string_view name);

/** A histogram family's bucket labels (Figure 5's); none otherwise. */
std::vector<std::string> bucketLabels(const MetricFamily &f);

/**
 * One cell's measurements: a slot per metric family plus the dynamic
 * engine-harvested counters.
 */
class MetricSet
{
  public:
    uint64_t u64(Metric id) const { return at(id).u; }
    void setU64(Metric id, uint64_t v) { fill(id).u = v; }

    double value(Metric id) const;  //!< Value read / Ratio derive
    void setValue(Metric id, double v) { fill(id).d = v; }

    const std::vector<uint64_t> &vec(Metric id) const { return at(id).v; }
    void setVec(Metric id, std::vector<uint64_t> v)
    {
        fill(id).v = std::move(v);
    }

    const sim::TimingResult &
    timingResult(Metric id) const
    {
        return at(id).t;
    }

    void
    setTimingResult(Metric id, const sim::TimingResult &t)
    {
        fill(id).t = t;
    }

    bool present(Metric id) const { return at(id).present; }

    /**
     * Fold @p other into this set under each family's aggregation
     * rule (ratios recompute from the folded operands — the group
     * aggregation the figure pivots report).
     */
    void aggregate(const MetricSet &other);

    /** Dynamic engine counters (registry harvest order). */
    prefetch::Counters pfCounters;

  private:
    struct Slot
    {
        uint64_t u = 0;
        double d = 0;
        std::vector<uint64_t> v;
        sim::TimingResult t;
        bool present = false;
    };

    const Slot &at(Metric id) const { return slots[size_t(id)]; }

    Slot &
    fill(Metric id)
    {
        Slot &s = slots[size_t(id)];
        s.present = true;
        return s;
    }

    std::array<Slot, kMetricCount> slots;
};

} // namespace stems::driver

#endif // STEMS_DRIVER_METRICS_HH
