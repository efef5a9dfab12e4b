/**
 * @file
 * The study-metrics API: a schema-registered, extensible metric
 * surface replacing the former fixed CellMetrics struct.
 *
 * Metric *families* declare themselves once in the process-wide
 * MetricSchema — name, kind (counter / ratio / histogram / vector /
 * timing / value), aggregation rule, and report placement — exactly
 * the way prefetchers declare themselves in the PrefetcherRegistry.
 * Producers (study::runSystem, study::runL1Study, sim::runTiming, the
 * attach seam's Counters) emit into a MetricSet; consumers (the
 * JSON/CSV/table report sinks, the dispatch wire, group aggregation in
 * the figure pivots) iterate the schema instead of hard-coding
 * fields. Adding a metric is one registration — no serializer edits,
 * no wire-protocol edits, no report edits.
 *
 * Families must be registered at startup (static initialization or
 * before the first Runner/worker spins up); registration is not
 * thread-safe against concurrent MetricSet use.
 */

#ifndef STEMS_DRIVER_METRICS_HH
#define STEMS_DRIVER_METRICS_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "prefetch/attach.hh"
#include "sim/timing.hh"

namespace stems::driver {

class MetricSet;

/** Stable slot of one registered family. */
using MetricId = uint32_t;

/** Value shape of a metric family. */
enum class MetricKind : uint8_t
{
    Counter,    //!< uint64_t event count
    Value,      //!< stored double (uIPC, wall time)
    Ratio,      //!< double derived from the set (never stored)
    Histogram,  //!< fixed buckets of uint64_t with labels
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

/** One registered metric family. */
struct MetricFamily
{
    MetricId id = 0;
    std::string name;       //!< canonical key (wire protocol, schema)
    MetricKind kind = MetricKind::Counter;
    MetricAgg agg = MetricAgg::Sum;
    MetricSection section = MetricSection::Metrics;
    /** JSON key inside the section; defaults to name. */
    std::string reportKey;
    /**
     * Core families are always emitted in the JSON metrics object
     * (zero-valued when the cell never produced them); non-core
     * families appear only when present in the set.
     */
    bool core = false;
    bool csv = false;       //!< column in the CSV summary
    std::vector<std::string> buckets;  //!< histogram bucket labels
    /** Ratio families compute their value from the set on demand. */
    std::function<double(const MetricSet &)> derive;
    std::string help;       //!< one-line description (stems list)
};

/**
 * The process-wide registry of metric families. Iteration order is
 * registration order, which is also JSON/CSV emission order — the
 * built-ins register in the historical report layout so reports stay
 * byte-identical across the API change.
 */
class MetricSchema
{
  public:
    /** The global schema preloaded with the built-in families. */
    static MetricSchema &builtin();

    /** Register a family; returns its slot. Names must be unique. */
    MetricId add(MetricFamily family);

    // convenience registration helpers
    MetricId addCounter(const std::string &name, MetricAgg agg,
                        bool core, bool csv, const std::string &help);
    MetricId addValue(const std::string &name, MetricSection section,
                      bool csv, const std::string &help);
    MetricId addRatio(const std::string &name,
                      std::function<double(const MetricSet &)> derive,
                      bool csv, const std::string &help);
    MetricId addHistogram(const std::string &name,
                          std::vector<std::string> buckets,
                          const std::string &help);
    MetricId addVector(const std::string &name, MetricSection section,
                       const std::string &reportKey,
                       const std::string &help);
    MetricId addTiming(const std::string &name, const std::string &help);

    const MetricFamily &family(MetricId id) const
    {
        return families_[id];
    }

    /** Family named @p name, or nullptr. */
    const MetricFamily *find(const std::string &name) const;

    /** All families, in registration (= emission) order. */
    const std::vector<MetricFamily> &families() const
    {
        return families_;
    }

    size_t size() const { return families_.size(); }

  private:
    std::vector<MetricFamily> families_;
};

namespace metric {

/** Slots of the built-in families, resolved once at startup. */
struct Builtin
{
    MetricId instructions, l1ReadMisses, l2ReadMisses, l1Covered,
        l2Covered, l1Overpred, l2Overpred, falseSharing,
        baselineL1ReadMisses, baselineL2ReadMisses, l1Coverage,
        l2Coverage, l1Uncovered, l2Uncovered, l1OverpredRate,
        l2OverpredRate, l1Accuracy, l2Accuracy, oracleL1Gens,
        oracleL2Gens, l1Density, l2Density, peakAccumOccupancy,
        peakFilterOccupancy, uipc, baselineUipc, speedup, timing,
        baselineTiming, wallMs;
};

const Builtin &ids();

} // namespace metric

/**
 * One cell's measurements: a value per registered family plus the
 * dynamic engine-harvested counters. Cheap to copy relative to cell
 * execution; sized to the schema on first write.
 */
class MetricSet
{
  public:
    // typed access; each checks the family's kind in debug builds

    uint64_t u64(MetricId id) const;
    void setU64(MetricId id, uint64_t v);
    /** Fold @p v into the family under its aggregation rule. */
    void foldU64(MetricId id, uint64_t v);

    double value(MetricId id) const;  //!< Value read / Ratio derive
    void setValue(MetricId id, double v);

    const std::vector<uint64_t> &vec(MetricId id) const;
    void setVec(MetricId id, std::vector<uint64_t> v);

    const sim::TimingResult &timingResult(MetricId id) const;
    void setTimingResult(MetricId id, const sim::TimingResult &t);

    bool present(MetricId id) const
    {
        return id < slots.size() && slots[id].present;
    }

    /**
     * Fold @p other into this set under each family's aggregation
     * rule (ratios recompute from the folded operands — the group
     * aggregation the figure pivots report).
     */
    void aggregate(const MetricSet &other);

    /** Dynamic engine counters (registry harvest order). */
    prefetch::Counters pfCounters;

    // named accessors over the built-in families — sugar for C++
    // call sites; storage and serialization stay schema-driven

    uint64_t instructions() const { return u64(metric::ids().instructions); }
    uint64_t l1ReadMisses() const { return u64(metric::ids().l1ReadMisses); }
    uint64_t l2ReadMisses() const { return u64(metric::ids().l2ReadMisses); }
    uint64_t l1Covered() const { return u64(metric::ids().l1Covered); }
    uint64_t l2Covered() const { return u64(metric::ids().l2Covered); }
    uint64_t l1Overpred() const { return u64(metric::ids().l1Overpred); }
    uint64_t l2Overpred() const { return u64(metric::ids().l2Overpred); }
    uint64_t falseSharing() const { return u64(metric::ids().falseSharing); }

    uint64_t
    baselineL1ReadMisses() const
    {
        return u64(metric::ids().baselineL1ReadMisses);
    }

    uint64_t
    baselineL2ReadMisses() const
    {
        return u64(metric::ids().baselineL2ReadMisses);
    }

    double l1Coverage() const { return value(metric::ids().l1Coverage); }
    double l2Coverage() const { return value(metric::ids().l2Coverage); }
    double l1Uncovered() const { return value(metric::ids().l1Uncovered); }
    double l2Uncovered() const { return value(metric::ids().l2Uncovered); }

    double
    l1OverpredRate() const
    {
        return value(metric::ids().l1OverpredRate);
    }

    double
    l2OverpredRate() const
    {
        return value(metric::ids().l2OverpredRate);
    }

    double l1Accuracy() const { return value(metric::ids().l1Accuracy); }
    double l2Accuracy() const { return value(metric::ids().l2Accuracy); }

    const std::vector<uint64_t> &
    oracleL1Gens() const
    {
        return vec(metric::ids().oracleL1Gens);
    }

    const std::vector<uint64_t> &
    oracleL2Gens() const
    {
        return vec(metric::ids().oracleL2Gens);
    }

    const std::vector<uint64_t> &
    l1Density() const
    {
        return vec(metric::ids().l1Density);
    }

    const std::vector<uint64_t> &
    l2Density() const
    {
        return vec(metric::ids().l2Density);
    }

    uint64_t
    peakAccumOccupancy() const
    {
        return u64(metric::ids().peakAccumOccupancy);
    }

    uint64_t
    peakFilterOccupancy() const
    {
        return u64(metric::ids().peakFilterOccupancy);
    }

    double uipc() const { return value(metric::ids().uipc); }
    double baselineUipc() const { return value(metric::ids().baselineUipc); }
    double speedup() const { return value(metric::ids().speedup); }

    const sim::TimingResult &
    timing() const
    {
        return timingResult(metric::ids().timing);
    }

    const sim::TimingResult &
    baselineTiming() const
    {
        return timingResult(metric::ids().baselineTiming);
    }

    double wallMs() const { return value(metric::ids().wallMs); }
    void setWallMs(double ms) { setValue(metric::ids().wallMs, ms); }

  private:
    struct Slot
    {
        uint64_t u = 0;
        double d = 0;
        std::vector<uint64_t> v;
        sim::TimingResult t;
        bool present = false;
    };

    Slot &slot(MetricId id);
    const Slot &slotOrEmpty(MetricId id) const;

    std::vector<Slot> slots;
};

} // namespace stems::driver

#endif // STEMS_DRIVER_METRICS_HH
