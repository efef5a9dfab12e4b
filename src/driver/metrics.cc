#include "driver/metrics.hh"

#include <algorithm>

#include "study/density.hh"

namespace stems::driver {

const char *
metricKindName(MetricKind kind)
{
    switch (kind) {
      case MetricKind::Counter: return "counter";
      case MetricKind::Value: return "value";
      case MetricKind::Ratio: return "ratio";
      case MetricKind::Histogram: return "histogram";
      case MetricKind::Vector: return "vector";
      case MetricKind::Timing: return "timing";
    }
    return "?";
}

namespace {

/** @p num over @p den; 0 when the denominator is. */
double
ratioOf(const MetricSet &m, Metric num, Metric den)
{
    const uint64_t d = m.u64(den);
    return d ? double(m.u64(num)) / double(d) : 0.0;
}

/** Useful prefetches over all issued: @p covered / (+ @p overpred). */
double
accuracyOf(const MetricSet &m, Metric covered, Metric overpred)
{
    const uint64_t den = m.u64(covered) + m.u64(overpred);
    return den ? double(m.u64(covered)) / double(den) : 0.0;
}

using enum Metric;
using enum MetricKind;
using enum MetricAgg;

// row order is the historical JSON metrics-object layout, so reports
// stay byte-identical. Ratio rows derive through captureless lambdas:
// under -fsanitize=null GCC cannot compare a function template's
// address with nullptr in a constant expression (the static_assert).
constexpr MetricFamily kFamilies[] = {
    {.id = instructions, .name = "instructions", .core = true,
     .csv = true, .help = "instructions retired over the trace"},
    {.id = l1ReadMisses, .name = "l1_read_misses", .core = true,
     .csv = true, .help = "demand read misses at L1"},
    {.id = l2ReadMisses, .name = "l2_read_misses", .core = true,
     .csv = true, .help = "off-chip demand read misses"},
    {.id = l1Covered, .name = "l1_covered", .core = true, .csv = true,
     .help = "reads hitting prefetched L1 blocks"},
    {.id = l2Covered, .name = "l2_covered", .core = true, .csv = true,
     .help = "first uses of L2-prefetched blocks"},
    {.id = l1Overpred, .name = "l1_overpredictions", .core = true,
     .csv = true, .help = "prefetched L1 blocks dropped unused"},
    {.id = l2Overpred, .name = "l2_overpredictions", .core = true,
     .csv = true, .help = "prefetched L2 blocks dropped unused"},
    {.id = falseSharing, .name = "false_sharing", .core = true,
     .help = "false-sharing L2 misses (system mode)"},
    {.id = baselineL1ReadMisses, .name = "baseline_l1_read_misses",
     .core = true, .csv = true, .help = "same workload, no prefetch (L1)"},
    {.id = baselineL2ReadMisses, .name = "baseline_l2_read_misses",
     .core = true, .csv = true,
     .help = "same workload, no prefetch (off-chip)"},

    {.id = l1Coverage, .name = "l1_coverage", .kind = Ratio, .agg = First,
     .core = true, .csv = true,
     .help = "fraction of baseline L1 misses eliminated",
     .derive = [](const MetricSet &m) {
         return ratioOf(m, l1Covered, baselineL1ReadMisses);
     }},
    {.id = l2Coverage, .name = "l2_coverage", .kind = Ratio, .agg = First,
     .core = true, .csv = true,
     .help = "fraction of baseline off-chip misses eliminated",
     .derive = [](const MetricSet &m) {
         return ratioOf(m, l2Covered, baselineL2ReadMisses);
     }},
    {.id = l1Uncovered, .name = "l1_uncovered", .kind = Ratio,
     .agg = First, .core = true,
     .help = "remaining L1 misses vs baseline",
     .derive = [](const MetricSet &m) {
         return ratioOf(m, l1ReadMisses, baselineL1ReadMisses);
     }},
    {.id = l2Uncovered, .name = "l2_uncovered", .kind = Ratio,
     .agg = First, .core = true,
     .help = "remaining off-chip misses vs baseline",
     .derive = [](const MetricSet &m) {
         return ratioOf(m, l2ReadMisses, baselineL2ReadMisses);
     }},
    {.id = l1OverpredRate, .name = "l1_overprediction_rate",
     .kind = Ratio, .agg = First, .core = true,
     .help = "unused L1 prefetches vs baseline misses",
     .derive = [](const MetricSet &m) {
         return ratioOf(m, l1Overpred, baselineL1ReadMisses);
     }},
    {.id = l2OverpredRate, .name = "l2_overprediction_rate",
     .kind = Ratio, .agg = First, .core = true,
     .help = "unused L2 prefetches vs baseline misses",
     .derive = [](const MetricSet &m) {
         return ratioOf(m, l2Overpred, baselineL2ReadMisses);
     }},
    {.id = l1Accuracy, .name = "l1_accuracy", .kind = Ratio, .agg = First,
     .core = true, .csv = true,
     .help = "useful L1 prefetches over all issued",
     .derive = [](const MetricSet &m) {
         return accuracyOf(m, l1Covered, l1Overpred);
     }},
    {.id = l2Accuracy, .name = "l2_accuracy", .kind = Ratio, .agg = First,
     .core = true, .csv = true,
     .help = "useful L2 prefetches over all issued",
     .derive = [](const MetricSet &m) {
         return accuracyOf(m, l2Covered, l2Overpred);
     }},

    {.id = oracleL1Gens, .name = "oracle_l1_generations", .kind = Vector,
     .section = MetricSection::Oracle, .reportKey = "l1_generations",
     .help = "oracle spatial generations per region size (L1)"},
    {.id = oracleL2Gens, .name = "oracle_l2_generations", .kind = Vector,
     .section = MetricSection::Oracle, .reportKey = "l2_generations",
     .help = "oracle spatial generations per region size (off-chip)"},
    {.id = l1Density, .name = "l1_density", .kind = Histogram,
     .help = "L1 misses per generation-density bucket (density= runs)"},
    {.id = l2Density, .name = "l2_density", .kind = Histogram,
     .help = "off-chip misses per generation-density bucket "
             "(density= runs)"},
    {.id = peakAccumOccupancy, .name = "peak_accum_occupancy", .agg = Max,
     .section = MetricSection::Hidden,
     .help = "peak AGT accumulation-table demand (L1 mode)"},
    {.id = peakFilterOccupancy, .name = "peak_filter_occupancy",
     .agg = Max, .section = MetricSection::Hidden,
     .help = "peak AGT filter-table demand (L1 mode)"},

    {.id = uipc, .name = "uipc", .kind = Value, .agg = First,
     .section = MetricSection::Timing, .csv = true,
     .help = "user IPC under the timing model"},
    {.id = baselineUipc, .name = "baseline_uipc", .kind = Value,
     .agg = First, .section = MetricSection::Timing, .csv = true,
     .help = "no-prefetch user IPC"},
    {.id = speedup, .name = "speedup", .kind = Value, .agg = First,
     .section = MetricSection::Timing, .csv = true,
     .help = "uipc over baseline_uipc"},
    {.id = timing, .name = "timing_result", .kind = Timing,
     .agg = First, .section = MetricSection::Hidden,
     .help = "this cell's full timing pass"},
    {.id = baselineTiming, .name = "baseline_timing_result",
     .kind = Timing, .agg = First,
     .section = MetricSection::Hidden, .help = "the no-prefetch timing pass"},
    {.id = wallMs, .name = "wall_ms", .kind = Value, .agg = First,
     .section = MetricSection::Hidden, .csv = true,
     .help = "cell execution wall time"},
};

constexpr bool
rowsMatchEnumerators()
{
    size_t i = 0;
    for (const MetricFamily &f : kFamilies)
        if (size_t(f.id) != i++ ||
            (f.kind == Ratio) != (f.derive != nullptr))
            return false;
    return i == kMetricCount;
}

static_assert(rowsMatchEnumerators(),
              "kFamilies row i must declare Metric i, one row per "
              "enumerator, and exactly the ratio rows derive");

} // anonymous namespace

std::span<const MetricFamily>
metricFamilies()
{
    return kFamilies;
}

const MetricFamily &
metricFamily(Metric id)
{
    return kFamilies[size_t(id)];
}

const MetricFamily *
findMetric(std::string_view name)
{
    for (const MetricFamily &f : kFamilies)
        if (name == f.name)
            return &f;
    return nullptr;
}

std::vector<std::string>
bucketLabels(const MetricFamily &f)
{
    std::vector<std::string> out;
    for (size_t b = 0; f.kind == Histogram && b < study::kDensityBuckets;
         ++b)
        out.push_back(study::densityBucketName(b));
    return out;
}

double
MetricSet::value(Metric id) const
{
    const MetricFamily &f = metricFamily(id);
    return f.derive ? f.derive(*this) : at(id).d;
}

void
MetricSet::aggregate(const MetricSet &other)
{
    for (const MetricFamily &f : kFamilies) {
        const Slot &rhs = other.at(f.id);
        if (!rhs.present)
            continue;
        Slot &lhs = slots[size_t(f.id)];
        const bool had = lhs.present;
        switch (f.kind) {
          case Counter:
            if (!had || f.agg == Sum)
                lhs.u += rhs.u;
            else if (f.agg == Max)
                lhs.u = std::max(lhs.u, rhs.u);
            break;
          case Value:
            if (!had || f.agg != First)
                lhs.d = rhs.d;
            break;
          case Ratio:
            continue;  // derived from the folded operands
          case Histogram:
          case Vector:
            if (f.agg != Sum ||
                (had && !lhs.v.empty() && lhs.v.size() != rhs.v.size())) {
                if (!had)
                    lhs.v = rhs.v;
                break;
            }
            if (lhs.v.empty())
                lhs.v.resize(rhs.v.size(), 0);
            for (size_t i = 0; i < rhs.v.size(); ++i)
                lhs.v[i] += rhs.v[i];
            break;
          case Timing:
            if (!had)
                lhs.t = rhs.t;
            break;
        }
        lhs.present = true;
    }
    // dynamic engine counters fold by name, first-seen order
    for (const auto &[name, count] : other.pfCounters) {
        bool found = false;
        for (auto &[n, c] : pfCounters) {
            if (n == name) {
                c += count;
                found = true;
                break;
            }
        }
        if (!found)
            pfCounters.emplace_back(name, count);
    }
}

} // namespace stems::driver
