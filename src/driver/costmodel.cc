#include "driver/costmodel.hh"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "dispatch/journal.hh"
#include "dispatch/json.hh"
#include "driver/metrics.hh"
#include "driver/report.hh"

namespace stems::driver {

namespace {

/**
 * Relative per-reference weight of an engine kind: how much the study
 * and timing passes slow down when this prefetcher is attached.
 * Rough — only the resulting *ordering* matters for LPT.
 */
double
kindWeight(const std::string &kind)
{
    if (kind == "none")
        return 1.0;
    if (kind == "next-line")
        return 1.1;
    if (kind == "stride")
        return 1.15;
    if (kind == "ghb")
        return 1.7;
    if (kind == "sms")
        return 2.2;
    return 1.5;  // unknown registrations: assume mid-weight
}

std::string
labelKey(const std::string &workload, const std::string &label)
{
    return workload + "|" + label;
}

} // anonymous namespace

void
CostModel::calibrate(const std::string &text)
{
    size_t first = text.find_first_not_of(" \t\r\n");
    if (first == std::string::npos)
        throw std::invalid_argument(
            "schedule-from: calibration file is empty");

    std::map<std::string, std::pair<double, uint64_t>> sums;
    if (text[first] >= '0' && text[first] <= '9') {
        // a result journal: wall_ms rides each result frame
        dispatch::JournalContents journal;
        try {
            journal = dispatch::readJournal(text);
        } catch (const std::invalid_argument &e) {
            throw std::invalid_argument(
                std::string("schedule-from: ") + e.what());
        }
        for (const auto &[id, r] : journal.results)
            if (r.metrics.present(metric::ids().wallMs) &&
                r.metrics.wallMs() > 0)
                byId_.emplace(id, r.metrics.wallMs());
    } else if (text[first] == '{') {
        // a run report: cells carry id, workload, label, wall_ms
        const dispatch::JsonValue doc = dispatch::parseJson(text);
        const dispatch::JsonValue *cells = doc.find("cells");
        if (!cells)
            throw std::invalid_argument(
                "schedule-from: JSON document has no \"cells\" array "
                "(expected a stems run report)");
        for (const auto &c : cells->items) {
            const dispatch::JsonValue *wall = c.find("wall_ms");
            if (!wall || c.find("error"))
                continue;
            const double ms = wall->asDouble();
            if (ms <= 0)
                continue;  // wall=0 reports carry no signal
            byId_.emplace(
                static_cast<uint32_t>(c.at("id").asU64()), ms);
            auto &[sum, n] =
                sums[labelKey(c.at("workload").asString(),
                              c.at("label").asString())];
            sum += ms;
            ++n;
        }
    } else {
        throw std::invalid_argument(
            "schedule-from: unrecognized calibration file (expected "
            "a stems journal or run report JSON)");
    }
    for (const auto &[key, acc] : sums)
        byLabel_.emplace(key, acc.first / static_cast<double>(acc.second));
}

CostModel
CostModel::fromSpec(const ExperimentSpec &spec)
{
    CostModel model;
    if (spec.scheduleFrom.empty())
        return model;
    std::string text;
    if (!readFile(spec.scheduleFrom, text))
        throw std::invalid_argument("schedule-from: cannot read " +
                                    spec.scheduleFrom);
    model.calibrate(text);
    return model;
}

double
CostModel::estimate(const RunCell &cell) const
{
    const auto byId = byId_.find(cell.id);
    if (byId != byId_.end())
        return byId->second;
    const auto byLabel = byLabel_.find(
        labelKey(cell.workload, cell.engine.displayLabel()));
    if (byLabel != byLabel_.end())
        return byLabel->second;

    // heuristic: work scales with references driven through the
    // hierarchy, per pass, per engine weight
    const double base =
        static_cast<double>(cell.params.refsPerCpu) *
        static_cast<double>(cell.params.ncpu) / 1000.0;
    const double w = kindWeight(cell.engine.kind);
    // one pass per cell: the timing model rides the system study's
    // walk. The L1 shadow study walks one merged trace, not a coherent
    // multiprocessor — substantially cheaper per reference. The 1.0
    // floor keeps zero-ref cells orderable.
    const double mode = cell.mode == StudyMode::L1 ? 0.6 : 1.0;
    return 1.0 + mode * base * w;
}

std::vector<size_t>
scheduleOrder(const ExperimentSpec &spec,
              const std::vector<RunCell> &cells)
{
    std::vector<size_t> order(cells.size());
    std::iota(order.begin(), order.end(), size_t{0});
    if (!spec.scheduleCost)
        return order;
    const CostModel model = CostModel::fromSpec(spec);
    std::vector<double> cost(cells.size());
    for (size_t i = 0; i < cells.size(); ++i)
        cost[i] = model.estimate(cells[i]);
    std::stable_sort(order.begin(), order.end(),
                     [&](size_t a, size_t b) {
                         if (cost[a] != cost[b])
                             return cost[a] > cost[b];
                         return cells[a].id < cells[b].id;
                     });
    return order;
}

} // namespace stems::driver
