#include "driver/scheduler.hh"

#include <algorithm>
#include <numeric>

#include "obs/counters.hh"
#include "obs/obs.hh"
#include "obs/sampler.hh"

namespace stems::driver {

namespace {

/** The duplication rule's floor on a straggler's run time. */
constexpr double kDuplicateFloorMs = 2000;

/** Completed round trips needed before the median means anything. */
constexpr size_t kDuplicateMinSamples = 3;

/**
 * Relative per-reference weight of an engine kind: how much a pass
 * slows down when this prefetcher is attached. Rough; only the
 * resulting order matters.
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

} // anonymous namespace

double
estimatedCost(const RunCell &cell)
{
    // work scales with the references driven through one pass (the
    // timing model rides the system study's walk). The shadow-L1
    // study walks one merged trace, not a coherent multiprocessor, so
    // it is cheaper per reference. The 1.0 floor keeps zero-ref cells
    // orderable.
    const double refs = static_cast<double>(cell.params.refsPerCpu) *
        static_cast<double>(cell.params.ncpu) / 1000.0;
    const double mode = cell.mode == StudyMode::L1 ? 0.6 : 1.0;
    return 1.0 + mode * refs * kindWeight(cell.engine.kind);
}

CellScheduler::CellScheduler(const ExperimentSpec &spec)
    : cells_(selectedCells(spec)), cost_(cells_.size()),
      state_(cells_.size()), results_(cells_.size()),
      toReport_(cells_.size())
{
    // heaviest first, ties by id: a workload's engine cells spread
    // across the lanes instead of queueing on its one baseline pass
    for (size_t i = 0; i < cells_.size(); ++i)
        cost_[i] = estimatedCost(cells_[i]);
    pending_.resize(cells_.size());
    std::iota(pending_.begin(), pending_.end(), size_t{0});
    std::sort(pending_.begin(), pending_.end(), [&](size_t a, size_t b) {
        if (cost_[a] != cost_[b])
            return cost_[a] > cost_[b];
        return cells_[a].id < cells_[b].id;
    });
    obs::gaugeAdd(&obs::Gauges::cellsPending,
                  static_cast<int64_t>(pending_.size()));
}

CellScheduler::~CellScheduler()
{
    // a stopped service abandons cells; hand their gauge share back
    int64_t running = 0;
    for (const Cell &c : state_)
        running += c.running;
    obs::gaugeAdd(&obs::Gauges::cellsPending,
                  -static_cast<int64_t>(pending_.size()));
    obs::gaugeAdd(&obs::Gauges::workersBusy, -running);
}

size_t
CellScheduler::seed(const std::map<uint32_t, CellResult> &replayed)
{
    size_t seeded = 0;
    {
        std::lock_guard<std::mutex> lk(mu_);
        for (size_t i = 0; i < cells_.size(); ++i) {
            const auto it = replayed.find(cells_[i].id);
            if (it == replayed.end() || state_[i].done)
                continue;
            CellResult &r = results_[i];
            r.cell = cells_[i];
            r.metrics = it->second.metrics;
            r.telemetry = it->second.telemetry;
            state_[i].done = true;
            ++settled_;
            ++seeded;
        }
        std::erase_if(pending_,
                      [this](size_t i) { return state_[i].done; });
    }
    obs::gaugeAdd(&obs::Gauges::cellsPending,
                  -static_cast<int64_t>(seeded));
    std::lock_guard<std::mutex> hk(hookMu_);
    toReport_ -= seeded;
    return seeded;
}

void
CellScheduler::onComplete(ProgressFn hook)
{
    std::lock_guard<std::mutex> hk(hookMu_);
    hook_ = std::move(hook);
}

std::optional<size_t>
CellScheduler::claim(const Preference &prefers)
{
    size_t i;
    {
        std::lock_guard<std::mutex> lk(mu_);
        if (pending_.empty())
            return std::nullopt;
        // a pending cell with an attempt was re-queued by lost() and
        // sits in front of the cost order; the rest stay sorted by
        // cost, so the front's ties are a contiguous run
        auto pick = pending_.begin();
        if (prefers && state_[*pick].attempts == 0) {
            const double front = cost_[*pick];
            for (auto it = pick;
                 it != pending_.end() && cost_[*it] == front; ++it)
                if (prefers(cells_[*it])) {
                    pick = it;
                    break;
                }
        }
        i = *pick;
        pending_.erase(pick);
        Cell &c = state_[i];
        ++c.attempts;
        ++c.running;
        c.claimedNs = obs::monotonicNs();
    }
    obs::gaugeAdd(&obs::Gauges::cellsPending, -1);
    obs::gaugeAdd(&obs::Gauges::workersBusy, 1);
    return i;
}

void
CellScheduler::placeLocked(size_t i, CellResult result)
{
    state_[i].done = true;
    result.cell = cells_[i];
    results_[i] = std::move(result);
    obs::gaugeAdd(&obs::Gauges::cellsDone, 1);
}

void
CellScheduler::publish(size_t i)
{
    {
        // results_[i] is never written again once done, so the hook
        // reads it outside mu_
        std::lock_guard<std::mutex> hk(hookMu_);
        ++reported_;
        if (hook_)
            hook_(results_[i], reported_, toReport_);
    }
    std::lock_guard<std::mutex> lk(mu_);
    ++settled_;
}

bool
CellScheduler::complete(size_t i, CellResult result)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        Cell &c = state_[i];
        if (c.running > 0) {
            --c.running;
            obs::gaugeAdd(&obs::Gauges::workersBusy, -1);
        }
        if (c.done)
            return false;  // a duplicate copy already delivered
        roundTripMs_.push_back(
            static_cast<double>(obs::monotonicNs() - c.claimedNs) /
            1e6);
        placeLocked(i, std::move(result));
    }
    publish(i);
    return true;
}

void
CellScheduler::lost(size_t i, const std::string &reason,
                    uint32_t maxAttempts)
{
    {
        std::lock_guard<std::mutex> lk(mu_);
        Cell &c = state_[i];
        if (c.running > 0) {
            --c.running;
            obs::gaugeAdd(&obs::Gauges::workersBusy, -1);
        }
        if (c.done || c.running > 0)
            return;  // another copy delivered or is still running
        if (c.attempts < std::max<uint32_t>(maxAttempts, 1)) {
            pending_.push_front(i);
            obs::gaugeAdd(&obs::Gauges::cellsPending, 1);
            obs::count(&obs::Counters::cellsRequeued);
            obs::instant("cell_requeued",
                         {{"cell", std::to_string(cells_[i].id)}});
            return;
        }
        CellResult failed;
        failed.error = reason + " after " + std::to_string(c.attempts) +
            " attempt(s)";
        placeLocked(i, std::move(failed));
    }
    publish(i);
}

std::optional<size_t>
CellScheduler::duplicate()
{
    std::lock_guard<std::mutex> lk(mu_);
    if (!pending_.empty() ||
        roundTripMs_.size() < kDuplicateMinSamples)
        return std::nullopt;
    std::vector<double> rtts = roundTripMs_;
    std::nth_element(rtts.begin(), rtts.begin() + rtts.size() / 2,
                     rtts.end());
    double worstMs =
        std::max(3.0 * rtts[rtts.size() / 2], kDuplicateFloorMs);
    const uint64_t now = obs::monotonicNs();
    std::optional<size_t> straggler;
    for (size_t i = 0; i < state_.size(); ++i) {
        const Cell &c = state_[i];
        if (c.done || c.duplicated || c.running == 0)
            continue;
        const double elapsedMs =
            static_cast<double>(now - c.claimedNs) / 1e6;
        if (elapsedMs > worstMs) {
            worstMs = elapsedMs;
            straggler = i;
        }
    }
    if (!straggler)
        return std::nullopt;
    Cell &c = state_[*straggler];
    c.duplicated = true;
    ++c.attempts;
    ++c.running;
    obs::gaugeAdd(&obs::Gauges::workersBusy, 1);
    obs::count(&obs::Counters::cellsStolen);
    obs::instant("speculative_redispatch",
                 {{"cell", std::to_string(cells_[*straggler].id)}});
    return straggler;
}

size_t
CellScheduler::pending() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return pending_.size();
}

bool
CellScheduler::done(size_t i) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return state_[i].done;
}

uint32_t
CellScheduler::attempts(size_t i) const
{
    std::lock_guard<std::mutex> lk(mu_);
    return state_[i].attempts;
}

bool
CellScheduler::finished() const
{
    std::lock_guard<std::mutex> lk(mu_);
    return settled_ == cells_.size();
}

std::vector<CellResult>
CellScheduler::takeResults()
{
    std::lock_guard<std::mutex> lk(mu_);
    return std::move(results_);
}

} // namespace stems::driver
