#include "driver/runner.hh"

#include <algorithm>
#include <optional>

#include "fault/fault.hh"
#include "obs/counters.hh"
#include "obs/obs.hh"

namespace stems::driver {

Runner::Runner(uint32_t lanes, std::string laneName,
               std::string warmerName)
{
    if (lanes == 0)
        lanes = std::max(std::thread::hardware_concurrency(), 1u);
    for (uint32_t k = 0; k < lanes; ++k)
        threads.emplace_back(
            [this, name = laneName + "-" + std::to_string(k)] {
                obs::setThreadName(name);
                loop(true);
            });
    // the warmer prepares (generates, or maps a spill of) traces
    // while the lanes simulate. It only warms the TraceCache
    // (CellExecutor::prefetch never counts a lookup and never fails a
    // cell), so reports are byte-identical either way
    threads.emplace_back([this, name = std::move(warmerName)] {
        obs::setThreadName(name);
        loop(false);
    });
}

void
Runner::attach(CellScheduler &sched, CellExecutor &exec,
               std::string request)
{
    std::lock_guard<std::mutex> lk(mu);
    attached.push_back({&sched, &exec, std::move(request),
                        std::chrono::steady_clock::now()});
    cv.notify_all();
}

bool
Runner::wait(CellScheduler &sched)
{
    std::unique_lock<std::mutex> lk(mu);
    const auto at = std::find_if(
        attached.begin(), attached.end(),
        [&](const Attachment &a) { return a.sched == &sched; });
    cv.wait(lk, [&] {
        return (stopping || sched.finished()) && at->users == 0;
    });
    attached.erase(at);
    return sched.finished();
}

void
Runner::stop()
{
    {
        std::lock_guard<std::mutex> lk(mu);
        stopping = true;
    }
    cv.notify_all();
    for (auto &t : threads)
        t.join();
    threads.clear();
}

void
Runner::loop(bool lane)
{
    std::unique_lock<std::mutex> lk(mu);
    for (;;) {
        // a lane claims from, and the warmer prepares for, the
        // earliest attachment that has a cell for it
        Attachment *at = nullptr;
        std::optional<size_t> i;
        cv.wait(lk, [&] {
            if (stopping)
                return true;
            for (Attachment &a : attached)
                if ((i = lane ? a.sched->claim() : nextToWarm(a))) {
                    at = &a;
                    return true;
                }
            return false;
        });
        if (stopping)
            return;
        ++at->users;
        lk.unlock();
        if (lane)
            execute(*at, *i);
        else
            at->exec->prefetch(at->sched->cells()[*i]);
        lk.lock();
        --at->users;
        cv.notify_all();
    }
}

std::optional<size_t>
Runner::nextToWarm(Attachment &a)
{
    // the cursor only moves forward: a cell passed over is done or its
    // trace is built, and a cell handed out is being built
    const std::vector<RunCell> &cells = a.sched->cells();
    while (a.warmNext < cells.size()) {
        const size_t i = a.warmNext++;
        if (!a.sched->done(i) && !a.exec->prepared(cells[i]))
            return i;
    }
    return std::nullopt;
}

void
Runner::execute(const Attachment &at, size_t i)
{
    const RunCell &cell = at.sched->cells()[i];
    // a stall = the lane reached a cell the warmer had not finished
    // (or started) preparing; the lane pays that cost inline
    if (!at.exec->prepared(cell))
        obs::count(&obs::Counters::streamStalls);
    if (fault::active()) {
        // of the cell-context faults, a lane honours only hang
        fault::setCellContext(cell.id, at.sched->attempts(i));
        if (const fault::Clause *hang =
                fault::cellFault(fault::Kind::Hang))
            std::this_thread::sleep_for(
                std::chrono::milliseconds(hang->hangMs));
        fault::clearCellContext();
    }
    CellResult result;
    {
        std::optional<obs::Span> span;
        if (at.request.empty()) {
            // queue_ms: how long the cell sat behind earlier work
            // before a lane picked it up
            const double waitMs =
                std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - at.attachedAt)
                    .count();
            span.emplace("cell",
                         std::initializer_list<obs::EventArg>{
                             {"workload", cell.workload},
                             {"engine", cell.engine.kind},
                             {"id", std::to_string(cell.id)},
                             {"queue_ms", std::to_string(waitMs)}});
        } else {
            span.emplace("serve_cell",
                         std::initializer_list<obs::EventArg>{
                             {"request", at.request},
                             {"cell", std::to_string(cell.id)},
                             {"workload", cell.workload},
                             {"engine", cell.engine.kind}});
        }
        result = at.exec->execute(cell);
    }
    at.sched->complete(i, std::move(result));
}

void
drainInProcess(const ExperimentSpec &spec, CellScheduler &sched)
{
    CellExecutor exec(executorConfig(spec));
    const uint32_t lanes = spec.threads > 0
        ? spec.threads
        : std::thread::hardware_concurrency();
    Runner pool(static_cast<uint32_t>(
        std::min<size_t>(lanes, sched.pending())));
    pool.attach(sched, exec);
    pool.wait(sched);
}

} // namespace stems::driver
