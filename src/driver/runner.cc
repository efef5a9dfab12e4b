#include "driver/runner.hh"

#include <algorithm>
#include <chrono>
#include <thread>

#include "obs/counters.hh"
#include "obs/obs.hh"

namespace stems::driver {

Runner::Runner(const ExperimentSpec &spec)
    : spec(spec), cells_(selectedCells(spec)),
      executor_(executorConfig(spec))
{
}

std::vector<CellResult>
Runner::run(const ProgressFn &progress)
{
    CellScheduler sched(spec);
    sched.onComplete(progress);
    run(sched);
    return sched.takeResults();
}

void
Runner::run(CellScheduler &sched)
{
    uint32_t nthreads = spec.threads;
    if (nthreads == 0) {
        nthreads = std::thread::hardware_concurrency();
        if (nthreads == 0)
            nthreads = 1;
    }
    nthreads = std::min<uint32_t>(
        nthreads, static_cast<uint32_t>(std::max<size_t>(
                      sched.pending(), 1)));
    const auto queuedAt = std::chrono::steady_clock::now();

    auto lane = [&] {
        while (const auto i = sched.claim()) {
            const RunCell &cell = sched.cells()[*i];
            // a stall = the lane reached a cell the warmer had not
            // finished (or started) preparing; the lane pays the
            // generate/replay cost inline
            if (!executor_.prepared(cell))
                obs::count(&obs::Counters::streamStalls);
            CellResult result;
            {
                // queue_ms: how long the cell sat behind earlier work
                // before a lane picked it up
                const double waitMs =
                    std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - queuedAt)
                        .count();
                obs::Span span("cell",
                               {{"workload", cell.workload},
                                {"engine", cell.engine.kind},
                                {"id", std::to_string(cell.id)},
                                {"queue_ms", std::to_string(waitMs)}});
                result = executor_.execute(cell);
            }
            sched.complete(*i, std::move(result));
        }
    };

    // the warmer prepares (generates, or maps a spill of) the
    // look-ahead cell's trace while the lanes simulate. It only warms
    // the TraceCache (CellExecutor::prefetch never counts a lookup and
    // never fails a cell), so reports are byte-identical either way
    std::thread warmer([&] {
        obs::setThreadName("warmer");
        while (const auto i = sched.awaitLookahead())
            executor_.prefetch(sched.cells()[*i]);
    });
    if (nthreads <= 1) {
        lane();
    } else {
        std::vector<std::thread> pool;
        for (uint32_t k = 0; k < nthreads; ++k)
            pool.emplace_back([&, k] {
                obs::setThreadName("runner-" + std::to_string(k));
                lane();
            });
        for (auto &th : pool)
            th.join();
    }
    warmer.join();
}

} // namespace stems::driver
