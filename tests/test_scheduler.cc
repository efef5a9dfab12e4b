/**
 * @file
 * CellScheduler unit tests, with no executor and no processes: claim
 * order (fifo, cost, re-queued first), first-result-wins placement
 * with one hook call per cell, journal seeding, the look-ahead cursor
 * and the duplication rule.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <map>
#include <thread>
#include <vector>

#include "driver/costmodel.hh"
#include "driver/scheduler.hh"
#include "driver/spec.hh"
#include "obs/counters.hh"

using namespace stems;
using namespace stems::driver;

namespace {

/** Four cells: (sparse, graph) x (none, sms). */
ExperimentSpec
fourCells(const char *schedule = "schedule=fifo")
{
    return parseSpec({"workloads=sparse,graph", "prefetchers=none,sms",
                      "ncpu=4", "refs=1000", schedule});
}

/** A result tagged through its error text, to tell copies apart. */
CellResult
tagged(const std::string &tag)
{
    CellResult r;
    r.error = tag;
    return r;
}

std::vector<size_t>
claimAll(CellScheduler &sched)
{
    std::vector<size_t> order;
    while (const auto i = sched.claim())
        order.push_back(*i);
    return order;
}

} // anonymous namespace

TEST(Scheduler, ClaimsFollowFifoAndCostOrder)
{
    CellScheduler fifo(fourCells());
    EXPECT_EQ(claimAll(fifo), (std::vector<size_t>{0, 1, 2, 3}));

    const ExperimentSpec cost = fourCells("schedule=cost");
    CellScheduler lpt(cost);
    const std::vector<size_t> order = claimAll(lpt);
    EXPECT_EQ(order, scheduleOrder(cost, selectedCells(cost)));
    // the sms cells are the expensive ones and go first
    EXPECT_EQ(order, (std::vector<size_t>{1, 3, 0, 2}));
}

TEST(Scheduler, RequeuedCellIsClaimedFirst)
{
    obs::Counters::get().reset();
    CellScheduler sched(fourCells());
    ASSERT_EQ(sched.claim(), 0u);
    ASSERT_EQ(sched.claim(), 1u);
    sched.lost(0, "worker exited", 3);
    EXPECT_EQ(sched.pending(), 3u);
    EXPECT_EQ(sched.claim(), 0u);
    EXPECT_EQ(sched.attempts(0), 2u);
    EXPECT_EQ(sched.claim(), 2u);
    EXPECT_EQ(obs::Counters::get().cellsRequeued.load(), 1u);

    // past the attempt cap the cell completes with an error instead
    sched.lost(0, "worker exited", 2);
    EXPECT_TRUE(sched.done(0));
    EXPECT_EQ(sched.pending(), 1u);
    obs::Counters::get().reset();
    EXPECT_EQ(sched.takeResults()[0].error,
              "worker exited after 2 attempt(s)");
}

TEST(Scheduler, FirstResultWinsAndHookFiresOnce)
{
    CellScheduler sched(fourCells());
    std::map<uint32_t, int> calls;
    size_t lastTotal = 0;
    sched.onComplete([&](const CellResult &r, size_t, size_t total) {
        ++calls[r.cell.id];
        lastTotal = total;
    });
    for (const size_t i : claimAll(sched)) {
        EXPECT_TRUE(sched.complete(i, tagged("first")));
        EXPECT_FALSE(sched.complete(i, tagged("second")));
    }
    EXPECT_TRUE(sched.finished());
    EXPECT_EQ(lastTotal, 4u);
    const auto results = sched.takeResults();
    for (size_t i = 0; i < results.size(); ++i) {
        EXPECT_EQ(calls[static_cast<uint32_t>(i)], 1);
        EXPECT_EQ(results[i].error, "first");
        // the scheduler's cell metadata is authoritative
        EXPECT_EQ(results[i].cell.id, i);
        EXPECT_FALSE(results[i].cell.workload.empty());
    }
}

TEST(Scheduler, JournalSeededCellsAreNeverClaimed)
{
    CellScheduler sched(fourCells());
    std::map<uint32_t, CellResult> replayed;
    replayed[1].metrics.setWallMs(1.5);
    replayed[2].metrics.setWallMs(2.5);
    replayed[9];  // an id outside the spec is ignored
    EXPECT_EQ(sched.seed(replayed), 2u);
    EXPECT_TRUE(sched.done(1));
    EXPECT_FALSE(sched.finished());

    size_t reported = 0, total = 0;
    sched.onComplete([&](const CellResult &, size_t done, size_t all) {
        reported = done;
        total = all;
    });
    const std::vector<size_t> order = claimAll(sched);
    EXPECT_EQ(order, (std::vector<size_t>{0, 3}));
    for (const size_t i : order)
        sched.complete(i, CellResult{});
    EXPECT_TRUE(sched.finished());
    EXPECT_EQ(reported, 2u);
    EXPECT_EQ(total, 2u);
    const auto results = sched.takeResults();
    EXPECT_EQ(results[2].metrics.wallMs(), 2.5);
    EXPECT_EQ(results[2].cell.id, 2u);
}

TEST(Scheduler, LookaheadSkipsClaimedCells)
{
    CellScheduler sched(fourCells());
    EXPECT_EQ(sched.takeLookahead(), 0u);
    EXPECT_EQ(sched.takeLookahead(), std::nullopt);  // handed out once
    ASSERT_EQ(sched.claim(), 0u);
    ASSERT_EQ(sched.claim(), 1u);
    EXPECT_EQ(sched.takeLookahead(), 2u);
    ASSERT_EQ(sched.claim(), 2u);
    EXPECT_EQ(sched.awaitLookahead(), 3u);
    ASSERT_EQ(sched.claim(), 3u);
    // nothing pending: a warmer stops instead of blocking
    EXPECT_EQ(sched.awaitLookahead(), std::nullopt);
    EXPECT_EQ(sched.takeLookahead(), std::nullopt);
}

TEST(Scheduler, DuplicatesOnlyPastThresholdWithNothingPending)
{
    obs::Counters::get().reset();
    CellScheduler sched(parseSpec({"workloads=sparse",
                                   "prefetchers=none,sms,ghb,stride,"
                                   "next-line",
                                   "ncpu=4", "refs=1000"}));
    int hooked = 0;
    sched.onComplete([&](const CellResult &, size_t, size_t) {
        ++hooked;
    });
    ASSERT_EQ(sched.claim(), 0u);  // the straggler
    for (size_t i = 1; i <= 3; ++i) {
        ASSERT_EQ(sched.claim(), i);
        sched.complete(i, CellResult{});
    }
    // three fast round trips, but cell 4 is still pending
    EXPECT_EQ(sched.duplicate(), std::nullopt);
    std::this_thread::sleep_for(std::chrono::milliseconds(2100));
    EXPECT_EQ(sched.duplicate(), std::nullopt);

    // nothing pending: cell 0 is past the 2 s floor, cell 4 is not
    ASSERT_EQ(sched.claim(), 4u);
    EXPECT_EQ(sched.duplicate(), 0u);
    EXPECT_EQ(sched.attempts(0), 2u);
    EXPECT_EQ(sched.duplicate(), std::nullopt);  // one copy per cell
    EXPECT_EQ(obs::Counters::get().cellsStolen.load(), 1u);

    // the original copy is lost; the duplicate still runs, so the
    // cell is neither re-queued nor failed
    sched.lost(0, "worker exited", 2);
    EXPECT_EQ(sched.pending(), 0u);
    EXPECT_FALSE(sched.done(0));
    EXPECT_TRUE(sched.complete(0, tagged("copy")));
    EXPECT_TRUE(sched.complete(4, CellResult{}));
    EXPECT_TRUE(sched.finished());
    EXPECT_EQ(hooked, 5);
    EXPECT_EQ(sched.takeResults()[0].error, "copy");
    obs::Counters::get().reset();
}
