/**
 * @file
 * CellScheduler unit tests, with no executor and no processes: claim
 * order (heaviest estimated first, ties by id, re-queued first), the
 * claimer's tie-breaking preference, first-result-wins placement
 * with one hook call per cell, journal seeding and the duplication
 * rule.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "driver/scheduler.hh"
#include "driver/spec.hh"
#include "obs/counters.hh"

using namespace stems;
using namespace stems::driver;

namespace {

/** Four cells: (sparse, graph) x (none, sms); claim order 1, 3, 0, 2. */
ExperimentSpec
fourCells()
{
    return parseSpec({"workloads=sparse,graph", "prefetchers=none,sms",
                      "ncpu=4", "refs=1000"});
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
    // equal estimated costs claim in id (expansion) order
    CellScheduler fifo(parseSpec({"workloads=sparse,graph,em3d,ocean",
                                  "prefetchers=sms", "ncpu=4",
                                  "refs=1000"}));
    EXPECT_EQ(claimAll(fifo), (std::vector<size_t>{0, 1, 2, 3}));

    CellScheduler lpt(fourCells());
    const std::vector<size_t> order = claimAll(lpt);
    for (size_t k = 1; k < order.size(); ++k)
        EXPECT_GE(estimatedCost(lpt.cells()[order[k - 1]]),
                  estimatedCost(lpt.cells()[order[k]]));
    // the sms cells are the expensive ones and go first
    EXPECT_EQ(order, (std::vector<size_t>{1, 3, 0, 2}));
}

TEST(Scheduler, ClaimsSpreadAcrossWorkloadsAndDrainNoneLast)
{
    // expanded workload-major, so expansion order would start four
    // lanes on one workload's cells, all waiting on its baseline pass
    CellScheduler sched(parseSpec({"workloads=sparse,graph,em3d,ocean",
                                   "prefetchers=sms,ghb,none",
                                   "ncpu=4", "refs=1000"}));
    const std::vector<size_t> order = claimAll(sched);
    ASSERT_EQ(order.size(), 12u);
    std::set<std::string> firstFour;
    for (size_t k = 0; k < 4; ++k)
        firstFour.insert(sched.cells()[order[k]].workload);
    EXPECT_EQ(firstFour.size(), 4u);
    for (size_t k = 0; k < order.size(); ++k)
        EXPECT_EQ(sched.cells()[order[k]].engine.kind == "none", k >= 8)
            << "claim " << k;
}

TEST(Scheduler, RequeuedCellIsClaimedFirst)
{
    obs::Counters::get().reset();
    CellScheduler sched(fourCells());
    ASSERT_EQ(sched.claim(), 1u);
    ASSERT_EQ(sched.claim(), 3u);
    sched.lost(1, "worker exited", 3);
    EXPECT_EQ(sched.pending(), 3u);
    EXPECT_EQ(sched.claim(), 1u);
    EXPECT_EQ(sched.attempts(1), 2u);
    EXPECT_EQ(sched.claim(), 0u);
    EXPECT_EQ(obs::Counters::get().cellsRequeued.load(), 1u);

    // past the attempt cap the cell completes with an error instead
    sched.lost(1, "worker exited", 2);
    EXPECT_TRUE(sched.done(1));
    EXPECT_EQ(sched.pending(), 1u);
    obs::Counters::get().reset();
    EXPECT_EQ(sched.takeResults()[1].error,
              "worker exited after 2 attempt(s)");
}

namespace {

/** A claimer that prefers the cells of workload @p name. */
CellScheduler::Preference
prefersWorkload(const std::string &name)
{
    return [name](const RunCell &c) { return c.workload == name; };
}

} // anonymous namespace

TEST(Scheduler, PreferenceTakesAnEqualCostCellAheadOfALowerId)
{
    CellScheduler sched(fourCells());
    // cells 1 (sparse) and 3 (graph) are the equal-cost sms cells
    EXPECT_EQ(sched.claim(prefersWorkload("graph")), 3u);
    EXPECT_EQ(sched.attempts(3), 1u);
    EXPECT_EQ(sched.pending(), 3u);
    EXPECT_EQ(sched.claim(), 1u);
    // among the none cells the preference skips the front again
    EXPECT_EQ(sched.claim(prefersWorkload("graph")), 2u);
    EXPECT_EQ(sched.claim(prefersWorkload("graph")), 0u);
    EXPECT_EQ(sched.claim(prefersWorkload("graph")), std::nullopt);
}

TEST(Scheduler, PreferenceNeverTakesALighterCellAheadOfAHeavierOne)
{
    CellScheduler sched(fourCells());
    const auto graph = prefersWorkload("graph");
    EXPECT_EQ(sched.claim(graph), 3u);
    // graph's none cell (2) is preferred but lighter than sparse's sms
    // cell (1), which is pending, so the heavier cell goes first
    EXPECT_EQ(sched.claim(graph), 1u);
    EXPECT_EQ(sched.claim(graph), 2u);
    EXPECT_EQ(sched.claim(graph), 0u);

    // over a spec with five cost levels, a claimer that prefers one
    // workload still claims in non-increasing cost
    CellScheduler wide(parseSpec({"workloads=sparse,graph,em3d,ocean",
                                  "prefetchers=sms,ghb,stride,next-line,"
                                  "none",
                                  "ncpu=4", "refs=1000"}));
    const auto ocean = prefersWorkload("ocean");
    std::vector<size_t> order;
    while (const auto i = wide.claim(ocean))
        order.push_back(*i);
    ASSERT_EQ(order.size(), 20u);
    for (size_t k = 1; k < order.size(); ++k) {
        EXPECT_GE(estimatedCost(wide.cells()[order[k - 1]]),
                  estimatedCost(wide.cells()[order[k]]));
        // each cost level starts with its ocean cell
        if (wide.cells()[order[k]].engine.kind !=
            wide.cells()[order[k - 1]].engine.kind) {
            EXPECT_EQ(wide.cells()[order[k]].workload, "ocean")
                << "claim " << k;
        }
    }
    EXPECT_EQ(wide.cells()[order[0]].workload, "ocean");
}

TEST(Scheduler, RequeuedCellIsClaimedFirstWhateverTheClaimerPrefers)
{
    obs::Counters::get().reset();
    CellScheduler sched(fourCells());
    ASSERT_EQ(sched.claim(), 1u);
    sched.lost(1, "worker exited", 3);
    // the re-queued sparse cell ties with graph's sms cell (3), which
    // this claimer prefers; the re-queued cell still goes first
    EXPECT_EQ(sched.claim(prefersWorkload("graph")), 1u);
    EXPECT_EQ(sched.attempts(1), 2u);
    EXPECT_EQ(sched.claim(prefersWorkload("graph")), 3u);
    obs::Counters::get().reset();
}

TEST(Scheduler, ClaimerWithoutPreferenceSeesHeaviestFirstIdOrder)
{
    // two geometries, five engines: twenty cells with five cost ties
    const ExperimentSpec spec = parseSpec(
        {"workloads=sparse,graph",
         "prefetchers=sms,ghb,stride,next-line,none",
         "sweep.l2-kb=64,128", "ncpu=4", "refs=1000"});
    CellScheduler probe(spec);
    std::vector<size_t> expected(probe.cells().size());
    for (size_t i = 0; i < expected.size(); ++i)
        expected[i] = i;
    std::stable_sort(expected.begin(), expected.end(),
                     [&](size_t a, size_t b) {
                         return estimatedCost(probe.cells()[a]) >
                             estimatedCost(probe.cells()[b]);
                     });

    CellScheduler none(spec);
    EXPECT_EQ(claimAll(none), expected);
    // a preference every cell meets, or none does, is no preference
    for (const bool all : {true, false}) {
        CellScheduler sched(spec);
        std::vector<size_t> order;
        while (const auto i =
                   sched.claim([all](const RunCell &) { return all; }))
            order.push_back(*i);
        EXPECT_EQ(order, expected) << "prefers all: " << all;
    }
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
    EXPECT_EQ(order, (std::vector<size_t>{3, 0}));
    for (const size_t i : order)
        sched.complete(i, CellResult{});
    EXPECT_TRUE(sched.finished());
    EXPECT_EQ(reported, 2u);
    EXPECT_EQ(total, 2u);
    const auto results = sched.takeResults();
    EXPECT_EQ(results[2].metrics.wallMs(), 2.5);
    EXPECT_EQ(results[2].cell.id, 2u);
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
    // claim order: sms (1), ghb (2), stride (3), next-line (4), none (0)
    ASSERT_EQ(sched.claim(), 1u);  // the straggler
    for (size_t i = 2; i <= 4; ++i) {
        ASSERT_EQ(sched.claim(), i);
        sched.complete(i, CellResult{});
    }
    // three fast round trips, but cell 0 is still pending
    EXPECT_EQ(sched.duplicate(), std::nullopt);
    std::this_thread::sleep_for(std::chrono::milliseconds(2100));
    EXPECT_EQ(sched.duplicate(), std::nullopt);

    // nothing pending: cell 1 is past the 2 s floor, cell 0 is not
    ASSERT_EQ(sched.claim(), 0u);
    EXPECT_EQ(sched.duplicate(), 1u);
    EXPECT_EQ(sched.attempts(1), 2u);
    EXPECT_EQ(sched.duplicate(), std::nullopt);  // one copy per cell
    EXPECT_EQ(obs::Counters::get().cellsStolen.load(), 1u);

    // the original copy is lost; the duplicate still runs, so the
    // cell is neither re-queued nor failed
    sched.lost(1, "worker exited", 2);
    EXPECT_EQ(sched.pending(), 0u);
    EXPECT_FALSE(sched.done(1));
    EXPECT_TRUE(sched.complete(1, tagged("copy")));
    EXPECT_TRUE(sched.complete(0, CellResult{}));
    EXPECT_TRUE(sched.finished());
    EXPECT_EQ(hooked, 5);
    EXPECT_EQ(sched.takeResults()[1].error, "copy");
    obs::Counters::get().reset();
}
