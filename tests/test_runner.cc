/**
 * @file
 * Lane pool (driver::Runner) tests: two schedulers attached to one
 * 2-lane pool drain in attach order, the warmer prepares each trace at
 * most once across both, stop() returns the waiter of a scheduler it
 * left unfinished, and the executor's memory systems are reused across
 * passes without changing a cell.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <set>
#include <string>
#include <vector>

#include "driver/executor.hh"
#include "driver/report.hh"
#include "driver/runner.hh"
#include "driver/scheduler.hh"
#include "driver/spec.hh"
#include "fault/fault.hh"
#include "obs/counters.hh"

using namespace stems;
using namespace stems::driver;

namespace {

/** Eight small cells: (sparse, graph) x four engines. */
ExperimentSpec
firstSpec()
{
    return parseSpec({"workloads=sparse,graph",
                      "prefetchers=none,sms,ghb,stride", "ncpu=2",
                      "refs=600", "seed=3", "wall=0"});
}

/** Two small cells sharing the first spec's sparse trace. */
ExperimentSpec
secondSpec()
{
    return parseSpec({"workloads=sparse", "prefetchers=none,sms",
                      "ncpu=2", "refs=600", "seed=3", "wall=0"});
}

/** Whether any cell of @p sched has been claimed. */
bool
anyClaimed(const CellScheduler &sched)
{
    for (size_t i = 0; i < sched.cells().size(); ++i)
        if (sched.attempts(i) > 0)
            return true;
    return false;
}

/** A fault plan installed for one scope. */
class ScopedPlan
{
  public:
    explicit ScopedPlan(const std::string &spec)
    {
        fault::installPlan(fault::parsePlan(spec));
    }
    ~ScopedPlan() { fault::installPlan(fault::Plan{}); }
};

} // anonymous namespace

TEST(Pool, SecondSchedulerClaimsOnlyOnceFirstHasNoPendingCell)
{
    CellExecutor exec(executorConfig(firstSpec()));
    CellScheduler first(firstSpec());
    CellScheduler second(secondSpec());
    // pending() only falls while the pool drains, so a claim from the
    // second scheduler ahead of the first's last pending cell shows
    // at one of these completions
    std::atomic<int> early{0};
    first.onComplete([&](const CellResult &, size_t, size_t) {
        if (first.pending() > 0 && anyClaimed(second))
            ++early;
    });
    second.onComplete([&](const CellResult &, size_t, size_t) {
        if (first.pending() > 0)
            ++early;
    });

    Runner pool(2);
    pool.attach(first, exec);
    pool.attach(second, exec);
    EXPECT_TRUE(pool.wait(first));
    EXPECT_TRUE(pool.wait(second));
    EXPECT_EQ(early.load(), 0);
    for (const auto &r : first.takeResults())
        EXPECT_TRUE(r.error.empty()) << r.error;
    for (const auto &r : second.takeResults())
        EXPECT_TRUE(r.error.empty()) << r.error;
}

TEST(Pool, WarmerPreparesEachTraceAtMostOnceAcrossSchedulers)
{
    obs::Counters::get().reset();
    CellExecutor exec(executorConfig(firstSpec()));
    CellScheduler first(firstSpec());
    CellScheduler second(secondSpec());
    {
        Runner pool(2);
        pool.attach(first, exec);
        pool.attach(second, exec);
        EXPECT_TRUE(pool.wait(first));
        EXPECT_TRUE(pool.wait(second));
    }
    // the warmer skips a cell whose trace is built, so the second
    // scheduler's sparse cells add no prefetch to the first's two
    std::set<std::string> traces;
    for (const CellScheduler *sched : {&first, &second})
        for (const RunCell &cell : sched->cells())
            traces.insert(cell.workload);
    ASSERT_EQ(traces.size(), 2u);
    uint64_t prefetches = 0;
    for (const auto &[name, v] : obs::snapshotCounters())
        if (name == "trace_prefetch_ahead")
            prefetches = v;
    EXPECT_LE(prefetches, traces.size());
    obs::Counters::get().reset();
}

TEST(Pool, StopReturnsTheWaiterOfAnUnfinishedScheduler)
{
    // every lane sleeps 300 ms before each cell, so eight cells on two
    // lanes cannot finish before stop() lands
    ScopedPlan hang("hang=1/300");
    CellExecutor exec(executorConfig(firstSpec()));
    CellScheduler sched(firstSpec());
    Runner pool(2);
    pool.attach(sched, exec);
    auto waiter =
        std::async(std::launch::async, [&] { return pool.wait(sched); });
    pool.stop();
    EXPECT_FALSE(waiter.get());
    EXPECT_FALSE(sched.finished());
    EXPECT_GT(sched.pending(), 0u);
    pool.stop();  // idempotent
}

namespace {

/** Drain @p spec through @p exec on a pool of @p lanes. */
std::vector<CellResult>
drain(const ExperimentSpec &spec, CellExecutor &exec, uint32_t lanes)
{
    CellScheduler sched(spec);
    Runner pool(lanes);
    pool.attach(sched, exec);
    EXPECT_TRUE(pool.wait(sched));
    return sched.takeResults();
}

} // anonymous namespace

TEST(Pool, ReusedSystemsAcrossGeometriesMatchFreshExecutors)
{
    // one lane walks every engine at two L2 sizes, so its executor
    // lends reset systems to later passes and replaces them when the
    // geometry changes
    const ExperimentSpec spec = parseSpec(
        {"workloads=sparse,graph",
         "prefetchers=sms,ghb,stride,next-line,none", "sweep.l2-kb=64,128",
         "timing=1", "ncpu=4", "refs=1500", "seed=5", "wall=0",
         "threads=1"});
    CellExecutor shared(executorConfig(spec));
    const std::vector<CellResult> reused = drain(spec, shared, 1);
    // 2 workloads x 2 geometries x (baseline + 4 engines)
    EXPECT_LT(shared.memorySystemsBuilt(), 20u);
    EXPECT_GE(shared.memorySystemsBuilt(), 2u);

    std::vector<CellResult> fresh;
    const CellScheduler order(spec);
    for (const RunCell &cell : order.cells()) {
        CellExecutor own(executorConfig(spec));
        fresh.push_back(own.execute(cell));
    }
    ASSERT_EQ(reused.size(), 20u);
    for (const CellResult &r : reused)
        EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_EQ(toJson(spec, reused), toJson(spec, fresh));
}

TEST(Pool, FourLanesBuildAtMostFourSystems)
{
    const ExperimentSpec spec = parseSpec(
        {"workloads=paper", "prefetchers=sms,ghb,stride,next-line,none",
         "timing=1", "ncpu=2", "refs=500", "seed=5", "wall=0",
         "threads=4"});
    CellExecutor exec(executorConfig(spec));
    const std::vector<CellResult> results = drain(spec, exec, 4);
    ASSERT_EQ(results.size(), 55u);
    for (const CellResult &r : results)
        EXPECT_TRUE(r.error.empty()) << r.error;
    EXPECT_GE(exec.memorySystemsBuilt(), 1u);
    EXPECT_LE(exec.memorySystemsBuilt(), 4u);
}
