/**
 * @file
 * Fault-injection framework tests: plan-grammar parsing and rejection,
 * deterministic firing decisions, first-attempt-only vs :always
 * semantics, installing a plan from STEMS_FAULTS, and the spill
 * faults (enospc write failure, corrupt-spill byte flip) observed
 * through the .stmt writer/reader.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "fault/fault.hh"
#include "obs/counters.hh"
#include "trace/access.hh"
#include "trace/io.hh"
#include "trace/stream.hh"

using namespace stems;
using namespace stems::fault;

namespace {

/** Scoped plan install; restores the empty plan on destruction. */
class ScopedPlan
{
  public:
    explicit ScopedPlan(const std::string &spec)
    {
        installPlan(parsePlan(spec));
    }
    ~ScopedPlan()
    {
        installPlan(Plan{});
        clearCellContext();
    }
};

class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv() { ::unsetenv(name); }

  private:
    const char *name;
};

trace::Trace
smallTrace(size_t n)
{
    trace::Trace t;
    for (size_t i = 0; i < n; ++i) {
        trace::MemAccess a;
        a.pc = 0x400000;
        a.addr = i * 64;
        a.cpu = 0;
        a.ninst = 1;
        t.push_back(a);
    }
    return t;
}

uint64_t
counterValue(const char *name)
{
    for (const auto &[k, v] : obs::snapshotCounters())
        if (k == name)
            return v;
    ADD_FAILURE() << "no counter named " << name;
    return 0;
}

} // anonymous namespace

// ---------------------------------------------------------------------
// plan grammar
// ---------------------------------------------------------------------

TEST(FaultPlan, ParsesEveryClauseKind)
{
    const Plan p = parsePlan(
        "seed=42,crash=0.5,hang=0.25/3000,garbage=cell:7,"
        "truncate=0.1:always,corrupt-spill=0.2,enospc=1");
    EXPECT_EQ(p.seed, 42u);
    ASSERT_EQ(p.clauses.size(), 6u);

    EXPECT_EQ(p.clauses[0].kind, Kind::Crash);
    EXPECT_DOUBLE_EQ(p.clauses[0].prob, 0.5);
    EXPECT_FALSE(p.clauses[0].everyAttempt);

    EXPECT_EQ(p.clauses[1].kind, Kind::Hang);
    EXPECT_DOUBLE_EQ(p.clauses[1].prob, 0.25);
    EXPECT_EQ(p.clauses[1].hangMs, 3000u);

    EXPECT_EQ(p.clauses[2].kind, Kind::Garbage);
    EXPECT_EQ(p.clauses[2].cell, 7);

    EXPECT_EQ(p.clauses[3].kind, Kind::Truncate);
    EXPECT_TRUE(p.clauses[3].everyAttempt);

    EXPECT_EQ(p.clauses[4].kind, Kind::CorruptSpill);
    EXPECT_EQ(p.clauses[5].kind, Kind::Enospc);
    // spill clauses have no attempt notion: always-on by construction
    EXPECT_TRUE(p.clauses[5].everyAttempt);
}

TEST(FaultPlan, RejectsMalformedSpecs)
{
    EXPECT_THROW(parsePlan("explode=0.5"), std::invalid_argument);
    EXPECT_THROW(parsePlan("crash"), std::invalid_argument);
    EXPECT_THROW(parsePlan("crash=1.5"), std::invalid_argument);
    EXPECT_THROW(parsePlan("crash=-0.1"), std::invalid_argument);
    EXPECT_THROW(parsePlan("crash=abc"), std::invalid_argument);
    EXPECT_THROW(parsePlan("crash=cell:"), std::invalid_argument);
    EXPECT_THROW(parsePlan("hang=0.5"), std::invalid_argument)
        << "hang needs the /MS duration";
    EXPECT_THROW(parsePlan("seed=notanumber,crash=1"),
                 std::invalid_argument);
    EXPECT_NO_THROW(parsePlan(""));
    EXPECT_TRUE(parsePlan("").empty());
}

TEST(FaultPlan, UnitValueIsDeterministicAndSeedSensitive)
{
    const double a = unitValue(7, Kind::Crash, 3, 1);
    EXPECT_EQ(a, unitValue(7, Kind::Crash, 3, 1));
    EXPECT_GE(a, 0.0);
    EXPECT_LT(a, 1.0);
    // different seed, kind, or site → different decision input
    EXPECT_NE(a, unitValue(8, Kind::Crash, 3, 1));
    EXPECT_NE(a, unitValue(7, Kind::Hang, 3, 1));
    EXPECT_NE(a, unitValue(7, Kind::Crash, 4, 1));
}

// ---------------------------------------------------------------------
// firing semantics
// ---------------------------------------------------------------------

TEST(FaultFire, TargetedCellFiresFirstAttemptOnly)
{
    ScopedPlan plan("crash=cell:5");
    setCellContext(5, 1);
    EXPECT_NE(cellFault(Kind::Crash), nullptr);
    setCellContext(5, 2);  // the retry runs clean
    EXPECT_EQ(cellFault(Kind::Crash), nullptr);
    setCellContext(6, 1);  // a different cell never fires
    EXPECT_EQ(cellFault(Kind::Crash), nullptr);
}

TEST(FaultFire, AlwaysSuffixDefeatsRetries)
{
    ScopedPlan plan("crash=cell:5:always");
    for (uint32_t attempt = 1; attempt <= 4; ++attempt) {
        setCellContext(5, attempt);
        EXPECT_NE(cellFault(Kind::Crash), nullptr)
            << "attempt " << attempt;
    }
}

TEST(FaultFire, NothingFiresWithoutCellContext)
{
    ScopedPlan plan("crash=1,hang=1/100,garbage=1,truncate=1");
    clearCellContext();
    EXPECT_EQ(cellFault(Kind::Crash), nullptr);
    EXPECT_EQ(cellFault(Kind::Hang), nullptr);
}

TEST(FaultFire, ProbabilisticDecisionIsDeterministicPerCell)
{
    ScopedPlan plan("seed=3,crash=0.5");
    std::vector<bool> first;
    for (uint32_t cell = 0; cell < 32; ++cell) {
        setCellContext(cell, 1);
        first.push_back(cellFault(Kind::Crash) != nullptr);
    }
    // replay: identical decisions
    for (uint32_t cell = 0; cell < 32; ++cell) {
        setCellContext(cell, 1);
        EXPECT_EQ(cellFault(Kind::Crash) != nullptr, first[cell])
            << "cell " << cell;
    }
    // p=0.5 over 32 cells: both outcomes occur
    EXPECT_NE(std::count(first.begin(), first.end(), true), 0);
    EXPECT_NE(std::count(first.begin(), first.end(), false), 0);
}

TEST(FaultFire, FiringBumpsTheCounter)
{
    obs::Counters::get().reset();
    ScopedPlan plan("crash=cell:1");
    setCellContext(1, 1);
    ASSERT_NE(cellFault(Kind::Crash), nullptr);
    EXPECT_EQ(counterValue("faults_injected"), 1u);
    obs::Counters::get().reset();
}

// ---------------------------------------------------------------------
// installing a plan from the STEMS_FAULTS environment variable
// ---------------------------------------------------------------------

TEST(FaultLegacy, CrashHookFoldsIntoClause)
{
    // a crash on every attempt of one cell (what
    // RetryCapRecordsCellErrorNotCrash depends on)
    ScopedEnv crash("STEMS_FAULTS", "crash=cell:3:always");
    installFromEnv();
    ASSERT_TRUE(active());
    setCellContext(3, 1);
    EXPECT_NE(cellFault(Kind::Crash), nullptr);
    setCellContext(3, 2);
    EXPECT_NE(cellFault(Kind::Crash), nullptr);
    setCellContext(4, 1);
    EXPECT_EQ(cellFault(Kind::Crash), nullptr);
    installPlan(Plan{});
    clearCellContext();
}

TEST(FaultLegacy, SleepHookCarriesDuration)
{
    ScopedEnv stall("STEMS_FAULTS", "hang=cell:2:always/1500");
    installFromEnv();
    setCellContext(2, 1);
    const Clause *c = cellFault(Kind::Hang);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(c->hangMs, 1500u);
    installPlan(Plan{});
    clearCellContext();
}

TEST(FaultLegacy, EnvPlanAndHooksCompose)
{
    ScopedEnv plan("STEMS_FAULTS",
                   "seed=9,garbage=cell:1,crash=cell:2:always");
    installFromEnv();
    setCellContext(1, 1);
    EXPECT_NE(cellFault(Kind::Garbage), nullptr);
    EXPECT_EQ(cellFault(Kind::Crash), nullptr);
    setCellContext(2, 1);
    EXPECT_NE(cellFault(Kind::Crash), nullptr);
    installPlan(Plan{});
    clearCellContext();
}

// ---------------------------------------------------------------------
// spill faults through the .stmt writer/reader
// ---------------------------------------------------------------------

TEST(FaultSpill, EnospcFailsTheWrite)
{
    ScopedPlan plan("enospc=1");
    const std::string path =
        ::testing::TempDir() + "/stems_fault_enospc.stmt";
    trace::Trace t = smallTrace(32);
    EXPECT_FALSE(trace::writeTraceStreams({t}, path));
    std::remove(path.c_str());
}

TEST(FaultSpill, CorruptSpillIsCaughtByTheChecksum)
{
    obs::Counters::get().reset();
    ScopedPlan plan("corrupt-spill=1");
    const std::string path =
        ::testing::TempDir() + "/stems_fault_corrupt.stmt";
    trace::Trace t = smallTrace(64);
    // the write itself succeeds — corruption happens post-commit,
    // modelling bit rot / a torn device write
    ASSERT_TRUE(trace::writeTraceStreams({t}, path));
    EXPECT_FALSE(trace::MappedTrace::open(path))
        << "corrupted spill must be rejected, not replayed";
    EXPECT_GE(counterValue("faults_injected"), 1u);
    std::remove(path.c_str());
    obs::Counters::get().reset();
}

TEST(FaultSpill, ProbabilityZeroNeverFires)
{
    ScopedPlan plan("enospc=0,corrupt-spill=0");
    const std::string path =
        ::testing::TempDir() + "/stems_fault_p0.stmt";
    trace::Trace t = smallTrace(16);
    ASSERT_TRUE(trace::writeTraceStreams({t}, path));
    auto out = trace::MappedTrace::open(path);
    ASSERT_TRUE(out);
    EXPECT_EQ(out->totalRefs(), t.size());
    std::remove(path.c_str());
}

TEST(FaultSpill, InactivePlanLeavesSpillsAlone)
{
    installPlan(Plan{});
    EXPECT_FALSE(active());
    const std::string path =
        ::testing::TempDir() + "/stems_fault_off.stmt";
    trace::Trace t = smallTrace(16);
    ASSERT_TRUE(trace::writeTraceStreams({t}, path));
    EXPECT_TRUE(trace::MappedTrace::open(path));
    std::remove(path.c_str());
}
