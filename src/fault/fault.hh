/**
 * @file
 * Deterministic, seeded fault injection for chaos-testing the
 * dispatch and trace-spill paths. A declarative plan — from
 * `--fault-plan=SPEC` or the `STEMS_FAULTS` environment variable —
 * names which failure modes to inject and how often; every firing
 * decision is a pure hash of (plan seed, fault kind, site identity),
 * so a given plan replays the exact same faults run after run and CI
 * chaos jobs are reproducible.
 *
 * Plan grammar (comma-separated clauses, each a key of one table):
 *
 *   seed=N              hash seed shared by every clause (default 1);
 *                       N reads like every unsigned key (decimal,
 *                       0x hex or 0-prefixed octal)
 *   crash=SEL           worker _exit(137)s before executing the cell
 *   hang=SEL/MS         worker (wire lock held) or lane wedges MS ms
 *   garbage=SEL         worker frames unparseable bytes as the result
 *   truncate=SEL        worker writes half the result frame, then dies
 *   corrupt-spill=P     flip one byte of a just-committed .stmt spill
 *   enospc=P            .stmt spill writes fail as if the disk is full
 *
 *   SEL := P                  probability in [0,1], evaluated per
 *                             (cell, attempt); fires only on a cell's
 *                             first attempt so retries run clean
 *        | P:always           ... on every attempt (defeats retry)
 *        | cell:ID            exactly that cell, first attempt only
 *        | cell:ID:always     exactly that cell, every attempt
 *
 * Cell-context faults fire only on a thread with a cell context set:
 * `stems worker` honours all four (crash/hang/garbage/truncate), an
 * in-process lane (driver/runner.hh) only hang — under `stems run`
 * and the `stems serve` daemon alike, which installs STEMS_FAULTS at
 * start-up. The spill faults fire in any process with a plan
 * installed.
 *
 * Injection sites are all on cold paths (per cell, per spill write);
 * with no plan installed each site is a single branch on a bool.
 */

#ifndef STEMS_FAULT_FAULT_HH
#define STEMS_FAULT_FAULT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace stems::fault {

/** The injectable failure modes. */
enum class Kind
{
    Crash,         //!< worker exits mid-cell (simulated SIGKILL)
    Hang,          //!< worker wedges: no progress, no heartbeats
    Garbage,       //!< worker ships an unparseable result frame
    Truncate,      //!< worker dies mid-frame (torn wire write)
    CorruptSpill,  //!< one byte of a committed .stmt spill flipped
    Enospc         //!< .stmt spill write fails (disk-full model)
};

const char *kindName(Kind k);

/** One parsed plan clause. */
struct Clause
{
    Kind kind = Kind::Crash;
    double prob = 0;          //!< firing probability (cell < 0)
    int64_t cell = -1;        //!< targeted cell id (-1 = probabilistic)
    bool everyAttempt = false; //!< fire on retries too
    uint32_t hangMs = 0;      //!< wedge duration (Kind::Hang)
};

/** A full fault plan: shared hash seed plus clauses. */
struct Plan
{
    uint64_t seed = 1;
    std::vector<Clause> clauses;

    bool empty() const { return clauses.empty(); }
};

/**
 * Parse a plan spec (see the grammar above). Throws
 * std::invalid_argument on unknown kinds, malformed selectors, or
 * probabilities outside [0,1].
 */
Plan parsePlan(const std::string &spec);

/**
 * Install @p plan process-wide, enabling the injection sites.
 * Not thread-safe against concurrent injection queries — install
 * while no cell executes (tests may re-install between runs).
 */
void installPlan(Plan plan);

/**
 * Install from the STEMS_FAULTS environment variable (plan grammar);
 * no-op when it is unset. Called by `stems worker` and `stems serve`
 * at startup (`stems run` exports its --fault-plan= as STEMS_FAULTS so
 * forked workers inherit it; a daemon takes its plan from its own
 * environment, since submitted specs' fault-plan= is ignored).
 */
void installFromEnv();

/** Whether a non-empty plan is installed. */
bool active();

/** The installed plan (empty when none). */
const Plan &currentPlan();

/**
 * Set the calling thread's cell-context site identity before
 * executing a cell; attempts count from 1. Cell-context clauses never
 * fire on a thread with no context set.
 */
void setCellContext(uint32_t cellId, uint32_t attempt);
void clearCellContext();

/**
 * First clause of @p kind that fires for the current cell context,
 * or nullptr. A firing clause bumps the faults_injected counter.
 */
const Clause *cellFault(Kind kind);

/**
 * Whether a spill fault of @p kind fires for this write of @p path.
 * Keyed on (seed, kind, path basename, per-path write ordinal), so a
 * regenerated spill rolls a fresh decision. Thread-safe.
 */
bool spillFault(Kind kind, const std::string &path);

/**
 * The deterministic per-site hash in [0,1) that firing decisions
 * compare against their probability (exposed for tests).
 */
double unitValue(uint64_t seed, Kind kind, uint64_t a, uint64_t b);

/**
 * Flip one deterministically-chosen byte of @p path past @p skip
 * header bytes (the CorruptSpill payload corruptor). Returns false
 * when the file cannot be opened or has no payload bytes.
 */
bool corruptFileByte(const std::string &path, uint64_t seed,
                     size_t skip);

} // namespace stems::fault

#endif // STEMS_FAULT_FAULT_HH
