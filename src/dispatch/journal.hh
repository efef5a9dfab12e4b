/**
 * @file
 * Crash-safe run durability: every completed cell's result is appended
 * to a journal file (`--journal=FILE`), and `stems run --resume` skips
 * the journaled cells and splices them into the final report
 * byte-identically to an uninterrupted run.
 *
 * The journal is a sequence of wire frames (dispatch/wire.hh): a
 * header frame
 *
 *   {"type":"journal","version":1,"spec":"<hex fingerprint>","cells":N}
 *
 * followed by one `encodeResult` frame per completed cell — the same
 * hexfloat encoding the dispatch wire uses, so metric values survive
 * the journal round trip bit-exactly. Appends are fsync'd, so a
 * SIGKILLed coordinator loses at most the cell in flight; a torn tail
 * frame (killed mid-write) is detected on resume and truncated away.
 *
 * The spec fingerprint hashes every selected cell's wire encoding,
 * which carries every setting a cell reads (oracle region sizes
 * included): resuming under a different spec (or a different cells=
 * filter) is rejected instead of splicing unrelated results.
 * Duplicate frames for one cell fold first-ok-wins, mirroring
 * `stems merge`.
 */

#ifndef STEMS_DISPATCH_JOURNAL_HH
#define STEMS_DISPATCH_JOURNAL_HH

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "dispatch/coordinator.hh"
#include "driver/scheduler.hh"
#include "driver/spec.hh"

namespace stems::dispatch {

/** FNV-1a over every cell's wire encoding (order-sensitive). */
uint64_t specFingerprint(const std::vector<driver::RunCell> &cells);

/** What readJournal recovers from a journal's bytes. */
struct JournalContents
{
    bool hasHeader = false;  //!< false: empty, or torn inside the header
    std::string spec;        //!< the header's spec fingerprint (hex)
    /** Error-free results by cell id, first-ok-wins. */
    std::map<uint32_t, driver::CellResult> results;
    /** Offset past the last whole frame: the torn tail starts here. */
    uint64_t cleanEnd = 0;
};

/**
 * Parse a journal file's bytes: the one reader behind resume.
 * Scanning stops at the first torn,
 * corrupt or non-result frame. Throws std::invalid_argument when the
 * first frame is not a version-1 journal header.
 */
JournalContents readJournal(const std::string &bytes);

/** Append-only result journal with torn-tail recovery. */
class RunJournal
{
  public:
    RunJournal() = default;
    ~RunJournal();
    RunJournal(const RunJournal &) = delete;
    RunJournal &operator=(const RunJournal &) = delete;

    /**
     * Open @p path for appending. With @p resume, an existing file is
     * parsed first: its header must carry @p specHash (else
     * std::invalid_argument), complete result frames are recovered
     * into replayed(), and a torn tail is truncated so appends land
     * on a clean frame boundary. Without @p resume the file is
     * created fresh (truncated) with a new header frame.
     */
    void open(const std::string &path, uint64_t specHash,
              uint64_t cellCount, bool resume);

    bool isOpen() const { return fd_ >= 0; }

    /**
     * Results recovered by a resume open, keyed by cell id; only
     * error-free results are kept (errored cells re-run, first-ok-
     * wins like stems merge).
     */
    const std::map<uint32_t, driver::CellResult> &replayed() const
    {
        return replayed_;
    }

    /**
     * Append one completed cell (encodeResult frame + fsync). A write
     * failure warns and disables the journal — durability must not
     * take down the run itself.
     */
    void append(const driver::CellResult &result);

    void close();

  private:
    int fd_ = -1;
    std::string path_;
    std::map<uint32_t, driver::CellResult> replayed_;
};

/** Sees a run's scheduler once it is seeded, before any cell runs. */
using StartFn = std::function<void(const driver::CellScheduler &)>;

/**
 * The one spec-execution entry point the CLI and tests share: honours
 * spec.faultPlan (installed process-wide and exported as STEMS_FAULTS
 * so dispatched workers inherit it), spec.journalPath / spec.resume
 * (journaled cells seed the scheduler and are never claimed; every
 * completed cell is appended), and spec.dispatch (Coordinator vs
 * driver::drainInProcess on the same driver::CellScheduler). Results
 * are ordered by cell index, so reports are byte-identical across
 * in-process, dispatched, resumed, and merged paths.
 *
 * @param progress   forwarded per completed cell (journaled cells
 *                   replayed on resume do NOT re-fire progress)
 * @param workerStatsOut per-worker health stats when dispatched
 * @param wallMsOut  the run's wall ms (0 when everything replayed)
 * @param onStart    called once journal seeding is done: the cells
 *                   not yet done() are the ones this call executes
 */
std::vector<driver::CellResult>
runSpec(const driver::ExperimentSpec &spec,
        const driver::ProgressFn &progress = {},
        std::vector<WorkerStats> *workerStatsOut = nullptr,
        double *wallMsOut = nullptr, const StartFn &onStart = {});

} // namespace stems::dispatch

#endif // STEMS_DISPATCH_JOURNAL_HH
