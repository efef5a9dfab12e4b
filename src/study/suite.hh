/**
 * @file
 * Suite-level helpers for the benchmark harnesses: scaled default
 * trace lengths (env-tunable), a trace cache so parameter sweeps reuse
 * generated workloads, and group aggregation in the paper's four
 * classes.
 */

#ifndef STEMS_STUDY_SUITE_HH
#define STEMS_STUDY_SUITE_HH

#include <atomic>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "trace/access.hh"
#include "trace/stream.hh"
#include "workloads/workload.hh"

namespace stems::study {

/**
 * Default workload parameters for benches. Honours two environment
 * knobs: STEMS_REFS_PER_CPU (absolute) and STEMS_SCALE (multiplier on
 * the default), so `STEMS_SCALE=4 ./fig04_blocksize` quadruples trace
 * length.
 */
workloads::WorkloadParams defaultParams(uint64_t refs_per_cpu = 100000);

/**
 * Fingerprint of everything that determines a workload's interleaved
 * reference stream: suite name, generation parameters, the interleave
 * schedule, and a generator version that is bumped whenever workload
 * or interleaver code changes behaviour. Stored in .stmt headers so
 * stale spill files from incompatible generators are rejected instead
 * of silently replayed.
 */
uint64_t generatorConfigHash(const std::string &name,
                             const workloads::WorkloadParams &p);

/**
 * Generates-once, reuses-thereafter trace storage for sweeps.
 *
 * The cache's unit of storage is a trace::StreamSet — per-CPU stream
 * views behind one ownership model. Freshly-generated workloads are
 * owned vectors; spill replay hands out a zero-copy mapped backing
 * (trace::MappedTrace), so replaying a cell never materialises the
 * trace at all. Consumers (study::runSystem, study::runL1Study,
 * sim::runTiming) take the set through viewSet().
 *
 * Thread-safe: concurrent calls for the same key block until the
 * first caller finishes generating; returned references stay valid for
 * the cache's lifetime. With a spill directory set, generation is
 * replaced by record/replay through trace::writeTraceStreams /
 * MappedTrace::open so expensive workloads are generated once across
 * processes. Spill files embed generatorConfigHash(); mismatching,
 * truncated, corrupt, unmappable or old-format files are rejected up
 * front — before any view is handed out — and regenerated.
 */
class TraceCache
{
  public:
    TraceCache() = default;

    /**
     * Record/replay traces as <dir>/<key>.stmt: a lookup first tries
     * to read the file; on miss it generates and writes it. Best
     * effort — unreadable, stale or missing files fall back to live
     * generation. Call before the first lookup; creates @p dir if
     * needed.
     */
    void setSpillDir(const std::string &dir);

    /**
     * The spill file for @p name under @p p:
     * <dir>/<name>_<ncpu>_<refs>_<seed>.stmt ("" without a spill dir).
     */
    std::string spillPath(const std::string &name,
                          const workloads::WorkloadParams &p) const;

    /**
     * Stream views for suite entry @p name under @p p (cached) — the
     * primary entry for zero-copy consumers. The returned set stays
     * valid for the cache's lifetime.
     */
    const trace::StreamSet &
    viewSet(const std::string &name, const workloads::WorkloadParams &p);

    /**
     * Build (generate-or-replay) the set for @p name ahead of its
     * consumer, without counting a cache lookup — the look-ahead
     * warmer's entry. Safe to race with viewSet().
     */
    void prepare(const std::string &name,
                 const workloads::WorkloadParams &p);

    /** Whether the set for @p name is already built (non-blocking). */
    bool ready(const std::string &name,
               const workloads::WorkloadParams &p);

  private:
    struct Slot
    {
        std::once_flag setOnce;
        trace::StreamSet set;
        std::atomic<bool> prepared{false};
        std::atomic<bool> looked{false};  //!< a counted lookup happened
    };

    static std::string slotKey(const std::string &name,
                               const workloads::WorkloadParams &p);

    Slot &slot(const std::string &name,
               const workloads::WorkloadParams &p);

    const trace::StreamSet &viewSetImpl(const std::string &name,
                                        const workloads::WorkloadParams &p,
                                        bool count_lookup);

    std::string spillDir;
    std::mutex mu;                      //!< guards slots map shape
    std::map<std::string, Slot> slots;  //!< node-stable storage
};

/** The paper's four workload groups, in figure order. */
const std::vector<std::string> &groupNames();

/** Names of suite entries belonging to @p group. */
std::vector<std::string> workloadsInGroup(const std::string &group);

} // namespace stems::study

#endif // STEMS_STUDY_SUITE_HH
