/**
 * @file
 * ExperimentService: the long-lived heart of `stems serve`. One
 * process-resident driver::Runner pool of `fleet` lanes serves spec
 * submissions for as long as the daemon lives, with everything a
 * batch run would have to rebuild kept warm between requests:
 *
 *  - One executor. Every request runs through the daemon's one
 *    driver::CellExecutor: a RunCell carries every setting its
 *    passes read, so specs need no executor of their own. Its
 *    TraceCache and baseline-pass memo survive across requests, so
 *    resubmitting a spec (or submitting a sibling that shares
 *    workloads) skips trace generation and baseline passes entirely;
 *    each engine cell walks its own pass, as in a batch run. Warm
 *    reuse is visible as serve_cache_warm_hits (cells whose trace was
 *    already prepared at admission time).
 *
 *  - Admission queuing. At most maxActive requests execute at once;
 *    up to maxQueued more wait FIFO; beyond that submissions are
 *    rejected immediately with a reason (bounded backlog — a burst
 *    degrades to fast rejections, never to an unbounded queue).
 *
 *  - One scheduler per request. Each request's cells sit in a
 *    driver::CellScheduler that is attached to the pool when the
 *    request is admitted, so the lanes drain the earliest-admitted
 *    request first and the pool's warmer prepares its traces, exactly
 *    as under `stems run`. Claim order, placement by cell index and
 *    journal seeding all come from the scheduler.
 *
 *  - Per-request journals. With journalDir set, each request appends
 *    to a crash-safe journal named by its spec fingerprint through
 *    its scheduler's completion hook; a killed daemon warm-restarts
 *    when the same spec is resubmitted, and the journaled cells seed
 *    the scheduler instead of running again. The journal is deleted
 *    once its report has been built.
 *
 * Reports are built with the same driver::toJson/toCsv/toTable the
 * CLI uses, on the spec parsed from the submitted tokens — so a
 * report fetched through `stems submit` is byte-identical to
 * `stems run` on the same spec, whatever mix of warm caches and
 * journal replay produced the results.
 *
 * Execution-policy keys in a submitted spec (dispatch=, workers=,
 * journal=, fault-plan=, threads=) are ignored: the daemon owns its
 * fleet shape and durability. Output-path keys are honoured
 * client-side.
 */

#ifndef STEMS_SERVE_SERVICE_HH
#define STEMS_SERVE_SERVICE_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "dispatch/wire.hh"
#include "driver/executor.hh"
#include "driver/runner.hh"
#include "driver/spec.hh"

namespace stems::serve {

class ExperimentService
{
  public:
    struct Config
    {
        uint32_t fleet = 0;      //!< pool lanes (0 = all cores)
        uint32_t maxActive = 2;  //!< concurrently executing requests
        uint32_t maxQueued = 8;  //!< waiting requests before rejection
        std::string journalDir;  //!< per-request journals ("" = off)
        std::string traceDir;    //!< spill dir ("" = temp dir)
    };

    /** One submission's outcome, shipped back as a wire message. */
    using Outcome = dispatch::RequestOutcome;

    explicit ExperimentService(Config config);
    ~ExperimentService();

    /**
     * Submit one experiment (the raw key=value tokens of a spec) and
     * block until its report is built, it is rejected, or the
     * service stops. Safe to call from many threads — that IS the
     * multi-client case.
     * @param onAdmitted invoked (on this thread, outside the service
     *        lock) with the request id once it leaves the queue and
     *        starts executing — the daemon's "admitted" ack
     */
    Outcome submit(const std::vector<std::string> &tokens,
                   const std::function<void(uint64_t)> &onAdmitted =
                       {});

    /** Requests currently executing (tests poll this). */
    size_t activeRequests() const;

    /**
     * Stop the lanes. Queued and in-flight requests fail with
     * "service stopped"; their journals survive for warm restart.
     */
    void stop();

  private:
    struct Request;

    void activateLocked();

    Config cfg;
    std::string ownedTraceDir;  //!< temp spill dir we created

    mutable std::mutex mu;
    std::condition_variable stateCv;  //!< submitters: request state
    bool stopping = false;
    uint64_t nextId = 0;
    std::deque<std::shared_ptr<Request>> queued;
    std::vector<std::shared_ptr<Request>> active;
    /** Every request's cells run here, whatever their spec. */
    driver::CellExecutor executor;

    /** Declared last: its lanes use the executor above. */
    driver::Runner lanes;
};

} // namespace stems::serve

#endif // STEMS_SERVE_SERVICE_HH
