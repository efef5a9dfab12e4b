#include "dispatch/worker.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <cstdlib>
#include <iostream>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unistd.h>

#include "dispatch/wire.hh"
#include "driver/executor.hh"
#include "fault/fault.hh"
#include "obs/counters.hh"
#include "obs/obs.hh"

namespace stems::dispatch {

namespace {

/**
 * Liveness heartbeats: a background thread frames "heartbeat" onto the
 * worker's stdout every period, sharing @p wireMu with result writes so
 * frames never interleave. The fault injector's Hang clause wedges the
 * worker *holding* that mutex — heartbeats stop exactly like they would
 * for a real deadlock, which is what the coordinator's liveness check
 * keys on (a merely slow cell keeps beating).
 */
class HeartbeatThread
{
  public:
    HeartbeatThread(int outFd, uint32_t periodMs, std::mutex &wireMu)
        : outFd(outFd), periodMs(periodMs), wireMu(wireMu)
    {
        if (periodMs > 0)
            thread = std::thread([this] { run(); });
    }

    ~HeartbeatThread()
    {
        {
            std::lock_guard<std::mutex> lk(mu);
            stop = true;
        }
        cv.notify_all();
        if (thread.joinable())
            thread.join();
    }

  private:
    void run()
    {
        const std::string beat = encodeHeartbeat();
        std::unique_lock<std::mutex> lk(mu);
        for (;;) {
            cv.wait_for(lk, std::chrono::milliseconds(periodMs),
                        [this] { return stop; });
            if (stop)
                return;
            std::lock_guard<std::mutex> wire(wireMu);
            if (!writeFrame(outFd, beat))
                return;  // coordinator went away; the main loop exits
        }
    }

    int outFd;
    uint32_t periodMs;
    std::mutex &wireMu;
    std::mutex mu;
    std::condition_variable cv;
    bool stop = false;
    std::thread thread;
};

} // anonymous namespace

int
runWorker(int inFd, int outFd)
{
    // a dying coordinator must surface as a failed write, not SIGPIPE
    std::signal(SIGPIPE, SIG_IGN);

    // chaos plan (STEMS_FAULTS); worker-context clauses fire at the
    // injection sites below, spill clauses inside the .stmt writer
    fault::installFromEnv();

    FrameDecoder decoder;
    std::string payload;

    // handshake: the first frame carries the spec-global settings
    if (!readFrame(inFd, decoder, payload))
        return 0;  // coordinator went away before init
    std::unique_ptr<driver::CellExecutor> executor;
    uint32_t heartbeatMs = 0;
    try {
        const JsonValue msg = parseJson(payload);
        if (messageType(msg) != "init") {
            std::cerr << "stems worker: expected init, got "
                      << messageType(msg) << "\n";
            return 2;
        }
        const WorkerInit init = decodeInit(msg);
        executor = std::make_unique<driver::CellExecutor>(
            driver::CellExecutor::Config{init.traceDir});
        heartbeatMs = init.heartbeatMs;
        if (init.trace) {
            obs::Recorder::get().enable();
            obs::setThreadName("worker");
        }
    } catch (const std::exception &e) {
        std::cerr << "stems worker: bad init: " << e.what() << "\n";
        return 2;
    }

    std::mutex wireMu;  //!< serializes result and heartbeat frames
    {
        std::lock_guard<std::mutex> wire(wireMu);
        if (!writeFrame(outFd, encodeReady(::getpid())))
            return 0;
    }
    HeartbeatThread heartbeats(outFd, heartbeatMs, wireMu);

    while (readFrame(inFd, decoder, payload)) {
        try {
            const JsonValue msg = parseJson(payload);
            const std::string &type = messageType(msg);
            if (type == "shutdown")
                return 0;
            if (type != "cell") {
                std::cerr << "stems worker: unexpected message \""
                          << type << "\"\n";
                return 2;
            }
            const driver::RunCell cell = decodeCellJob(msg);
            fault::setCellContext(cell.id, decodeCellAttempt(msg));

            if (fault::cellFault(fault::Kind::Crash))
                ::_exit(137);  // simulated SIGKILL mid-cell
            if (const fault::Clause *hang =
                    fault::cellFault(fault::Kind::Hang)) {
                // wedge with the wire lock held: heartbeats stop too,
                // exactly like a real deadlock would look
                std::lock_guard<std::mutex> wire(wireMu);
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(hang->hangMs));
            }

            driver::CellResult result;
            {
                obs::Span span("worker_cell",
                               {{"cell", std::to_string(cell.id)},
                                {"workload", cell.workload}});
                result = executor->execute(cell);
            }
            // the v4 telemetry sidecar: this process's counter
            // snapshot + peak RSS, and (when tracing) the spans
            // buffered since the last result
            result.telemetry.counters = obs::snapshotCounters();
            result.telemetry.rssKb = obs::peakRssKb();
            if (obs::Recorder::get().enabled())
                result.telemetry.spans = obs::Recorder::get().drain();

            if (fault::cellFault(fault::Kind::Garbage)) {
                // a validly-framed but unparseable payload: exercises
                // the coordinator's decode-hardening path
                std::lock_guard<std::mutex> wire(wireMu);
                writeFrame(outFd, "{\"type\":\"result\",!garbage!");
                fault::clearCellContext();
                continue;  // coordinator reaps us; nothing else to do
            }
            if (fault::cellFault(fault::Kind::Truncate)) {
                // torn wire write: half a frame, then death
                const std::string frame =
                    frameBytes(encodeResult(result));
                std::lock_guard<std::mutex> wire(wireMu);
                writeAll(outFd,
                         std::string_view(frame).substr(
                             0, frame.size() / 2),
                         Tally::None);
                ::_exit(137);
            }

            fault::clearCellContext();
            std::lock_guard<std::mutex> wire(wireMu);
            if (!writeFrame(outFd, encodeResult(result)))
                return 0;  // coordinator went away
        } catch (const std::exception &e) {
            // a malformed frame is a protocol failure, not a cell
            // error — die loudly and let the coordinator re-queue
            std::cerr << "stems worker: protocol error: " << e.what()
                      << "\n";
            return 2;
        }
    }
    return 0;  // EOF: coordinator closed our stdin
}

} // namespace stems::dispatch
