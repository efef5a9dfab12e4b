/**
 * @file
 * The dispatch wire protocol: length-prefixed newline-JSON frames over
 * pipes between the coordinator and its worker processes.
 *
 * One frame is `<decimal byte length>\n<json>\n`. The length prefix
 * makes framing trivial and the trailing newline keeps a captured
 * stream human-readable (`stems worker` under a terminal prints one
 * JSON document per line).
 *
 * Message flow:
 *   coordinator -> worker:  init, cell*, shutdown
 *   worker -> coordinator:  ready, heartbeat*, result*
 *
 * Since protocol v5, the coordinator may request liveness heartbeats
 * (init "heartbeat_ms" > 0): a worker thread then emits "heartbeat"
 * frames on that period, letting the coordinator kill a wedged worker
 * fast without any per-cell timeout — a slow cell keeps heartbeating,
 * a hung process does not. Cell jobs also carry the coordinator's
 * attempt number ("attempt", a sibling of the "cell" object so cell
 * fingerprints stay attempt-independent), which seeds deterministic
 * fault injection (src/fault/) and first-attempt-only chaos clauses.
 *
 * Doubles (uIPC, wall times) travel as C99 hexfloat strings so metric
 * values survive the round trip bit-exactly — the merged report must
 * be byte-identical to a single-process run.
 *
 * Since protocol v4, messages carry observability fields: init has
 * "trace" (enable the worker's span recorder) and result has
 * "telemetry" — the worker's per-cell phase wall times, a process
 * counter snapshot, peak RSS, and (when tracing) its buffered spans,
 * which the coordinator re-tags with the worker pid and merges into
 * one machine-wide trace timeline.
 *
 * Every field is required: decodeInit rejects any protocol version
 * but its own, and journals are written by the same encoder. Protocol
 * v7 dropped v6's advisory "prefetch" frame (worker processes never
 * look ahead). The same protocol constant versions the serve-layer
 * socket hello handshake (src/serve/), so a pipe coordinator and a
 * socket daemon can never silently disagree about frame contents.
 *
 * Since protocol v3, result metrics are schema-driven: the encoder
 * iterates the MetricSchema and writes every present family under its
 * canonical name with a kind-appropriate encoding (counters as
 * numbers, values as hexfloat strings, histograms/vectors as arrays,
 * timing passes as mixed arrays). Ratio families never travel — they
 * are derived from the folded operands on both ends. A new metric
 * family therefore rides the wire with no protocol edit.
 */

#ifndef STEMS_DISPATCH_WIRE_HH
#define STEMS_DISPATCH_WIRE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "dispatch/json.hh"
#include "driver/executor.hh"
#include "driver/spec.hh"

namespace stems::dispatch {

/** Wire protocol version; bumped on incompatible message changes. */
constexpr uint32_t kProtocolVersion = 7;

/** Spec-global settings shipped to a worker before any cells. */
struct WorkerInit
{
    uint32_t protocol = kProtocolVersion;
    std::string traceDir;  //!< shared .stmt spill dir ("" = live gen)
    std::vector<uint32_t> oracleRegionSizes;
    bool trace = false;    //!< enable the worker's span recorder (v4)
    uint32_t heartbeatMs = 0;  //!< liveness frame period (v5; 0 = off)
};

// message payloads (each is one self-contained JSON document)

std::string encodeInit(const WorkerInit &init);
WorkerInit decodeInit(const JsonValue &msg);

std::string encodeReady(int pid);

/**
 * @param attempt the coordinator's 1-based try counter for this cell,
 *        shipped OUTSIDE the "cell" object so the cell encoding (and
 *        hence journal spec fingerprints) stays attempt-independent
 */
std::string encodeCellJob(const driver::RunCell &cell,
                          uint32_t attempt = 1);
driver::RunCell decodeCellJob(const JsonValue &msg);

/** The "attempt" field of a cell job (1 when absent). */
uint32_t decodeCellAttempt(const JsonValue &msg);

std::string encodeHeartbeat();

std::string encodeResult(const driver::CellResult &result);
/** Decodes metrics/error; the cell field carries only the id. */
driver::CellResult decodeResult(const JsonValue &msg);

std::string encodeShutdown();

/** The "type" member of a decoded message. */
const std::string &messageType(const JsonValue &msg);

// framing

/**
 * Incremental frame splitter: feed() raw pipe bytes, next() yields
 * complete JSON payloads as they become available.
 */
class FrameDecoder
{
  public:
    void feed(const char *data, size_t len) { buf.append(data, len); }

    /**
     * Extract the next complete frame into @p out.
     * @return true when a frame was produced.
     * Throws std::invalid_argument on a corrupt length prefix.
     */
    bool next(std::string &out);

  private:
    std::string buf;
    size_t consumed = 0;
};

/**
 * Write one frame, handling partial writes and EINTR.
 * @return false when the peer is gone (EPIPE/closed fd).
 */
bool writeFrame(int fd, const std::string &payload);

/**
 * Blocking read of the next frame from @p fd.
 * @return false on EOF or read error.
 */
bool readFrame(int fd, FrameDecoder &decoder, std::string &out);

} // namespace stems::dispatch

#endif // STEMS_DISPATCH_WIRE_HH
