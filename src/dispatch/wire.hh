/**
 * @file
 * The stems wire: every message and every frame that crosses a pipe,
 * a socket or a journal file, and the one codec that builds, splits
 * and counts those frames.
 *
 * Framing. One frame is `<decimal byte length>\n<json>\n`. The
 * length prefix makes framing trivial and the trailing newline keeps
 * a captured stream human-readable (`stems worker` under a terminal
 * prints one JSON document per line). frameBytes() builds a frame;
 * FrameDecoder splits a byte stream into frames; writeFrame() and
 * readFrame() move frames over a file descriptor. Nothing else in the
 * tree builds or scans a length prefix.
 *
 * Caps. A FrameDecoder rejects (std::invalid_argument) any frame
 * whose announced length exceeds its cap: kFrameMaxBytes (64 MiB) by
 * default, kHelloMaxBytes for the first frame on a socket. The prefix
 * is checked as its bytes arrive, so a peer can make the decoder
 * buffer at most one capped frame: a prefix with more digits than the
 * cap has is rejected before its newline shows up, and a non-digit is
 * rejected at once.
 *
 * Counters. writeFrame()/readFrame() take the telemetry family they
 * feed (Tally): Wire counts wire_bytes_sent/received, the dispatch
 * protocol on pipes and sockets alike; Socket counts socket_bytes_*,
 * the serve layer's own frames (hellos, submit and its replies);
 * None counts nothing (journal files).
 *
 * Dispatch messages (coordinator <-> worker, over a pipe or socket):
 *   coordinator -> worker:  init, cell*, shutdown
 *   worker -> coordinator:  ready, heartbeat*, result*
 *
 * Serve messages (socket connections only):
 *   either side first:      hello (both ways), or error and close
 *   client -> daemon:       submit (the spec's raw key=value tokens)
 *   daemon -> client:       admitted (request id; queueing may
 *                           follow), then report (the run's sink
 *                           texts, verbatim) | rejected | error
 *
 * Journal files (dispatch/journal.hh) are a header frame
 * `{"type":"journal",...}` followed by result frames.
 *
 * Hello. The connecting side writes a hello frame first
 * (`{"type":"hello","protocol":N,"role":"...","pid":P}`) and the
 * accepting side validates it before anything else rides the
 * connection: the protocol number must match kProtocolVersion
 * exactly, the role must be the expected one, and the frame must fit
 * kHelloMaxBytes, so a hostile peer cannot make the acceptor buffer
 * an arbitrary frame before version agreement. On success the
 * acceptor replies with its own hello; on any violation it sends an
 * error frame and closes. The same protocol constant versions pipe
 * and socket peers, so a pipe coordinator and a socket daemon can
 * never silently disagree about frame contents.
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
 * be byte-identical to a single-process run. A report travels as the
 * exact sink texts `stems run` would have written, so byte identity
 * survives the serve transport too.
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
 * look ahead). Protocol v8 moved the oracle region sizes from init to
 * each cell job ("oracle"): init now carries no setting a cell reads,
 * so a cell's encoding — and a journal's spec fingerprint — covers
 * everything it measures.
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
#include <string_view>
#include <vector>

#include "dispatch/json.hh"
#include "driver/executor.hh"
#include "driver/spec.hh"

namespace stems::dispatch {

/** Wire protocol version; bumped on incompatible message changes. */
constexpr uint32_t kProtocolVersion = 8;

/** Worker-process settings shipped before any cells; no cell reads
 *  them (everything a cell measures rides its cell job). */
struct WorkerInit
{
    uint32_t protocol = kProtocolVersion;
    std::string traceDir;  //!< shared .stmt spill dir ("" = live gen)
    bool trace = false;    //!< enable the worker's span recorder (v4)
    uint32_t heartbeatMs = 0;  //!< liveness frame period (v5; 0 = off)
};

// dispatch messages (each payload is one self-contained JSON document)

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

// serve messages

/**
 * What a serve request came to. The daemon encodes it as report,
 * rejected or error; the client decodes any of those, or admitted,
 * back into one.
 */
struct RequestOutcome
{
    enum class Status
    {
        Done,      //!< report built (individual cells may error)
        Rejected,  //!< admission queue full — reason says so
        Error,     //!< bad spec or service shutdown
        Admitted   //!< wire-only interim ack (id assigned)
    };
    Status status = Status::Error;
    std::string reason;  //!< rejection/error detail
    std::string json;    //!< report texts ("" = sink not requested)
    std::string csv;
    std::string table;
    uint32_t failed = 0;     //!< cells that ended with an error
    uint64_t replayed = 0;   //!< cells seeded from a journal
    uint64_t id = 0;         //!< request id (admission order)
};

/** This process's hello as @p role ("client", "serve", ...). */
std::string encodeHello(const std::string &role);

/** `{"type":"error","message":...}` (also the daemon's NACK). */
std::string encodeError(const std::string &message);

std::string encodeSubmit(const std::vector<std::string> &tokens);
std::vector<std::string> decodeSubmit(const JsonValue &msg);

std::string encodeAdmitted(uint64_t id);

std::string encodeRejected(const std::string &reason);

std::string encodeReport(const RequestOutcome &outcome);

/**
 * Decode any daemon response frame (admitted/report/rejected/error).
 * "admitted" only fills id — the caller keeps waiting for the
 * terminal frame.
 */
RequestOutcome decodeResponse(const JsonValue &msg);

// framing

/** The largest frame payload any decoder accepts by default. */
constexpr size_t kFrameMaxBytes = 64u << 20;

/** The largest hello frame payload an acceptor buffers. */
constexpr size_t kHelloMaxBytes = 4096;

/** The telemetry family a framed read or write counts into. */
enum class Tally
{
    None,   //!< journal files
    Wire,   //!< wire_bytes_sent/received: dispatch protocol frames
    Socket  //!< socket_bytes_sent/received: serve-layer frames
};

/** The bytes of one frame carrying @p payload. */
std::string frameBytes(const std::string &payload);

/**
 * Incremental frame splitter: feed() raw bytes, next() yields
 * complete JSON payloads as they become available.
 */
class FrameDecoder
{
  public:
    /** @param maxBytes the largest payload next() accepts */
    explicit FrameDecoder(size_t maxBytes = kFrameMaxBytes);

    void feed(const char *data, size_t len) { buf.append(data, len); }

    /**
     * Extract the next complete frame into @p out.
     * @return true when a frame was produced.
     * Throws std::invalid_argument on a corrupt or empty length
     * prefix, a frame over the cap, or a missing terminator.
     */
    bool next(std::string &out);

    /** Stream offset just past the last frame next() produced. */
    uint64_t offset() const { return offset_; }

    /** Bytes fed but not yet produced as frames. */
    std::string_view pending() const
    {
        return std::string_view(buf).substr(consumed);
    }

  private:
    std::string buf;
    size_t consumed = 0;   //!< bytes of buf already produced
    uint64_t offset_ = 0;  //!< total bytes produced
    size_t maxBytes;
    size_t maxDigits;      //!< decimal digits of maxBytes
};

/**
 * Write all of @p bytes, handling partial writes and EINTR.
 * @return false when the write fails (errno says why; EPIPE when the
 *         peer is gone and SIGPIPE is ignored).
 */
bool writeAll(int fd, std::string_view bytes, Tally tally);

/** Write one frame. @return false when the peer is gone. */
bool writeFrame(int fd, const std::string &payload,
                Tally tally = Tally::Wire);

/**
 * Blocking read of the next frame from @p fd.
 * @return false on EOF or read error. Throws like FrameDecoder::next.
 */
bool readFrame(int fd, FrameDecoder &decoder, std::string &out,
               Tally tally = Tally::Wire);

/** A validated peer hello. */
struct Hello
{
    uint32_t protocol = 0;
    std::string role;
    int64_t pid = 0;
};

/**
 * Read and validate the peer's hello, the first frame on a fresh
 * socket, under the kHelloMaxBytes cap. Bytes behind the hello are
 * fed to @p decoder, the connection's decoder for later frames.
 * Counts socket bytes.
 * @return false with @p err describing the violation: oversized
 *         frame, corrupt prefix, unparsable JSON, wrong message
 *         type, protocol mismatch, or unexpected role.
 */
bool readHello(int fd, FrameDecoder &decoder,
               const std::string &expectRole, Hello &out,
               std::string &err);

} // namespace stems::dispatch

#endif // STEMS_DISPATCH_WIRE_HH
