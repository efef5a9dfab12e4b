#include "dispatch/wire.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <stdexcept>
#include <unistd.h>

#include "driver/report.hh"
#include "obs/counters.hh"

namespace stems::dispatch {

namespace {

using driver::JsonWriter;
using driver::writeOptions;

/** Bit-exact double encoding (C99 hexfloat; strtod round-trips it). */
std::string
hexDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", v);
    return buf;
}

driver::Options
readOptions(const JsonValue &v)
{
    driver::Options out;
    for (const auto &[k, val] : v.members)
        out[k] = val.asString();
    return out;
}

/**
 * [size, assoc, block, 0]. The fourth element once named a
 * replacement policy; it stays, always 0 (LRU), so protocol v7 cell
 * bytes and journal spec fingerprints do not change.
 */
void
writeCacheConfig(JsonWriter &j, const mem::CacheConfig &c)
{
    j.beginArray();
    j.value(c.sizeBytes);
    j.value(uint64_t{c.assoc});
    j.value(uint64_t{c.blockSize});
    j.value(uint64_t{0});
    j.endArray();
}

mem::CacheConfig
readCacheConfig(const JsonValue &v)
{
    if (v.kind != JsonValue::Kind::Array || v.items.size() != 4)
        throw std::invalid_argument("wire: bad cache config");
    mem::CacheConfig c;
    c.sizeBytes = v.items[0].asU64();
    c.assoc = static_cast<uint32_t>(v.items[1].asU64());
    c.blockSize = static_cast<uint32_t>(v.items[2].asU64());
    if (v.items[3].asU64() != 0)
        throw std::invalid_argument("wire: cache replacement must be 0");
    return c;
}

void
writeU64Array(JsonWriter &j, const std::vector<uint64_t> &values)
{
    j.beginArray();
    for (uint64_t v : values)
        j.value(v);
    j.endArray();
}

std::vector<uint64_t>
readU64Array(const JsonValue &v)
{
    std::vector<uint64_t> out;
    out.reserve(v.items.size());
    for (const auto &item : v.items)
        out.push_back(item.asU64());
    return out;
}

/**
 * One timing pass as [cycles, user_instr, sys_instr, 6x breakdown];
 * doubles ride as hexfloat strings for bit-exact round trips.
 */
void
writeTimingResult(JsonWriter &j, const sim::TimingResult &t)
{
    j.beginArray();
    j.value(hexDouble(t.cycles));
    j.value(t.userInstructions);
    j.value(t.systemInstructions);
    j.value(hexDouble(t.breakdown.userBusy));
    j.value(hexDouble(t.breakdown.systemBusy));
    j.value(hexDouble(t.breakdown.offChipRead));
    j.value(hexDouble(t.breakdown.onChipRead));
    j.value(hexDouble(t.breakdown.storeBuffer));
    j.value(hexDouble(t.breakdown.other));
    j.endArray();
}

/**
 * The v4 result telemetry sidecar: phase wall times (hexfloat ms),
 * a worker counter snapshot, peak RSS, and the worker's buffered
 * spans as [name, ph, ts_ns, dur_ns, tid, {args}] tuples.
 */
void
writeTelemetry(JsonWriter &j, const obs::CellTelemetry &t)
{
    j.beginObject();
    j.key("phases").beginArray();
    for (const auto &[name, ms] : t.phases) {
        j.beginArray();
        j.value(name);
        j.value(hexDouble(ms));
        j.endArray();
    }
    j.endArray();
    j.key("counters").beginArray();
    for (const auto &[name, count] : t.counters) {
        j.beginArray();
        j.value(name);
        j.value(count);
        j.endArray();
    }
    j.endArray();
    j.key("rss_kb").value(t.rssKb);
    j.key("spans").beginArray();
    for (const auto &e : t.spans) {
        j.beginArray();
        j.value(e.name);
        j.value(std::string(1, e.phase));
        j.value(e.tsNs);
        j.value(e.durNs);
        j.value(uint64_t{e.tid});
        j.beginObject();
        for (const auto &[k, v] : e.args)
            j.key(k).value(v);
        j.endObject();
        j.endArray();
    }
    j.endArray();
    j.endObject();
}

obs::CellTelemetry
readTelemetry(const JsonValue &v)
{
    obs::CellTelemetry t;
    if (const JsonValue *phases = v.find("phases"))
        for (const auto &pair : phases->items) {
            if (pair.items.size() != 2)
                throw std::invalid_argument("wire: bad phase pair");
            t.phases.emplace_back(pair.items[0].asString(),
                                  pair.items[1].asDouble());
        }
    if (const JsonValue *counters = v.find("counters"))
        for (const auto &pair : counters->items) {
            if (pair.items.size() != 2)
                throw std::invalid_argument("wire: bad counter pair");
            t.counters.emplace_back(pair.items[0].asString(),
                                    pair.items[1].asU64());
        }
    if (const JsonValue *rss = v.find("rss_kb"))
        t.rssKb = rss->asU64();
    if (const JsonValue *spans = v.find("spans"))
        for (const auto &tuple : spans->items) {
            if (tuple.items.size() != 6 ||
                tuple.items[1].asString().size() != 1)
                throw std::invalid_argument("wire: bad span tuple");
            obs::Event e;
            e.name = tuple.items[0].asString();
            e.phase = tuple.items[1].asString()[0];
            e.tsNs = tuple.items[2].asU64();
            e.durNs = tuple.items[3].asU64();
            e.tid = static_cast<uint32_t>(tuple.items[4].asU64());
            for (const auto &[k, val] : tuple.items[5].members)
                e.args.emplace_back(k, val.asString());
            t.spans.push_back(std::move(e));
        }
    return t;
}

sim::TimingResult
readTimingResult(const JsonValue &v)
{
    if (v.kind != JsonValue::Kind::Array || v.items.size() != 9)
        throw std::invalid_argument("wire: bad timing result");
    sim::TimingResult t;
    t.cycles = v.items[0].asDouble();
    t.userInstructions = v.items[1].asU64();
    t.systemInstructions = v.items[2].asU64();
    t.breakdown.userBusy = v.items[3].asDouble();
    t.breakdown.systemBusy = v.items[4].asDouble();
    t.breakdown.offChipRead = v.items[5].asDouble();
    t.breakdown.onChipRead = v.items[6].asDouble();
    t.breakdown.storeBuffer = v.items[7].asDouble();
    t.breakdown.other = v.items[8].asDouble();
    return t;
}

} // anonymous namespace

const std::string &
messageType(const JsonValue &msg)
{
    return msg.at("type").asString();
}

std::string
encodeInit(const WorkerInit &init)
{
    JsonWriter j;
    j.beginObject();
    j.key("type").value("init");
    j.key("protocol").value(uint64_t{init.protocol});
    j.key("trace_dir").value(init.traceDir);
    j.key("trace").value(init.trace);
    j.key("heartbeat_ms").value(uint64_t{init.heartbeatMs});
    j.endObject();
    return j.str();
}

WorkerInit
decodeInit(const JsonValue &msg)
{
    WorkerInit init;
    init.protocol = static_cast<uint32_t>(msg.at("protocol").asU64());
    if (init.protocol != kProtocolVersion)
        throw std::invalid_argument(
            "wire: protocol mismatch (coordinator " +
            std::to_string(init.protocol) + ", worker " +
            std::to_string(kProtocolVersion) + ")");
    init.traceDir = msg.at("trace_dir").asString();
    init.trace = msg.at("trace").asBool();
    init.heartbeatMs =
        static_cast<uint32_t>(msg.at("heartbeat_ms").asU64());
    return init;
}

std::string
encodeReady(int pid)
{
    JsonWriter j;
    j.beginObject();
    j.key("type").value("ready");
    j.key("pid").value(static_cast<uint64_t>(pid));
    j.endObject();
    return j.str();
}

std::string
encodeCellJob(const driver::RunCell &cell, uint32_t attempt)
{
    JsonWriter j;
    j.beginObject();
    j.key("type").value("cell");
    // attempt is a sibling of "cell" so the cell encoding, which is
    // the journal's spec fingerprint input, stays attempt-independent
    j.key("attempt").value(uint64_t{attempt});
    j.key("cell").beginObject();
    j.key("id").value(uint64_t{cell.id});
    j.key("workload").value(cell.workload);
    j.key("kind").value(cell.engine.kind);
    j.key("label").value(cell.engine.label);
    j.key("options");
    writeOptions(j, cell.engine.options);
    j.key("sweep");
    writeOptions(j, cell.sweepPoint);
    j.key("ncpu").value(uint64_t{cell.params.ncpu});
    j.key("refs").value(cell.params.refsPerCpu);
    j.key("seed").value(cell.params.seed);
    j.key("sys").beginObject();
    j.key("ncpu").value(uint64_t{cell.sys.ncpu});
    j.key("l1");
    writeCacheConfig(j, cell.sys.l1);
    j.key("l2");
    writeCacheConfig(j, cell.sys.l2);
    j.endObject();
    j.key("mode").value(driver::studyModeName(cell.mode));
    j.key("timing").value(cell.timing);
    j.key("timing_only").value(cell.timingOnly);
    j.key("density").value(uint64_t{cell.densityRegion});
    j.key("oracle").beginArray();
    for (uint32_t s : cell.oracleRegionSizes)
        j.value(uint64_t{s});
    j.endArray();
    j.endObject();
    j.endObject();
    return j.str();
}

driver::RunCell
decodeCellJob(const JsonValue &msg)
{
    const JsonValue &c = msg.at("cell");
    driver::RunCell cell;
    cell.id = static_cast<uint32_t>(c.at("id").asU64());
    cell.workload = c.at("workload").asString();
    cell.engine.kind = c.at("kind").asString();
    cell.engine.label = c.at("label").asString();
    cell.engine.options = readOptions(c.at("options"));
    cell.sweepPoint = readOptions(c.at("sweep"));
    cell.params.ncpu = static_cast<uint32_t>(c.at("ncpu").asU64());
    cell.params.refsPerCpu = c.at("refs").asU64();
    cell.params.seed = c.at("seed").asU64();
    const JsonValue &sys = c.at("sys");
    cell.sys.ncpu = static_cast<uint32_t>(sys.at("ncpu").asU64());
    cell.sys.l1 = readCacheConfig(sys.at("l1"));
    cell.sys.l2 = readCacheConfig(sys.at("l2"));
    const std::string &mode = c.at("mode").asString();
    if (mode == "system")
        cell.mode = driver::StudyMode::System;
    else if (mode == "l1")
        cell.mode = driver::StudyMode::L1;
    else
        throw std::invalid_argument("wire: bad mode \"" + mode + "\"");
    cell.timing = c.at("timing").asBool();
    cell.timingOnly = c.at("timing_only").asBool();
    cell.densityRegion = static_cast<uint32_t>(c.at("density").asU64());
    const JsonValue &oracle = c.at("oracle");
    if (oracle.kind != JsonValue::Kind::Array)
        throw std::invalid_argument("wire: bad oracle region sizes");
    for (const auto &s : oracle.items)
        cell.oracleRegionSizes.push_back(static_cast<uint32_t>(s.asU64()));
    return cell;
}

uint32_t
decodeCellAttempt(const JsonValue &msg)
{
    if (const JsonValue *attempt = msg.find("attempt"))
        return static_cast<uint32_t>(attempt->asU64());
    return 1;
}

std::string
encodeHeartbeat()
{
    return "{\"type\":\"heartbeat\"}";
}

std::string
encodeResult(const driver::CellResult &result)
{
    const driver::MetricSet &m = result.metrics;
    JsonWriter j;
    j.beginObject();
    j.key("type").value("result");
    j.key("id").value(uint64_t{result.cell.id});
    j.key("error").value(result.error);
    // schema-driven: every present family travels under its canonical
    // name; ratios are derived on both ends and never ride the wire
    j.key("metrics").beginObject();
    for (const auto &f : driver::MetricSchema::builtin().families()) {
        if (!m.present(f.id) || f.kind == driver::MetricKind::Ratio)
            continue;
        j.key(f.name);
        switch (f.kind) {
          case driver::MetricKind::Counter:
            j.value(m.u64(f.id));
            break;
          case driver::MetricKind::Value:
            j.value(hexDouble(m.value(f.id)));
            break;
          case driver::MetricKind::Histogram:
          case driver::MetricKind::Vector:
            writeU64Array(j, m.vec(f.id));
            break;
          case driver::MetricKind::Timing:
            writeTimingResult(j, m.timingResult(f.id));
            break;
          case driver::MetricKind::Ratio:
            break;
        }
    }
    j.endObject();
    j.key("counters").beginArray();
    for (const auto &[name, count] : m.pfCounters) {
        j.beginArray();
        j.value(name);
        j.value(count);
        j.endArray();
    }
    j.endArray();
    j.key("telemetry");
    writeTelemetry(j, result.telemetry);
    j.endObject();
    return j.str();
}

driver::CellResult
decodeResult(const JsonValue &msg)
{
    driver::CellResult out;
    out.cell.id = static_cast<uint32_t>(msg.at("id").asU64());
    out.error = msg.at("error").asString();
    driver::MetricSet &d = out.metrics;
    const driver::MetricSchema &schema = driver::MetricSchema::builtin();
    for (const auto &[name, value] : msg.at("metrics").members) {
        const driver::MetricFamily *f = schema.find(name);
        if (!f)
            throw std::invalid_argument(
                "wire: unknown metric family \"" + name + "\"");
        switch (f->kind) {
          case driver::MetricKind::Counter:
            d.setU64(f->id, value.asU64());
            break;
          case driver::MetricKind::Value:
            d.setValue(f->id, value.asDouble());
            break;
          case driver::MetricKind::Histogram:
          case driver::MetricKind::Vector:
            d.setVec(f->id, readU64Array(value));
            break;
          case driver::MetricKind::Timing:
            d.setTimingResult(f->id, readTimingResult(value));
            break;
          case driver::MetricKind::Ratio:
            throw std::invalid_argument(
                "wire: ratio family \"" + name + "\" is derived");
        }
    }
    for (const auto &pair : msg.at("counters").items) {
        if (pair.items.size() != 2)
            throw std::invalid_argument("wire: bad counter pair");
        d.pfCounters.emplace_back(pair.items[0].asString(),
                                  pair.items[1].asU64());
    }
    out.telemetry = readTelemetry(msg.at("telemetry"));
    return out;
}

std::string
encodeShutdown()
{
    return "{\"type\":\"shutdown\"}";
}

// ---------------------------------------------------------------------
// serve messages
// ---------------------------------------------------------------------

std::string
encodeHello(const std::string &role)
{
    JsonWriter j;
    j.beginObject();
    j.key("type").value("hello");
    j.key("protocol").value(uint64_t{kProtocolVersion});
    j.key("role").value(role);
    j.key("pid").value(static_cast<uint64_t>(::getpid()));
    j.endObject();
    return j.str();
}

std::string
encodeError(const std::string &message)
{
    JsonWriter j;
    j.beginObject();
    j.key("type").value("error");
    j.key("message").value(message);
    j.endObject();
    return j.str();
}

std::string
encodeSubmit(const std::vector<std::string> &tokens)
{
    JsonWriter j;
    j.beginObject();
    j.key("type").value("submit");
    j.key("tokens").beginArray();
    for (const auto &t : tokens)
        j.value(t);
    j.endArray();
    j.endObject();
    return j.str();
}

std::vector<std::string>
decodeSubmit(const JsonValue &msg)
{
    std::vector<std::string> tokens;
    for (const auto &t : msg.at("tokens").items)
        tokens.push_back(t.asString());
    return tokens;
}

std::string
encodeAdmitted(uint64_t id)
{
    JsonWriter j;
    j.beginObject();
    j.key("type").value("admitted");
    j.key("request").value(id);
    j.endObject();
    return j.str();
}

std::string
encodeRejected(const std::string &reason)
{
    JsonWriter j;
    j.beginObject();
    j.key("type").value("rejected");
    j.key("reason").value(reason);
    j.endObject();
    return j.str();
}

std::string
encodeReport(const RequestOutcome &outcome)
{
    JsonWriter j;
    j.beginObject();
    j.key("type").value("report");
    j.key("request").value(outcome.id);
    j.key("failed").value(uint64_t{outcome.failed});
    j.key("replayed").value(outcome.replayed);
    j.key("json").value(outcome.json);
    j.key("csv").value(outcome.csv);
    j.key("table").value(outcome.table);
    j.endObject();
    return j.str();
}

RequestOutcome
decodeResponse(const JsonValue &msg)
{
    using Status = RequestOutcome::Status;
    RequestOutcome out;
    const std::string &type = messageType(msg);
    if (type == "admitted") {
        out.status = Status::Admitted;
        out.id = msg.at("request").asU64();
    } else if (type == "report") {
        out.status = Status::Done;
        out.id = msg.at("request").asU64();
        out.failed = static_cast<uint32_t>(msg.at("failed").asU64());
        out.replayed = msg.at("replayed").asU64();
        out.json = msg.at("json").asString();
        out.csv = msg.at("csv").asString();
        out.table = msg.at("table").asString();
    } else if (type == "rejected") {
        out.status = Status::Rejected;
        out.reason = msg.at("reason").asString();
    } else if (type == "error") {
        out.status = Status::Error;
        out.reason = msg.at("message").asString();
    } else {
        throw std::invalid_argument(
            "serve: unexpected response \"" + type + "\"");
    }
    return out;
}

// ---------------------------------------------------------------------
// framing
// ---------------------------------------------------------------------

namespace {

/** The counter @p tally feeds in one direction (nullptr = none). */
std::atomic<uint64_t> obs::Counters::*
tallyCounter(Tally tally, bool sent)
{
    switch (tally) {
      case Tally::Wire:
        return sent ? &obs::Counters::wireBytesSent
                    : &obs::Counters::wireBytesReceived;
      case Tally::Socket:
        return sent ? &obs::Counters::socketBytesSent
                    : &obs::Counters::socketBytesReceived;
      case Tally::None:
        break;
    }
    return nullptr;
}

[[noreturn]] void
frameTooLarge(size_t maxBytes)
{
    throw std::invalid_argument("wire: frame exceeds " +
                                std::to_string(maxBytes) + " bytes");
}

} // anonymous namespace

std::string
frameBytes(const std::string &payload)
{
    std::string frame = std::to_string(payload.size());
    frame += '\n';
    frame += payload;
    frame += '\n';
    return frame;
}

FrameDecoder::FrameDecoder(size_t maxBytes)
    : maxBytes(maxBytes), maxDigits(std::to_string(maxBytes).size())
{
}

bool
FrameDecoder::next(std::string &out)
{
    // the prefix is checked byte by byte as it arrives: a run of
    // digits longer than the cap's can only announce an oversized
    // frame, so it fails before its newline ever shows up
    size_t len = 0;
    size_t nl = consumed;
    for (; nl < buf.size() && buf[nl] != '\n'; ++nl) {
        const char c = buf[nl];
        if (c < '0' || c > '9')
            throw std::invalid_argument(
                "wire: corrupt frame length prefix");
        if (nl - consumed == maxDigits)
            frameTooLarge(maxBytes);
        len = len * 10 + static_cast<size_t>(c - '0');
    }
    if (nl == buf.size())
        return false;
    if (nl == consumed)
        throw std::invalid_argument("wire: empty frame length prefix");
    if (len > maxBytes)
        frameTooLarge(maxBytes);
    // payload plus its trailing newline must be complete
    if (buf.size() - (nl + 1) < len + 1)
        return false;
    if (buf[nl + 1 + len] != '\n')
        throw std::invalid_argument("wire: missing frame terminator");
    out.assign(buf, nl + 1, len);
    const size_t end = nl + 1 + len + 1;
    offset_ += end - consumed;
    consumed = end;
    // drop produced bytes once they dominate the buffer, so it stays
    // bounded without re-copying a large unread tail on every frame
    if (consumed > (1u << 16) && consumed * 2 > buf.size()) {
        buf.erase(0, consumed);
        consumed = 0;
    }
    return true;
}

bool
writeAll(int fd, std::string_view bytes, Tally tally)
{
    const auto counter = tallyCounter(tally, true);
    size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
        if (counter)
            obs::count(counter, static_cast<uint64_t>(n));
    }
    return true;
}

bool
writeFrame(int fd, const std::string &payload, Tally tally)
{
    return writeAll(fd, frameBytes(payload), tally);
}

bool
readFrame(int fd, FrameDecoder &decoder, std::string &out, Tally tally)
{
    const auto counter = tallyCounter(tally, false);
    for (;;) {
        if (decoder.next(out))
            return true;
        char chunk[65536];
        const ssize_t n = ::read(fd, chunk, sizeof(chunk));
        if (n == 0)
            return false;  // EOF
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        if (counter)
            obs::count(counter, static_cast<uint64_t>(n));
        decoder.feed(chunk, static_cast<size_t>(n));
    }
}

bool
readHello(int fd, FrameDecoder &decoder, const std::string &expectRole,
          Hello &out, std::string &err)
{
    // the hello is read under its own cap; whatever the peer sent
    // behind it belongs to the connection's decoder
    FrameDecoder first(kHelloMaxBytes);
    std::string payload;
    try {
        if (!readFrame(fd, first, payload, Tally::Socket)) {
            err = "peer closed before hello";
            return false;
        }
    } catch (const std::exception &e) {
        err = std::string("bad hello frame: ") + e.what();
        return false;
    }
    const std::string_view rest = first.pending();
    decoder.feed(rest.data(), rest.size());
    try {
        const JsonValue msg = parseJson(payload);
        if (messageType(msg) != "hello") {
            err = "expected hello, got \"" + messageType(msg) + "\"";
            return false;
        }
        out.protocol = static_cast<uint32_t>(msg.at("protocol").asU64());
        out.role = msg.at("role").asString();
        if (const JsonValue *pid = msg.find("pid"))
            out.pid = static_cast<int64_t>(pid->asU64());
    } catch (const std::exception &e) {
        err = std::string("bad hello: ") + e.what();
        return false;
    }
    if (out.protocol != kProtocolVersion) {
        err = "protocol mismatch (peer " + std::to_string(out.protocol) +
              ", local " + std::to_string(kProtocolVersion) + ")";
        return false;
    }
    if (out.role != expectRole) {
        err = "unexpected peer role \"" + out.role + "\" (want \"" +
              expectRole + "\")";
        return false;
    }
    return true;
}

} // namespace stems::dispatch
