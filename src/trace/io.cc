#include "trace/io.hh"

#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <unistd.h>

#include "fault/fault.hh"

namespace stems::trace {

namespace {

constexpr char kMagic[4] = {'S', 'T', 'M', 'T'};

/** Sanity bound: more sections than this is a corrupt header. */
constexpr uint32_t kMaxStreams = 1u << 20;

struct FileCloser
{
    void operator()(FILE *f) const { if (f) std::fclose(f); }
};

using FilePtr = std::unique_ptr<FILE, FileCloser>;

/** Byte offset of the checksum field (rewritten after streaming). */
constexpr long kChecksumOffset = 4 + sizeof(uint32_t) +
    2 * sizeof(uint64_t);

/**
 * Write the v4 header and section table with a placeholder checksum,
 * filled in once every record has streamed through the FNV fold.
 */
bool
writeHeader(FILE *f, uint64_t config_hash,
            const std::vector<uint64_t> &counts)
{
    uint64_t total = 0;
    for (uint64_t c : counts)
        total += c;
    const uint64_t placeholder = 0;
    const uint32_t nstreams = static_cast<uint32_t>(counts.size());
    const uint32_t pad = 0;  // keeps the payload 8-byte aligned
    bool ok = std::fwrite(kMagic, 1, 4, f) == 4 &&
        std::fwrite(&kTraceFormatVersion, sizeof(kTraceFormatVersion),
                    1, f) == 1 &&
        std::fwrite(&config_hash, sizeof(config_hash), 1, f) == 1 &&
        std::fwrite(&total, sizeof(total), 1, f) == 1 &&
        std::fwrite(&placeholder, sizeof(placeholder), 1, f) == 1 &&
        std::fwrite(&nstreams, sizeof(nstreams), 1, f) == 1 &&
        std::fwrite(&pad, sizeof(pad), 1, f) == 1;
    for (uint64_t c : counts)
        ok = ok && std::fwrite(&c, sizeof(c), 1, f) == 1;
    return ok;
}

/** Copy one unaligned little-endian field out of a byte view. */
template <typename T>
T
loadField(const unsigned char *p)
{
    T v;
    std::memcpy(&v, p, sizeof(T));
    return v;
}

} // anonymous namespace

uint64_t
traceChecksum(const unsigned char *data, size_t size, uint64_t h)
{
    for (size_t i = 0; i < size; ++i) {
        h ^= data[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

bool
parseTraceHeader(const unsigned char *data, size_t size,
                 TraceFileHeader &out, uint64_t expected_hash)
{
    if (size < kTraceHeaderBytes || std::memcmp(data, kMagic, 4) != 0)
        return false;
    if (loadField<uint32_t>(data + 4) != kTraceFormatVersion)
        return false;
    out.configHash = loadField<uint64_t>(data + 8);
    out.count = loadField<uint64_t>(data + 16);
    out.checksum = loadField<uint64_t>(data + 24);
    const uint32_t nstreams = loadField<uint32_t>(data + 32);
    // a stale trace from an incompatible generator must not replay
    if (expected_hash != 0 && out.configHash != expected_hash)
        return false;
    if (nstreams == 0 || nstreams > kMaxStreams)
        return false;
    out.payloadOffset = tracePayloadOffset(nstreams);
    if (size < out.payloadOffset)
        return false;
    // corrupt counts must not drive reserve() or out-of-bounds views:
    // the sections must sum to the total, and the payload must hold
    // exactly that many records
    out.streamCounts.assign(nstreams, 0);
    uint64_t total = 0;
    for (uint32_t i = 0; i < nstreams; ++i) {
        out.streamCounts[i] =
            loadField<uint64_t>(data + kTraceHeaderBytes + 8 * i);
        if (out.streamCounts[i] > out.count)
            return false;
        total += out.streamCounts[i];
    }
    if (total != out.count)
        return false;
    if (out.count != (size - out.payloadOffset) / sizeof(MemAccess) ||
        (size - out.payloadOffset) % sizeof(MemAccess) != 0)
        return false;
    return true;
}

bool
writeTraceStreams(const std::vector<Trace> &streams,
                  const std::string &path, uint64_t config_hash)
{
    // chaos hook: model a full disk before any bytes land
    if (fault::spillFault(fault::Kind::Enospc, path))
        return false;
    // write a per-process temp name and rename it into place, so
    // concurrent readers (dispatch workers sharing a spill dir) never
    // observe a torn file
    const std::string tmp = path + ".tmp." + std::to_string(::getpid());
    bool ok = false;
    {
        FilePtr f(std::fopen(tmp.c_str(), "wb"));
        if (!f)
            return false;
        std::vector<uint64_t> counts;
        for (const Trace &t : streams)
            counts.push_back(t.size());
        ok = writeHeader(f.get(), config_hash, counts);

        // records are MemAccess bytes (the layout trace/stream.hh
        // pins) with cpu restamped to the stream index, folded into
        // the checksum as they stream out
        uint64_t checksum = traceChecksum(nullptr, 0);
        for (uint32_t i = 0; ok && i < streams.size(); ++i) {
            for (MemAccess a : streams[i]) {
                a.cpu = i;
                checksum = traceChecksum(
                    reinterpret_cast<const unsigned char *>(&a), sizeof(a),
                    checksum);
                ok = ok && std::fwrite(&a, sizeof(a), 1, f.get()) == 1;
            }
        }
        // fill in the header's placeholder checksum
        ok = ok && std::fseek(f.get(), kChecksumOffset, SEEK_SET) == 0 &&
            std::fwrite(&checksum, sizeof(checksum), 1, f.get()) == 1;
    }
    if (!ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        return false;
    }
    // chaos hook: flip one payload byte of the committed file; the
    // checksum makes the damage detectable, so replay rejects the
    // spill and the TraceCache regenerates it
    if (fault::spillFault(fault::Kind::CorruptSpill, path))
        fault::corruptFileByte(
            path, fault::currentPlan().seed,
            tracePayloadOffset(static_cast<uint32_t>(streams.size())));
    return true;
}

} // namespace stems::trace
