/**
 * @file
 * Binary trace serialization, so expensive workload generations can be
 * captured once and replayed across experiments or shared externally.
 *
 * Format v2 headers carry a generator-config hash alongside the format
 * version: replay sites pass the hash of the generator configuration
 * they expect, and files written by an incompatible generator (or in
 * an older format) are rejected instead of silently replaying stale
 * references.
 *
 * Format v3 adds a 64-bit checksum of the record payload to the
 * header, so a spill corrupted after commit (bit rot, a torn device
 * write, or the fault injector's corrupt-spill mode) is rejected on
 * replay — the TraceCache then regenerates the trace instead of
 * silently replaying corrupted references, which would break the
 * byte-identity of dispatched reports.
 *
 * Format v4 lays the payload out as per-stream sections (one
 * contiguous record run per CPU, preceded by a section-count table)
 * and keeps the payload 8-byte aligned. That is what makes zero-copy
 * replay possible: trace::MappedTrace points StreamViews straight
 * into the mapped sections (records are byte-identical to MemAccess),
 * so consumption needs no demerge pass and no materialised copy.
 */

#ifndef STEMS_TRACE_IO_HH
#define STEMS_TRACE_IO_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "trace/access.hh"

namespace stems::trace {

/** Current .stmt container format version. */
constexpr uint32_t kTraceFormatVersion = 4;

/**
 * Fixed .stmt header prefix: magic "STMT", version, generator hash,
 * total record count, payload checksum, stream count, padding. The
 * per-stream count table (nstreams × u64) follows, then the payload.
 */
constexpr size_t kTraceHeaderBytes =
    4 + sizeof(uint32_t) + 3 * sizeof(uint64_t) + 2 * sizeof(uint32_t);

/** Byte offset of the first record for an @p nstreams-section file. */
constexpr size_t
tracePayloadOffset(uint32_t nstreams)
{
    return kTraceHeaderBytes + size_t{nstreams} * sizeof(uint64_t);
}

/** The payload checksum (FNV-1a 64 over the record bytes). */
uint64_t traceChecksum(const unsigned char *data, size_t size,
                       uint64_t h = 0xcbf29ce484222325ULL);

/** Parsed and size-validated .stmt header (checksum NOT yet checked). */
struct TraceFileHeader
{
    uint64_t configHash = 0;
    uint64_t count = 0;          //!< total records across sections
    uint64_t checksum = 0;       //!< stored payload checksum
    std::vector<uint64_t> streamCounts;
    size_t payloadOffset = 0;
};

/**
 * Parse the header and section table out of the first
 * min(size, bytes available) bytes of a .stmt image and validate
 * everything except the payload checksum: magic, version, generator
 * hash (when @p expected_hash is nonzero), a sane stream count, and
 * that the section counts sum to the total which in turn matches the
 * file size exactly. @p size must be the full file size.
 */
bool parseTraceHeader(const unsigned char *data, size_t size,
                      TraceFileHeader &out, uint64_t expected_hash);

/**
 * Write per-CPU @p streams to @p path as one section each: the spill
 * form the TraceCache records and MappedTrace::open replays zero-copy
 * (the only reader). Each record's cpu field is rewritten to its
 * stream index on the way out — the canonical stream identity every
 * consumer re-stamps anyway — so replayed and freshly-generated runs
 * observe identical bytes. The file is written to a temp name and
 * renamed into place atomically, so concurrent readers never observe a
 * torn file.
 *
 * @param config_hash caller-defined fingerprint of whatever produced
 *                    the trace (see study::TraceCache); 0 if unused
 * @return true on success.
 */
bool writeTraceStreams(const std::vector<Trace> &streams,
                       const std::string &path, uint64_t config_hash = 0);

} // namespace stems::trace

#endif // STEMS_TRACE_IO_HH
