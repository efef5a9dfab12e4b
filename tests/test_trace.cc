/** @file Tests for trace records, interleaving, statistics and IO. */

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

#include "trace/access.hh"
#include "trace/interleaver.hh"
#include "trace/io.hh"
#include "trace/stats.hh"
#include "trace/stream.hh"

using namespace stems::trace;

namespace {

Trace
streamOf(uint32_t cpu, size_t n, uint64_t base)
{
    Trace t;
    for (size_t i = 0; i < n; ++i) {
        MemAccess a;
        a.pc = 0x400000 + i % 4;
        a.addr = base + i * 64;
        a.cpu = cpu;
        a.ninst = 3;
        t.push_back(a);
    }
    return t;
}

} // anonymous namespace

TEST(Interleaver, PreservesAllAccesses)
{
    std::vector<Trace> streams{streamOf(0, 100, 0),
                               streamOf(1, 50, 1 << 20)};
    Trace merged = Interleaver(1, 8, 3).merge(streams);
    EXPECT_EQ(merged.size(), 150u);
}

TEST(Interleaver, PreservesPerCpuOrder)
{
    std::vector<Trace> streams{streamOf(0, 200, 0),
                               streamOf(1, 200, 1 << 20)};
    Trace merged = Interleaver(1, 8, 3).merge(streams);
    uint64_t last0 = 0, last1 = 0;
    for (const auto &a : merged) {
        if (a.cpu == 0) {
            EXPECT_GE(a.addr, last0);
            last0 = a.addr;
        } else {
            EXPECT_GE(a.addr, last1);
            last1 = a.addr;
        }
    }
}

TEST(Interleaver, RewritesCpuField)
{
    // stream placed at index 2 gets cpu=2 regardless of its records
    std::vector<Trace> streams(3);
    streams[2] = streamOf(7, 10, 0);
    Trace merged = Interleaver(1, 4, 1).merge(streams);
    ASSERT_EQ(merged.size(), 10u);
    for (const auto &a : merged)
        EXPECT_EQ(a.cpu, 2u);
}

TEST(Interleaver, DeterministicInSeed)
{
    std::vector<Trace> streams{streamOf(0, 300, 0),
                               streamOf(1, 300, 1 << 20)};
    Trace m1 = Interleaver(1, 16, 42).merge(streams);
    Trace m2 = Interleaver(1, 16, 42).merge(streams);
    ASSERT_EQ(m1.size(), m2.size());
    for (size_t i = 0; i < m1.size(); ++i)
        EXPECT_TRUE(m1[i] == m2[i]);
}

TEST(Interleaver, DifferentSeedsInterleaveDifferently)
{
    std::vector<Trace> streams{streamOf(0, 300, 0),
                               streamOf(1, 300, 1 << 20)};
    Trace m1 = Interleaver(1, 16, 1).merge(streams);
    Trace m2 = Interleaver(1, 16, 2).merge(streams);
    bool differs = false;
    for (size_t i = 0; i < m1.size() && !differs; ++i)
        differs = !(m1[i] == m2[i]);
    EXPECT_TRUE(differs);
}

TEST(Interleaver, ActuallyInterleavesFinely)
{
    std::vector<Trace> streams{streamOf(0, 500, 0),
                               streamOf(1, 500, 1 << 20)};
    Trace merged = Interleaver(1, 8, 5).merge(streams);
    // count cpu switches; chunks of <= 8 imply many switches
    size_t switches = 0;
    for (size_t i = 1; i < merged.size(); ++i)
        switches += merged[i].cpu != merged[i - 1].cpu;
    EXPECT_GT(switches, 80u);
}

TEST(TraceStats, CountsEverything)
{
    Trace t;
    MemAccess a;
    a.pc = 1;
    a.addr = 0;
    a.ninst = 4;
    t.push_back(a);
    a.isWrite = true;
    a.addr = 64;
    a.pc = 2;
    a.dep = 1;
    t.push_back(a);
    a.isKernel = true;
    a.addr = 64;  // same block
    t.push_back(a);

    TraceStats s = computeStats(t, 2);
    EXPECT_EQ(s.references, 3u);
    EXPECT_EQ(s.writes, 2u);
    EXPECT_EQ(s.kernelRefs, 1u);
    EXPECT_EQ(s.uniqueBlocks, 2u);
    EXPECT_EQ(s.uniquePcs, 2u);
    EXPECT_EQ(s.instructions, 3u * 5u);
    EXPECT_EQ(s.dependentRefs, 2u);
    EXPECT_NEAR(s.writeFraction(), 2.0 / 3.0, 1e-9);
}

namespace {

/**
 * Write @p t as the stream-t[0].cpu section of a spill, so the cpu
 * stamps the spill writer rewrites to the stream index round-trip.
 */
bool
writeOne(const Trace &t, const std::string &path, uint64_t hash = 0)
{
    const uint32_t cpu = t.empty() ? 0 : t[0].cpu;
    std::vector<Trace> streams(cpu + 1);
    streams[cpu] = t;
    return writeTraceStreams(streams, path, hash);
}

/** Read a spill back through MappedTrace, sections concatenated. */
bool
readBack(const std::string &path, Trace &out, uint64_t hash = 0)
{
    auto m = MappedTrace::open(path, hash);
    if (!m)
        return false;
    out.clear();
    for (size_t s = 0; s < m->numStreams(); ++s)
        out.insert(out.end(), m->streamData(s),
                   m->streamData(s) + m->streamCount(s));
    return true;
}

} // namespace

TEST(TraceIo, RoundTrip)
{
    Trace t = streamOf(3, 250, 0x1000);
    t[7].isWrite = true;
    t[9].isKernel = true;
    t[11].dep = 4;

    std::string path = ::testing::TempDir() + "/stems_trace_test.bin";
    ASSERT_TRUE(writeOne(t, path));
    Trace back;
    ASSERT_TRUE(readBack(path, back));
    ASSERT_EQ(back.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_TRUE(t[i] == back[i]) << "record " << i;
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsMissingFile)
{
    Trace out;
    EXPECT_FALSE(readBack("/nonexistent/definitely/not.bin", out));
}

TEST(TraceIo, RejectsCorruptMagic)
{
    std::string path = ::testing::TempDir() + "/stems_bad_magic.bin";
    FILE *f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite("NOPE", 1, 4, f);
    std::fclose(f);
    Trace out;
    EXPECT_FALSE(readBack(path, out));
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsTruncatedRecords)
{
    // the mapped reader validates count against file size: chop the
    // last record short and the file is rejected whole
    Trace t = streamOf(1, 50, 0x9000);
    std::string path = ::testing::TempDir() + "/stems_truncated.bin";
    ASSERT_TRUE(writeOne(t, path, 0x5eed));
    Trace ok;
    ASSERT_TRUE(readBack(path, ok, 0x5eed));
    ASSERT_EQ(ok.size(), t.size());

    FILE *f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fseek(f, 0, SEEK_END);
    const long full = std::ftell(f);
    std::fclose(f);
    ASSERT_EQ(::truncate(path.c_str(), full - 5), 0);

    Trace out;
    EXPECT_FALSE(readBack(path, out));
    std::remove(path.c_str());
}

TEST(TraceIo, RejectsFlippedPayloadByteViaChecksum)
{
    // format v3: a spill corrupted after commit (bit rot, a torn
    // device write, the fault injector's corrupt-spill mode) must be
    // rejected whole, not silently replayed — the file still has the
    // right magic, version, hash and count
    Trace t = streamOf(1, 80, 0x4000);
    std::string path = ::testing::TempDir() + "/stems_bitflip.bin";
    ASSERT_TRUE(writeOne(t, path, 0x5eed));
    Trace ok;
    ASSERT_TRUE(readBack(path, ok, 0x5eed));

    FILE *f = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    // flip one payload byte well past the header
    ASSERT_EQ(std::fseek(f,
                         static_cast<long>(kTraceHeaderBytes) + 133,
                         SEEK_SET),
              0);
    const int c = std::fgetc(f);
    ASSERT_NE(c, EOF);
    ASSERT_EQ(std::fseek(f, -1, SEEK_CUR), 0);
    std::fputc(c ^ 0xFF, f);
    std::fclose(f);

    Trace out;
    EXPECT_FALSE(readBack(path, out, 0x5eed));
    std::remove(path.c_str());
}

TEST(TraceIo, ChecksumIsIncrementalOverRecords)
{
    // the streaming writer accumulates the checksum record by record;
    // it must equal the contiguous fold the reader computes
    Trace t = streamOf(0, 17, 0x100);
    const auto *bytes =
        reinterpret_cast<const unsigned char *>(t.data());
    const size_t size = t.size() * sizeof(MemAccess);
    uint64_t whole = traceChecksum(bytes, size);
    uint64_t incremental = traceChecksum(nullptr, 0);
    for (const auto &a : t)
        incremental = traceChecksum(
            reinterpret_cast<const unsigned char *>(&a), sizeof(a),
            incremental);
    EXPECT_EQ(whole, incremental);
}

TEST(TraceIo, RejectsWrongGeneratorHashViaMappedPath)
{
    Trace t = streamOf(2, 40, 0x2000);
    std::string path = ::testing::TempDir() + "/stems_hash_check.bin";
    ASSERT_TRUE(writeOne(t, path, 0xAB));
    Trace out;
    EXPECT_FALSE(readBack(path, out, 0xCD));  // wrong hash
    EXPECT_TRUE(readBack(path, out, 0xAB));   // right hash
    EXPECT_TRUE(readBack(path, out));         // hash check disabled
    ASSERT_EQ(out.size(), t.size());
    for (size_t i = 0; i < t.size(); ++i)
        EXPECT_TRUE(t[i] == out[i]) << "record " << i;
    std::remove(path.c_str());
}

TEST(TraceIo, EmptyTraceRoundTripsThroughMappedPath)
{
    Trace t;
    std::string path = ::testing::TempDir() + "/stems_empty.bin";
    ASSERT_TRUE(writeOne(t, path));
    Trace out = streamOf(1, 5, 0x100);  // must be cleared by read
    ASSERT_TRUE(readBack(path, out));
    EXPECT_TRUE(out.empty());
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// zero-copy interleave view
// ---------------------------------------------------------------------

namespace {

/** Drain a view into a trace for comparison with merge(). */
Trace
drain(InterleavedView v)
{
    Trace out;
    MemAccess a;
    while (v.next(a))
        out.push_back(a);
    return out;
}

} // anonymous namespace

TEST(InterleavedView, MatchesMergeExactly)
{
    // equivalence across stream shapes, chunk ranges and seeds: the
    // view must reproduce the materialised merge byte for byte
    const std::vector<std::vector<Trace>> shapes = {
        {streamOf(0, 100, 0), streamOf(1, 50, 1 << 20)},
        {streamOf(0, 1, 0), streamOf(1, 500, 1 << 20),
         streamOf(2, 17, 2 << 20)},
        {Trace{}, streamOf(7, 64, 1 << 18), Trace{}},
        {Trace{}, Trace{}},
        {streamOf(3, 333, 0)},
    };
    const std::pair<uint32_t, uint32_t> chunks[] = {
        {1, 16}, {1, 1}, {4, 4}, {1, 8}, {2, 32}};
    for (const auto &streams : shapes) {
        for (auto [lo, hi] : chunks) {
            for (uint64_t seed : {1ULL, 42ULL, 990ULL}) {
                Interleaver il(lo, hi, seed);
                Trace merged = il.merge(streams);
                Trace viewed = drain(InterleavedView(
                    StreamSet::borrowed(streams).views(), lo, hi, seed));
                ASSERT_EQ(merged.size(), viewed.size());
                for (size_t i = 0; i < merged.size(); ++i)
                    ASSERT_TRUE(merged[i] == viewed[i])
                        << "diverged at " << i << " (seed " << seed
                        << ", chunks " << lo << ".." << hi << ")";
            }
        }
    }
}

TEST(InterleavedView, ResetRestartsTheSchedule)
{
    std::vector<Trace> streams{streamOf(0, 120, 0),
                               streamOf(1, 80, 1 << 20)};
    InterleavedView v(StreamSet::borrowed(streams).views(), 1, 8, 5);
    Trace first;
    MemAccess a;
    while (v.next(a))
        first.push_back(a);
    EXPECT_EQ(first.size(), 200u);
    EXPECT_FALSE(v.next(a));  // exhausted
    v.reset();
    Trace second;
    while (v.next(a))
        second.push_back(a);
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i)
        ASSERT_TRUE(first[i] == second[i]);
}

TEST(InterleavedView, SizeCountsAllStreams)
{
    std::vector<Trace> streams{streamOf(0, 11, 0), Trace{},
                               streamOf(2, 31, 1 << 20)};
    InterleavedView v(StreamSet::borrowed(streams).views(), 1, 4, 9);
    EXPECT_EQ(v.size(), 42u);
    EXPECT_EQ(v.numStreams(), 3u);
}
