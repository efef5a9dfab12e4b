/**
 * @file
 * MappedTrace and StreamView implementation: validated zero-copy
 * mappings of .stmt spill files, with page-cache hygiene so peak RSS
 * tracks the consumption window rather than the trace length.
 */

#include "trace/stream.hh"

#include <algorithm>
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "trace/io.hh"

namespace stems::trace {

namespace {

/**
 * Drop fully-spanned pages of [begin, end) back to the kernel. A hint
 * only: MAP_PRIVATE read-only pages refault cleanly from the page
 * cache if touched again. Interior pointers are aligned inward so a
 * partially-covered page (still live for a neighbouring section or the
 * unconsumed tail) is never dropped.
 */
void
dropPages(const unsigned char *begin, const unsigned char *end)
{
    static const uintptr_t page =
        static_cast<uintptr_t>(::sysconf(_SC_PAGESIZE));
    uintptr_t lo = reinterpret_cast<uintptr_t>(begin);
    uintptr_t hi = reinterpret_cast<uintptr_t>(end);
    lo = (lo + page - 1) & ~(page - 1);
    hi = hi & ~(page - 1);
    if (hi > lo)
        ::madvise(reinterpret_cast<void *>(lo), hi - lo, MADV_DONTNEED);
}

/** Validation checksum chunk; bounds the resident window of the scan. */
constexpr size_t kChecksumChunk = 8u << 20;

/** Page-drop stride for consumption cursors (see StreamView). */
constexpr size_t kDropStride = 2u << 20;

} // namespace

MappedTrace::~MappedTrace()
{
    if (base)
        ::munmap(const_cast<unsigned char *>(base), size);
}

std::shared_ptr<MappedTrace>
MappedTrace::open(const std::string &path, uint64_t expected_hash)
{
    const int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0)
        return nullptr;

    struct stat st;
    if (::fstat(fd, &st) != 0 || st.st_size < 0 ||
        static_cast<size_t>(st.st_size) < kTraceHeaderBytes) {
        ::close(fd);
        return nullptr;
    }
    const size_t size = static_cast<size_t>(st.st_size);

    void *mem = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (mem == MAP_FAILED) {
        ::close(fd);
        return nullptr;
    }

    // revalidate the size after mapping: a writer truncating the file
    // between fstat and mmap would otherwise leave pages past EOF that
    // SIGBUS on first touch mid-simulation. The spill protocol is
    // rename-into-place so this is belt and braces, but the view layer
    // promises a clean replay failure, never a crash.
    struct stat st2;
    const bool stable = ::fstat(fd, &st2) == 0 &&
        static_cast<size_t>(st2.st_size) == size;
    ::close(fd);

    auto fail = [&]() {
        ::munmap(mem, size);
        return std::shared_ptr<MappedTrace>();
    };
    if (!stable)
        return fail();

    const auto *data = static_cast<const unsigned char *>(mem);
    TraceFileHeader h;
    if (!parseTraceHeader(data, size, h, expected_hash))
        return fail();

    // Hint the sequential consumption pattern up front.
    ::madvise(mem, size, MADV_SEQUENTIAL);
    ::madvise(mem, size, MADV_WILLNEED);

    // Full payload checksum before any view is handed out, streamed in
    // chunks with pages dropped behind the scan so validating a
    // multi-GB spill never spikes peak RSS (ru_maxrss is a high-water
    // mark; one resident sweep would defeat the streaming budget).
    uint64_t sum = traceChecksum(nullptr, 0);
    const unsigned char *p = data + h.payloadOffset;
    const unsigned char *end = data + size;
    while (p < end) {
        const size_t n = std::min(kChecksumChunk,
                                  static_cast<size_t>(end - p));
        sum = traceChecksum(p, n, sum);
        dropPages(data, p + n);
        p += n;
    }
    if (sum != h.checksum)
        return fail();

    // The scan faulted everything once; leave nothing resident. Views
    // re-fault their window from the page cache as they consume.
    dropPages(data, end);

    auto m = std::shared_ptr<MappedTrace>(new MappedTrace());
    m->base = data;
    m->size = size;
    m->counts.reserve(h.streamCounts.size());
    m->offsets.reserve(h.streamCounts.size());
    size_t off = h.payloadOffset;
    for (uint64_t c : h.streamCounts) {
        m->counts.push_back(static_cast<size_t>(c));
        m->offsets.push_back(off);
        off += static_cast<size_t>(c) * sizeof(MemAccess);
    }
    return m;
}

void
StreamView::consumed(size_t pos)
{
    if (!map_)
        return;
    const size_t byte = pos * sizeof(MemAccess);
    if (byte < dropped_ + kDropStride)
        return;
    const auto *begin = reinterpret_cast<const unsigned char *>(base_);
    dropPages(begin + dropped_, begin + byte);
    dropped_ = byte;
}

} // namespace stems::trace
