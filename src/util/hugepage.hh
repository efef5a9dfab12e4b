/**
 * @file
 * Huge-page-backed array storage for the simulator's big flat tables
 * (directory entry maps, L2 tag arrays). Their probes are uniformly
 * random over tens of megabytes, so with 4 KiB pages nearly every
 * probe adds a dTLB miss on top of the data-cache miss; backing the
 * arrays with 2 MiB transparent huge pages drops the page count by
 * 512x. Only a request that fills at least one whole huge page gets
 * them: a smaller one, such as a 1 MiB L2 tag array, would be rounded
 * up to a whole 2 MiB page and double its resident size. Falls back
 * to plain allocation when THP or the platform support is
 * unavailable — behaviour is identical either way.
 */

#ifndef STEMS_UTIL_HUGEPAGE_HH
#define STEMS_UTIL_HUGEPAGE_HH

#include <cstdlib>
#include <memory>
#include <new>
#include <type_traits>

#if defined(__linux__)
#include <sys/mman.h>
#endif

namespace stems::util {

/**
 * A fixed-size value-initialized array allocated on 2 MiB-aligned
 * storage with MADV_HUGEPAGE when the request fills at least one huge
 * page.
 */
template <typename T>
class HugeArray
{
  public:
    HugeArray() = default;

    explicit HugeArray(size_t count) { reset(count); }

    HugeArray(HugeArray &&o) noexcept { swap(o); }

    HugeArray &
    operator=(HugeArray &&o) noexcept
    {
        if (this != &o) {
            release();
            swap(o);
        }
        return *this;
    }

    HugeArray(const HugeArray &) = delete;
    HugeArray &operator=(const HugeArray &) = delete;

    ~HugeArray() { release(); }

    /** Drop the current storage and allocate @p count elements. */
    void
    reset(size_t count)
    {
        release();
        if (count == 0)
            return;
        n = count;
        const size_t bytes = count * sizeof(T);
        if (bytes >= kHugePage) {
            const size_t rounded =
                (bytes + kHugePage - 1) & ~(kHugePage - 1);
            void *raw = std::aligned_alloc(kHugePage, rounded);
            if (raw) {
#if defined(__linux__)
                ::madvise(raw, rounded, MADV_HUGEPAGE);
#endif
                p = static_cast<T *>(raw);
                aligned = true;
            }
        }
        if (!p) {
            p = static_cast<T *>(
                ::operator new(bytes, std::align_val_t{64}));
            aligned = false;
        }
        std::uninitialized_value_construct_n(p, n);
    }

    /** Release storage (empty state). */
    void
    release()
    {
        if (!p)
            return;
        std::destroy_n(p, n);
        if (aligned)
            std::free(p);
        else
            ::operator delete(p, std::align_val_t{64});
        p = nullptr;
        n = 0;
    }

    T *get() const { return p; }
    T &operator[](size_t i) const { return p[i]; }
    size_t size() const { return n; }
    explicit operator bool() const { return p != nullptr; }
    T *begin() const { return p; }
    T *end() const { return p + n; }

  private:
    static constexpr size_t kHugePage = size_t{2} << 20;

    void
    swap(HugeArray &o) noexcept
    {
        std::swap(p, o.p);
        std::swap(n, o.n);
        std::swap(aligned, o.aligned);
    }

    T *p = nullptr;
    size_t n = 0;
    bool aligned = false;
};

} // namespace stems::util

#endif // STEMS_UTIL_HUGEPAGE_HH
