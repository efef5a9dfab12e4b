/**
 * @file
 * Open-addressing hash map for the simulation hot path. The
 * per-reference loop models fixed-capacity hardware tables (AGT,
 * MSHRs, directory state, PHT) that the seed implemented as
 * node-allocating std::unordered_maps; FlatMap stores key/value pairs
 * in one contiguous power-of-two array with linear probing and
 * backward-shift deletion, with occupancy flags held in a separate
 * dense byte array so probes over footprint-sized tables (the
 * directory) stream through memory at maximum density and the flag
 * checks stay cache-resident.
 *
 * Semantics match the subset of std::unordered_map the call sites
 * use (find/erase/operator[]/try_emplace/iteration), with three
 * deliberate differences: iteration order is slot order (deterministic
 * for a given operation history, but not the standard container's
 * order), references are invalidated by erase of *any* key and by any
 * insert that triggers a rehash, and erase-during-iteration may
 * revisit a relocated entry (it never skips one). No caller may hold
 * a reference or iterator across a mutation of the same map, except
 * through erase(iterator)'s return value.
 */

#ifndef STEMS_UTIL_FLAT_MAP_HH
#define STEMS_UTIL_FLAT_MAP_HH

#include <cassert>
#include <cstdint>
#include <cstddef>
#include <cstring>
#include <memory>
#include <utility>

#include "util/hugepage.hh"

namespace stems::util {

/** splitmix64 finalizer: full-avalanche mixing for integer keys. */
struct Mix64
{
    uint64_t
    operator()(uint64_t x) const
    {
        x ^= x >> 30;
        x *= 0xbf58476d1ce4e5b9ULL;
        x ^= x >> 27;
        x *= 0x94d049bb133111ebULL;
        x ^= x >> 31;
        return x;
    }
};

/**
 * Linear-probe open-addressing map from an integer-like key to V.
 * Capacity is always a power of two; max load factor 0.7.
 */
template <typename K, typename V, typename Hash = Mix64>
class FlatMap
{
  public:
    using value_type = std::pair<K, V>;

    class iterator
    {
      public:
        iterator() = default;
        iterator(value_type *p, value_type *end, const uint8_t *flag)
            : p(p), end(end), flag(flag)
        {
            skip();
        }

        value_type &operator*() const { return *p; }
        value_type *operator->() const { return p; }

        iterator &
        operator++()
        {
            ++p;
            ++flag;
            skip();
            return *this;
        }

        bool operator==(const iterator &o) const { return p == o.p; }
        bool operator!=(const iterator &o) const { return p != o.p; }

      private:
        friend class FlatMap;

        void
        skip()
        {
            while (p != end && !*flag) {
                ++p;
                ++flag;
            }
        }

        value_type *p = nullptr;
        value_type *end = nullptr;
        const uint8_t *flag = nullptr;
    };

    using const_iterator = iterator;  //!< values mutable, keys are not
                                      //!< to be written through iterators

    FlatMap() = default;

    explicit FlatMap(size_t expected) { reserve(expected); }

    FlatMap(const FlatMap &o) { *this = o; }

    FlatMap &
    operator=(const FlatMap &o)
    {
        if (this == &o)
            return *this;
        slots.release();
        full.release();
        cap = 0;
        size_ = 0;
        if (o.size_) {
            rehash(capacityFor(o.size_));
            for (size_t i = 0; i < o.cap; ++i)
                if (o.full[i])
                    insertFresh(o.slots[i].first)->second =
                        o.slots[i].second;
        }
        return *this;
    }

    // moved-from maps must stay usable (empty), like unordered_map:
    // the defaulted moves would leave cap/size_ dangling past the
    // stolen arrays
    FlatMap(FlatMap &&o) noexcept
        : slots(std::move(o.slots)), full(std::move(o.full)),
          cap(o.cap), size_(o.size_)
    {
        o.cap = 0;
        o.size_ = 0;
    }

    FlatMap &
    operator=(FlatMap &&o) noexcept
    {
        if (this != &o) {
            slots = std::move(o.slots);
            full = std::move(o.full);
            cap = o.cap;
            size_ = o.size_;
            o.cap = 0;
            o.size_ = 0;
        }
        return *this;
    }

    size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** Slots currently allocated (for tests / footprint accounting). */
    size_t capacity() const { return cap; }

    void
    clear()
    {
        if (cap)
            std::memset(full.get(), 0, cap);
        size_ = 0;
    }

    /** Pre-size so @p expected entries insert without rehashing. */
    void
    reserve(size_t expected)
    {
        const size_t want = capacityFor(expected);
        if (want > cap)
            rehash(want);
    }

    iterator
    begin()
    {
        return iterator(slots.get(), slotsEnd(), full.get());
    }

    iterator
    end()
    {
        return iterator(slotsEnd(), slotsEnd(), full.get() + cap);
    }

    const_iterator
    begin() const
    {
        return const_cast<FlatMap *>(this)->begin();
    }

    const_iterator
    end() const
    {
        return const_cast<FlatMap *>(this)->end();
    }

    /**
     * Hint that @p key will be probed shortly: start fetching its
     * home slot's flag and the cache line @p value_offset bytes into
     * its value, so the probe overlaps other work. No-op when the
     * compiler lacks __builtin_prefetch.
     */
    void
    prefetchKey(const K &key, size_t value_offset) const
    {
#if defined(__GNUC__) || defined(__clang__)
        if (!cap)
            return;
        const size_t i = Hash{}(key) & (cap - 1);
        __builtin_prefetch(&full[i]);
        __builtin_prefetch(
            reinterpret_cast<const char *>(&slots[i].second) +
            value_offset);
#else
        (void)key;
        (void)value_offset;
#endif
    }

    iterator
    find(const K &key)
    {
        const size_t i = findIndex(key);
        return i != kNone
            ? iterator(slots.get() + i, slotsEnd(), full.get() + i)
            : end();
    }

    const_iterator
    find(const K &key) const
    {
        return const_cast<FlatMap *>(this)->find(key);
    }

    bool
    contains(const K &key) const
    {
        return const_cast<FlatMap *>(this)->findIndex(key) != kNone;
    }

    size_t count(const K &key) const { return contains(key) ? 1 : 0; }

    V &
    at(const K &key)
    {
        const size_t i = findIndex(key);
        assert(i != kNone && "FlatMap::at: key not present");
        return slots[i].second;
    }

    const V &
    at(const K &key) const
    {
        return const_cast<FlatMap *>(this)->at(key);
    }

    V &
    operator[](const K &key)
    {
        return slots[tryEmplaceIndex(key)].second;
    }

    template <typename... Args>
    std::pair<iterator, bool>
    try_emplace(const K &key, Args &&...args)
    {
        const size_t before = size_;
        const size_t i = tryEmplaceIndex(key, std::forward<Args>(args)...);
        return {iterator(slots.get() + i, slotsEnd(), full.get() + i),
                size_ != before};
    }

    std::pair<iterator, bool>
    emplace(const K &key, V value)
    {
        return try_emplace(key, std::move(value));
    }

    std::pair<iterator, bool>
    insert(value_type kv)
    {
        return try_emplace(kv.first, std::move(kv.second));
    }

    size_t
    erase(const K &key)
    {
        const size_t i = findIndex(key);
        if (i == kNone)
            return 0;
        eraseIndex(i);
        return 1;
    }

    /**
     * Erase the pointed-to entry. The returned iterator re-examines
     * the erased slot, because the backward shift may have relocated
     * a not-yet-visited entry into it.
     */
    iterator
    erase(iterator it)
    {
        const size_t i = static_cast<size_t>(it.p - slots.get());
        assert(i < cap && full[i]);
        eraseIndex(i);
        it.skip();
        return it;
    }

  private:
    static constexpr size_t kNone = static_cast<size_t>(-1);

    static size_t
    capacityFor(size_t entries)
    {
        // smallest power of two keeping load (incl. headroom) <= 0.7
        size_t want = 16;
        while (entries * 10 > want * 7)
            want <<= 1;
        return want;
    }

    value_type *slotsEnd() const { return slots.get() + cap; }

    size_t
    findIndex(const K &key)
    {
        if (!cap)
            return kNone;
        const size_t mask = cap - 1;
        size_t i = Hash{}(key) & mask;
        for (;;) {
            if (!full[i])
                return kNone;
            if (slots[i].first == key)
                return i;
            i = (i + 1) & mask;
        }
    }

    /** Insert @p key into a table known not to contain it (rehash). */
    value_type *
    insertFresh(const K &key)
    {
        const size_t mask = cap - 1;
        size_t i = Hash{}(key) & mask;
        while (full[i])
            i = (i + 1) & mask;
        full[i] = 1;
        slots[i].first = key;
        ++size_;
        return &slots[i];
    }

    template <typename... Args>
    size_t
    tryEmplaceIndex(const K &key, Args &&...args)
    {
        // probe before any growth: looking up a present key must never
        // rehash (references stay valid unless an actual insert grows)
        if (cap) {
            const size_t mask = cap - 1;
            size_t i = Hash{}(key) & mask;
            while (full[i]) {
                if (slots[i].first == key)
                    return i;
                i = (i + 1) & mask;
            }
            if ((size_ + 1) * 10 <= cap * 7) {
                full[i] = 1;
                slots[i].first = key;
                slots[i].second = V(std::forward<Args>(args)...);
                ++size_;
                return i;
            }
        }
        grow();
        // key known absent; claim the first free probe slot
        const size_t mask = cap - 1;
        size_t i = Hash{}(key) & mask;
        while (full[i])
            i = (i + 1) & mask;
        full[i] = 1;
        slots[i].first = key;
        slots[i].second = V(std::forward<Args>(args)...);
        ++size_;
        return i;
    }

    /**
     * Backward-shift deletion: close the hole by sliding back every
     * subsequent cluster entry whose probe path covers it, so probe
     * chains stay tombstone-free no matter how heavy the churn.
     */
    void
    eraseIndex(size_t hole)
    {
        const size_t mask = cap - 1;
        size_t i = hole;
        for (;;) {
            i = (i + 1) & mask;
            if (!full[i])
                break;
            const size_t ideal = Hash{}(slots[i].first) & mask;
            // slots[i] may move back iff the hole lies on its probe
            // path, i.e. within (ideal .. i) cyclically
            if (((i - ideal) & mask) >= ((i - hole) & mask)) {
                slots[hole] = std::move(slots[i]);
                hole = i;
            }
        }
        slots[hole].second = V();  // drop held resources eagerly
        full[hole] = 0;
        --size_;
    }

    void
    grow()
    {
        rehash(capacityFor(size_ + 1));
    }

    void
    rehash(size_t newCap)
    {
        HugeArray<value_type> oldSlots = std::move(slots);
        HugeArray<uint8_t> oldFull = std::move(full);
        const size_t oldCap = cap;
        slots.reset(newCap);
        full.reset(newCap);
        cap = newCap;
        size_ = 0;
        for (size_t i = 0; i < oldCap; ++i) {
            if (oldFull[i])
                insertFresh(oldSlots[i].first)->second =
                    std::move(oldSlots[i].second);
        }
    }

    HugeArray<value_type> slots;
    HugeArray<uint8_t> full;
    size_t cap = 0;
    size_t size_ = 0;
};

} // namespace stems::util

#endif // STEMS_UTIL_FLAT_MAP_HH
