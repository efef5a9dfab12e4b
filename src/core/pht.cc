#include "core/pht.hh"

#include <stdexcept>

#include "util/bits.hh"

#if defined(__x86_64__)
#include <immintrin.h>
#endif

namespace stems::core {

uint32_t
phtProbeScalar(const uint64_t *tags, const uint8_t *meta,
               uint32_t assoc, uint64_t tag)
{
    for (uint32_t w = 0; w < assoc; ++w)
        if ((meta[w] & 0x80) && tags[w] == tag)
            return w;
    return assoc;
}

#if defined(__x86_64__)

/**
 * AVX2 set scan: four 64-bit tag compares per vector op over the
 * dense SoA tag run, with the per-way valid bits folded in from the
 * metadata bytes before picking the lowest set lane — the same way
 * order the scalar loop walks.
 */
__attribute__((target("avx2"))) static uint32_t
phtProbeAvx2(const uint64_t *tags, const uint8_t *meta, uint32_t assoc,
             uint64_t tag)
{
    const __m256i needle =
        _mm256_set1_epi64x(static_cast<long long>(tag));
    uint32_t w = 0;
    for (; w + 4 <= assoc; w += 4) {
        const __m256i t = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(tags + w));
        const __m256i eq = _mm256_cmpeq_epi64(t, needle);
        uint32_t hit = static_cast<uint32_t>(
            _mm256_movemask_pd(_mm256_castsi256_pd(eq)));
        if (!hit)
            continue;
        uint32_t valid = 0;
        for (uint32_t i = 0; i < 4; ++i)
            valid |= static_cast<uint32_t>(meta[w + i] >> 7) << i;
        hit &= valid;
        if (hit)
            return w + static_cast<uint32_t>(__builtin_ctz(hit));
    }
    for (; w < assoc; ++w)
        if ((meta[w] & 0x80) && tags[w] == tag)
            return w;
    return assoc;
}

#endif // __x86_64__

uint32_t
phtProbe(const uint64_t *tags, const uint8_t *meta, uint32_t assoc,
         uint64_t tag)
{
#if defined(__x86_64__)
    // CPU detection runs once per process; the bit-identity tests
    // compare this dispatch against phtProbeScalar
    static const bool avx2 = __builtin_cpu_supports("avx2");
    if (avx2)
        return phtProbeAvx2(tags, meta, assoc, tag);
#endif
    return phtProbeScalar(tags, meta, assoc, tag);
}

PatternHistoryTable::PatternHistoryTable(const PhtConfig &config)
    : cfg(config)
{
    if (cfg.entries == 0)
        return;  // unbounded
    if (cfg.assoc == 0 || cfg.entries % cfg.assoc != 0)
        throw std::invalid_argument("PHT entries not multiple of assoc");
    if (cfg.assoc > kRankMask + 1)
        throw std::invalid_argument("PHT assoc exceeds rank width");
    sets = cfg.entries / cfg.assoc;
    if (!isPow2(sets))
        throw std::invalid_argument("PHT set count must be a power of 2");
    setShift = log2i(sets);
    tags.resize(cfg.entries, 0);
    patterns.resize(cfg.entries);
    // invalid frames still carry ranks so every set starts as a
    // permutation (way 0 at the back, like untouched stamps)
    meta.resize(cfg.entries);
    for (uint32_t s = 0; s < sets; ++s)
        for (uint32_t w = 0; w < cfg.assoc; ++w)
            meta[static_cast<size_t>(s) * cfg.assoc + w] =
                static_cast<Meta>(cfg.assoc - 1 - w);
}

uint32_t
PatternHistoryTable::findWay(const uint64_t *tagBase,
                             const Meta *metaBase, uint64_t tag) const
{
    return phtProbe(tagBase, metaBase, cfg.assoc, tag);
}

void
PatternHistoryTable::touchWay(Meta *metaBase, uint32_t way)
{
    const Meta r = metaBase[way] & kRankMask;
    if (r == 0)
        return;  // already MRU: repeated triggers to one key
    for (uint32_t w = 0; w < cfg.assoc; ++w)
        if ((metaBase[w] & kRankMask) < r)
            ++metaBase[w];  // rank lives in the low bits
    metaBase[way] &= static_cast<Meta>(~kRankMask);
}

void
PatternHistoryTable::update(uint64_t key, const SpatialPattern &pattern)
{
    ++stats_.updates;

    if (unbounded()) {
        auto [it, inserted] = map.try_emplace(key, pattern);
        if (inserted) {
            ++stats_.inserts;
        } else if (cfg.update == PhtUpdateMode::Union) {
            it->second |= pattern;
        } else {
            it->second = pattern;
        }
        return;
    }

    const size_t base = static_cast<size_t>(setOf(key)) * cfg.assoc;
    uint64_t *tagBase = &tags[base];
    Meta *metaBase = &meta[base];
    const uint64_t tag = tagOf(key);

    uint32_t way = findWay(tagBase, metaBase, tag);
    if (way != cfg.assoc) {
        SpatialPattern &p = patterns[base + way];
        if (cfg.update == PhtUpdateMode::Union)
            p |= pattern;
        else
            p = pattern;
        touchWay(metaBase, way);
        return;
    }

    // no tag match: fill an invalid way, else replace the set's LRU
    uint32_t victim = cfg.assoc;
    for (uint32_t w = 0; w < cfg.assoc; ++w) {
        if (!valid(metaBase[w])) {
            victim = w;
            break;
        }
        if (rankOf(metaBase[w]) == cfg.assoc - 1)
            victim = w;
    }

    if (valid(metaBase[victim]))
        ++stats_.evictions;
    else
        ++stats_.inserts;
    tagBase[victim] = tag;
    patterns[base + victim] = pattern;
    metaBase[victim] |= kValid;
    touchWay(metaBase, victim);
}

std::optional<SpatialPattern>
PatternHistoryTable::lookup(uint64_t key)
{
    ++stats_.lookups;

    if (unbounded()) {
        auto it = map.find(key);
        if (it == map.end())
            return std::nullopt;
        ++stats_.hits;
        return it->second;
    }

    const size_t base = static_cast<size_t>(setOf(key)) * cfg.assoc;
    const uint32_t way = findWay(&tags[base], &meta[base], tagOf(key));
    if (way == cfg.assoc)
        return std::nullopt;
    touchWay(&meta[base], way);
    ++stats_.hits;
    return patterns[base + way];
}

size_t
PatternHistoryTable::occupancy() const
{
    if (unbounded())
        return map.size();
    size_t n = 0;
    for (Meta m : meta)
        n += valid(m) ? 1 : 0;
    return n;
}

} // namespace stems::core
