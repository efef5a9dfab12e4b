#include "prefetch/ghb.hh"

#include <stdexcept>

#include "util/bits.hh"

namespace stems::prefetch {

GhbPcDc::GhbPcDc(const GhbConfig &config) : cfg(config)
{
    if (cfg.ghbEntries == 0 || cfg.itEntries == 0)
        throw std::invalid_argument("GHB sizes must be nonzero");
    if (!isPow2(cfg.blockSize))
        throw std::invalid_argument("GHB block size must be pow2");
    buffer.resize(cfg.ghbEntries);
    indexTable.resize(cfg.itEntries);
    walkScratch.reserve(cfg.maxWalk);
    deltaScratch.reserve(cfg.maxWalk);
}

void
GhbPcDc::observe(const ObservedAccess &a, std::vector<uint64_t> &out)
{
    // GHB-PC/DC trains on the L2 access stream: L1 misses only
    if (!a.l1Miss())
        return;
    ++stats_.triggers;

    const uint32_t shift = log2i(cfg.blockSize);
    const uint64_t blk = a.addr >> shift;

    // insert the new entry, linking to this PC's previous miss
    ItEntry &it = indexTable[a.pc % cfg.itEntries];
    const bool has_prev = it.valid && it.pc == a.pc && inWindow(it.head);
    const uint64_t seq = head++;
    const uint32_t slot = headSlot;
    if (++headSlot == cfg.ghbEntries)
        headSlot = 0;
    GhbEntry &e = buffer[slot];
    e.blockAddr = blk;
    e.link = has_prev ? it.head : 0;
    e.linkSlot = has_prev ? it.headSlot : 0;
    e.hasLink = has_prev;
    it.pc = a.pc;
    it.head = seq;
    it.headSlot = slot;
    it.valid = true;

    // walk this PC's chain, newest -> oldest; each entry carries its
    // predecessor's slot, so a hop needs no modulo
    walkScratch.clear();
    const GhbEntry *g = &e;
    while (walkScratch.size() < cfg.maxWalk) {
        walkScratch.push_back(g->blockAddr);
        // guard against a stale link overwritten by wrap-around
        if (!g->hasLink || !inWindow(g->link))
            break;
        g = &buffer[g->linkSlot];
    }
    if (walkScratch.size() < 3)
        return;
    ++stats_.walks;

    // deltas oldest -> newest: d[i] = addr[i+1] - addr[i]
    const size_t n = walkScratch.size();
    std::vector<int64_t> &deltas = deltaScratch;
    deltas.resize(n - 1);
    for (size_t i = 0; i + 1 < n; ++i) {
        // walkScratch is newest-first; reverse while differencing
        deltas[n - 2 - i] = static_cast<int64_t>(walkScratch[i]) -
            static_cast<int64_t>(walkScratch[i + 1]);
    }

    // correlate on the most recent delta pair
    if (deltas.size() < 2)
        return;
    const int64_t d1 = deltas[deltas.size() - 2];
    const int64_t d2 = deltas[deltas.size() - 1];

    // find the most recent earlier occurrence of (d1, d2); pairs may
    // overlap the current context by one delta (constant strides)
    size_t match = SIZE_MAX;
    for (size_t j = deltas.size() - 1; j-- > 1;) {
        if (deltas[j - 1] == d1 && deltas[j] == d2) {
            match = j;
            break;
        }
    }
    if (match == SIZE_MAX)
        return;
    ++stats_.correlations;

    // the deltas between the match and the present form one period of
    // the pattern; replay them (cyclically) ahead of the current miss
    const size_t period = deltas.size() - 1 - match;
    uint64_t addr = blk;
    for (uint32_t k = 0; k < cfg.degree; ++k) {
        addr = static_cast<uint64_t>(
            static_cast<int64_t>(addr) + deltas[match + 1 + (k % period)]);
        out.push_back(addr << shift);
        ++stats_.issued;
    }
}

} // namespace stems::prefetch
