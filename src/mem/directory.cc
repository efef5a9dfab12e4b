#include "mem/directory.hh"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace stems::mem {

Directory::Directory(uint32_t ncpu, uint32_t block_size,
                     CoherenceClient *client, uint64_t expected_blocks)
    : ncpu_(ncpu), client(client)
{
    if (ncpu == 0 || ncpu > 16)
        throw std::invalid_argument("directory supports 1..16 nodes");
    if (!isPow2(block_size) || block_size < 64)
        throw std::invalid_argument("coherence block must be pow2 >= 64");
    if (block_size / 64 > Bits128::kMaxBits)
        throw std::invalid_argument("coherence block too large to track");
    blockShift = log2i(block_size);
    excl.reset(static_cast<size_t>(ncpu) << kExclBits);
    if (expected_blocks) {
        // in regions; bounded at 64k (2M blocks, the 16-node aggregate
        // L2) so a pathological hint cannot explode memory
        constexpr uint64_t kMaxHint = uint64_t{1} << 16;
        const uint64_t regions =
            (expected_blocks + kRegionMask) >> kRegionShift;
        entries.reserve(static_cast<size_t>(std::min(regions, kMaxHint)));
    }
    reset();
}

void
Directory::reset()
{
    entries.clear();
    sinceInval.clear();
    pending.clear();
    std::fill(excl.begin(), excl.end(), uint64_t{0});
    stats_ = DirectoryStats{};
    finalized = false;
}

void
Directory::noteAccess(uint32_t cpu, uint64_t addr)
{
    if (pending.empty())
        return;
    auto it = pending.find(key(addr, cpu));
    if (it == pending.end())
        return;
    if (it->second.written.test(chunkOf(addr))) {
        // the reader consumed a remotely-written sub-block: the
        // refetch was necessary, so the earlier miss was true sharing
        ++stats_.trueSharing;
        pending.erase(it);
    }
}

void
Directory::resolveAsFalse(uint64_t k)
{
    if (pending.empty())
        return;
    auto it = pending.find(k);
    if (it != pending.end()) {
        ++stats_.falseSharing;
        pending.erase(it);
    }
}

Directory::ReadOutcome
Directory::read(uint32_t cpu, uint64_t addr, bool demand)
{
    Entry &e = entryOf(blockIndex(addr));
    ReadOutcome out;
    uint16_t bit = static_cast<uint16_t>(1u << cpu);

    if (e.hadCopy & bit) {
        e.hadCopy &= static_cast<uint16_t>(~bit);
        auto si = sinceInval.find(key(addr, cpu));
        Bits128 written;
        if (si != sinceInval.end()) {
            written = si->second;
            sinceInval.erase(si);
        }
        if (demand) {
            out.coherenceMiss = true;
            ++stats_.readCohMisses;
            if (written.test(chunkOf(addr))) {
                // first touched chunk was dirtied remotely: true sharing
                ++stats_.trueSharing;
            } else {
                pending[key(addr, cpu)] = Pending{written};
            }
        }
    }

    if (e.owner >= 0 && static_cast<uint32_t>(e.owner) != cpu) {
        // downgrade the modified copy; owner keeps a shared copy
        exclDrop(static_cast<uint32_t>(e.owner), blockIndex(addr));
        e.sharers |= static_cast<uint16_t>(1u << e.owner);
        e.owner = -1;
        out.remoteTransfer = true;
        ++stats_.downgrades;
    } else if (e.owner >= 0) {
        // requester already owns the block (L2 refetch after silent
        // L1-only activity); keep ownership
    }
    e.sharers |= bit;
    return out;
}

void
Directory::invalidateCopy(uint32_t cpu, uint64_t addr, Entry &e)
{
    uint16_t bit = static_cast<uint16_t>(1u << cpu);
    exclDrop(cpu, blockIndex(addr));
    e.sharers &= static_cast<uint16_t>(~bit);
    e.hadCopy |= bit;
    ++stats_.invalidationsSent;
    // a pending classification for this reader ends now: if it never
    // touched a written chunk, the earlier refetch was false sharing
    resolveAsFalse(key(addr, cpu));
    if (client)
        client->invalidateBlock(cpu, addr & ~((uint64_t{1} << blockShift)
                                              - 1));
}

Directory::WriteOutcome
Directory::write(uint32_t cpu, uint64_t addr)
{
    const uint64_t bi = blockIndex(addr);
    // exclusive-store fast path: owner == cpu and hadCopy == 0 make
    // the full write() body a provable no-op, so skip the table probe
    if (exclSlot(cpu, bi) == bi + 1)
        return WriteOutcome{};

    Entry &e = entryOf(bi);
    WriteOutcome out;
    uint16_t bit = static_cast<uint16_t>(1u << cpu);

    if (e.hadCopy & bit) {
        e.hadCopy &= static_cast<uint16_t>(~bit);
        sinceInval.erase(key(addr, cpu));
        out.coherenceMiss = true;
        ++stats_.writeCohMisses;
    }

    if (e.owner >= 0 && static_cast<uint32_t>(e.owner) == cpu) {
        // already exclusive: just record the dirtied chunk for absent
        // former readers
    } else {
        if (e.owner >= 0) {
            out.remoteTransfer = true;
            invalidateCopy(static_cast<uint32_t>(e.owner), addr, e);
            e.owner = -1;
        }
        uint16_t others = e.sharers & static_cast<uint16_t>(~bit);
        if (e.sharers & bit)
            out.upgrade = true, ++stats_.upgrades;
        for (uint32_t r = 0; others; ++r) {
            uint16_t rb = static_cast<uint16_t>(1u << r);
            if (others & rb) {
                invalidateCopy(r, addr, e);
                others &= static_cast<uint16_t>(~rb);
            }
        }
        e.owner = static_cast<int8_t>(cpu);
        e.sharers = bit;
    }

    // accumulate the dirtied 64 B chunk for every absent former reader
    uint16_t absent = e.hadCopy;
    for (uint32_t r = 0; absent; ++r) {
        uint16_t rb = static_cast<uint16_t>(1u << r);
        if (absent & rb) {
            sinceInval[key(addr, r)].set(chunkOf(addr));
            absent &= static_cast<uint16_t>(~rb);
        }
    }
    if (e.hadCopy == 0)
        exclSlot(cpu, bi) = bi + 1;  // future stores can skip write()
    return out;
}

void
Directory::evicted(uint32_t cpu, uint64_t addr)
{
    const uint64_t bi = blockIndex(addr);
    exclDrop(cpu, bi);
    // find, never insert. An untouched block of a touched region has
    // a default entry; updating it changes nothing, since sinceInval
    // and pending only hold keys of blocks read() or write() touched
    auto it = entries.find(bi >> kRegionShift);
    if (it == entries.end())
        return;
    Entry &e = it->second.block[bi & kRegionMask];
    uint16_t bit = static_cast<uint16_t>(1u << cpu);
    e.sharers &= static_cast<uint16_t>(~bit);
    if (e.owner >= 0 && static_cast<uint32_t>(e.owner) == cpu)
        e.owner = -1;
    // voluntary departure: the next miss is capacity, not coherence
    e.hadCopy &= static_cast<uint16_t>(~bit);
    if (!sinceInval.empty())
        sinceInval.erase(key(addr, cpu));
    resolveAsFalse(key(addr, cpu));
}

const DirectoryStats &
Directory::finalize()
{
    if (!finalized) {
        stats_.falseSharing += pending.size();
        pending.clear();
        finalized = true;
    }
    return stats_;
}

} // namespace stems::mem
