#include "core/prediction_register.hh"

#include <bit>
#include <stdexcept>

namespace stems::core {

PredictionRegisterFile::PredictionRegisterFile(uint32_t nregs,
                                               const RegionGeometry &geom)
    : geom(geom), regs(nregs), busy((uint64_t{nregs} + 63) / 64, 0)
{
    if (nregs == 0)
        throw std::invalid_argument("need at least one prediction reg");
}

bool
PredictionRegisterFile::allocate(uint64_t region_base,
                                 SpatialPattern pattern,
                                 uint32_t trigger_offset)
{
    pattern.clear(trigger_offset);
    if (pattern.none())
        return false;

    if (busyRegs == regs.size()) {
        ++stats_.rejections;
        return false;
    }
    // the lowest idle register: every bit past the last register of
    // the last word stays clear, so test the index, not the word
    size_t w = 0;
    while (busy[w] == ~uint64_t{0})
        ++w;
    const uint32_t r =
        static_cast<uint32_t>(w * 64 + std::countr_one(busy[w]));
    busy[w] |= uint64_t{1} << (r & 63);
    ++busyRegs;
    regs[r].regionBase = region_base;
    regs[r].pending = pattern;
    ++stats_.allocations;
    return true;
}

std::optional<uint64_t>
PredictionRegisterFile::nextRequest()
{
    if (busyRegs == 0)
        return std::nullopt;
    // first busy register at or after the cursor, wrapping once; a
    // full wrap back to the cursor's word sees its bits below rr too
    size_t w = rr >> 6;
    uint64_t bits = busy[w] & (~uint64_t{0} << (rr & 63));
    while (bits == 0) {
        w = w + 1 == busy.size() ? 0 : w + 1;
        bits = busy[w];
    }
    const uint32_t r =
        static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
    Reg &reg = regs[r];
    const uint32_t off = reg.pending.lowestSet();
    reg.pending.clear(off);
    if (reg.pending.none()) {
        busy[w] &= ~(uint64_t{1} << (r & 63));
        --busyRegs;
    }
    rr = r + 1 == regs.size() ? 0 : r + 1;  // resume after this register
    ++stats_.requests;
    return geom.blockAddr(reg.regionBase, off);
}

} // namespace stems::core
