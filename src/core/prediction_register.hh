/**
 * @file
 * Prediction registers (Section 3.2): when a trigger access hits in
 * the PHT, the region base address and predicted pattern are copied
 * into a prediction register; SMS then streams the predicted blocks,
 * clearing each bit as its request issues and freeing the register
 * when the pattern is exhausted. Multiple active registers are
 * serviced round-robin.
 *
 * A bitmask of busy registers (one word per 64) makes each operation
 * one step: allocation takes the lowest clear bit, and a request finds
 * the first busy register at or after the round-robin cursor with a
 * shift and a count of trailing zeros. An idle file answers at once.
 */

#ifndef STEMS_CORE_PREDICTION_REGISTER_HH
#define STEMS_CORE_PREDICTION_REGISTER_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "core/region.hh"

namespace stems::core {

/** Prediction register event counters. */
struct PrfStats
{
    uint64_t allocations = 0;   //!< registers loaded from PHT hits
    uint64_t rejections = 0;    //!< PHT hits dropped: all registers busy
    uint64_t requests = 0;      //!< stream requests issued
};

/**
 * A file of prediction registers drained round-robin. The owner calls
 * nextRequest() as downstream bandwidth allows (the trace-based
 * studies drain eagerly; the timing model paces requests).
 */
class PredictionRegisterFile
{
  public:
    /**
     * @param nregs number of registers
     * @param geom  region geometry shared with the trainer/PHT
     */
    PredictionRegisterFile(uint32_t nregs, const RegionGeometry &geom);

    /**
     * Load a register with a predicted pattern. The bit at
     * @p trigger_offset is cleared first — the trigger block is being
     * fetched by the demand access itself.
     *
     * @return false if the pattern is empty after masking or all
     *         registers are busy (the prediction is dropped).
     */
    bool allocate(uint64_t region_base, SpatialPattern pattern,
                  uint32_t trigger_offset);

    /**
     * Produce the next stream request in round-robin order across the
     * active registers.
     * @return block address to fetch, or nullopt if idle.
     */
    std::optional<uint64_t> nextRequest();

    /** True if any register still holds pending blocks. */
    bool anyPending() const { return busyRegs != 0; }

    /** Number of busy registers. */
    uint32_t busyCount() const { return busyRegs; }

    const PrfStats &stats() const { return stats_; }

  private:
    struct Reg
    {
        uint64_t regionBase = 0;
        SpatialPattern pending;
    };

    RegionGeometry geom;
    std::vector<Reg> regs;
    std::vector<uint64_t> busy;  //!< bit r set: register r is busy
    uint32_t busyRegs = 0;       //!< set bits in busy
    uint32_t rr = 0;             //!< round-robin cursor
    PrfStats stats_;
};

} // namespace stems::core

#endif // STEMS_CORE_PREDICTION_REGISTER_HH
