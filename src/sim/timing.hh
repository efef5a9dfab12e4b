/**
 * @file
 * Trace-driven out-of-order timing model for the performance
 * experiments (Figures 12-13), at reduced fidelity against the
 * paper's methodology.
 *
 * The model is an observer of the system study's pass
 * (study::runSystem): the interleaved trace walks the coherent
 * multiprocessor hierarchy once, with any attached prefetcher, and
 * CoreTimer sees each reference together with where it hit, including
 * the prefetched-into-L1/L2 provenance bits. It prices the reference
 * from that outcome and retires it through its CPU's analytic
 * out-of-order core: 8-wide dispatch/retire, a 256-entry ROB bounding
 * the overlap window, MSHR-limited memory-level parallelism,
 * dependence distances serializing pointer chases, and a 64-entry
 * store buffer that stalls retirement when full (the effect that
 * gates Qry1). Head-of-ROB stall cycles are attributed to off-chip
 * reads, on-chip reads, store-buffer-full, or other, producing the
 * Figure 13 breakdown.
 *
 * The model is engine-agnostic: it hosts prefetchers through the
 * attach seam (prefetch::PfAttach), so every registry prefetcher —
 * SMS, GHB PC/DC, stride, next-line — gets a uIPC/speedup number.
 * Prefetches are priced uniformly from the outcome: a block streamed
 * into L1 turns its read into an L1 hit; a block prefetched only to
 * L2 turns an off-chip read into an on-chip one; and a store that
 * hits a block any engine streamed into L1 read-only still pays a
 * full fetch-for-ownership round trip before the store buffer can
 * drain it (Section 4.7's Qry1 observation). No engine owns a
 * privileged code path.
 */

#ifndef STEMS_SIM_TIMING_HH
#define STEMS_SIM_TIMING_HH

#include <cstdint>
#include <vector>

#include "mem/memsys.hh"
#include "prefetch/attach.hh"
#include "sim/torus.hh"
#include "trace/access.hh"
#include "trace/stream.hh"

namespace stems::sim {

/** Core microarchitecture parameters (Table 1 values at 4 GHz). */
struct CoreConfig
{
    uint32_t width = 8;           //!< dispatch/retire width
    uint32_t robEntries = 256;
    uint32_t storeBuffer = 64;
    uint32_t mshrs = 32;
    uint32_t l1Latency = 2;       //!< load-to-use
    uint32_t l2Latency = 25;
    uint32_t memLatency = 240;    //!< 60 ns
    uint32_t hopLatency = 100;    //!< 25 ns per interconnect hop
    uint32_t upgradeLatency = 430;//!< write permission: directory
                                  //!< round-trip + invalidation acks
    double otherStallPerInstr = 0.08;  //!< branch/I-cache proxy
};

/** Time per activity category, in cycles (Figure 13's stack). */
struct TimeBreakdown
{
    double userBusy = 0;
    double systemBusy = 0;
    double offChipRead = 0;
    double onChipRead = 0;
    double storeBuffer = 0;
    double other = 0;

    double
    total() const
    {
        return userBusy + systemBusy + offChipRead + onChipRead +
            storeBuffer + other;
    }

    TimeBreakdown &
    operator+=(const TimeBreakdown &o)
    {
        userBusy += o.userBusy;
        systemBusy += o.systemBusy;
        offChipRead += o.offChipRead;
        onChipRead += o.onChipRead;
        storeBuffer += o.storeBuffer;
        other += o.other;
        return *this;
    }
};

/** Configuration of one timing run. */
struct TimingConfig
{
    CoreConfig core;
    mem::MemSysConfig sys;
};

/** Result of one timing run. */
struct TimingResult
{
    double cycles = 0;            //!< elapsed (max over CPUs)
    uint64_t userInstructions = 0;
    uint64_t systemInstructions = 0;
    TimeBreakdown breakdown;      //!< summed over CPUs

    /** Aggregate user IPC — the paper's performance metric. */
    double
    uipc() const
    {
        return cycles > 0 ? double(userInstructions) / cycles : 0.0;
    }
};

/**
 * The out-of-order core model as a study::runSystem observer.
 * observe() prices each reference from the hierarchy's outcome and
 * stages it; every kBatch references the batch retires through the
 * cores. Pricing never reads core time, so the split is numerically
 * identical to retiring in place, while the hierarchy walk and the
 * retire loop each keep their branches and data hot.
 */
class CoreTimer
{
  public:
    CoreTimer(const CoreConfig &cfg, uint32_t ncpu);
    ~CoreTimer();
    CoreTimer(const CoreTimer &) = delete;
    CoreTimer &operator=(const CoreTimer &) = delete;

    void observe(const trace::MemAccess &a, const mem::AccessOutcome &out);

    /** Retire what is still staged; the run's timing over all CPUs. */
    TimingResult finish();

  private:
    struct Core;

    /** Where a read's stall is charged. */
    enum class Cat : uint8_t { L1, OnChip, OffChip };

    /** A priced reference, staged between observe() and retire. */
    struct Staged
    {
        trace::MemAccess a;
        uint32_t lat;
        Cat cat;
    };

    /** References staged per batch. */
    static constexpr size_t kBatch = 128;

    void retire();

    const CoreConfig cfg;
    Torus torus;
    std::vector<Core> cores;
    std::vector<Staged> batch;
    size_t filled = 0;
};

/**
 * Time per-CPU streams (from Workload::generateStreams, wrapped in
 * StreamSet::borrowed, or an mmap'd spill consumed straight from the
 * page cache) in canonical interleaved order for workload seed
 * @p seed: a study::runSystem pass observed by a CoreTimer.
 *
 * @param attach builds a prefetcher deployment onto the run's
 *               MemorySystem before the first reference (empty = no
 *               prefetcher), drained after the last one.
 */
TimingResult runTiming(const trace::StreamSet &set,
                       const TimingConfig &cfg, uint64_t seed = 1,
                       const prefetch::PfAttach &attach = {});

} // namespace stems::sim

#endif // STEMS_SIM_TIMING_HH
