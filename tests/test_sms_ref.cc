/**
 * @file
 * Lockstep tests of core::SmsUnit (AGT, PHT, prediction registers)
 * against the paper-text reference model in tests/ref/sms_ref.hh.
 * Both models see the same events; after every event the tests
 * compare each generation start and end (trigger and pattern), each
 * PHT lookup (key and outcome), each streamed block and every event
 * counter, and stop at the first divergence.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/sms.hh"
#include "mem/cache.hh"
#include "ref/sms_ref.hh"
#include "trace/interleaver.hh"
#include "trace/rng.hh"
#include "trace/stream.hh"
#include "workloads/workload.hh"

using namespace stems;
using namespace stems::core;

namespace {

/** One observable step of an SMS unit. */
struct Event
{
    enum Kind : uint8_t { Start, Lookup, Stream, End };

    Kind kind = Start;
    uint64_t a = 0;  //!< trigger pc, PHT key or streamed block
    uint64_t b = 0;  //!< trigger address or lookup hit
    SpatialPattern pattern;

    bool operator==(const Event &) const = default;
};

std::string
describe(const Event &e)
{
    static const char *kinds[] = {"start", "lookup", "stream", "end"};
    std::ostringstream os;
    os << kinds[e.kind] << " a=0x" << std::hex << e.a << " b=0x" << e.b
       << " pattern=" << e.pattern.toString(64);
    return os.str();
}

Event
triggerEvent(Event::Kind kind, const TriggerInfo &t,
             const SpatialPattern &p = {})
{
    return {kind, t.pc, t.address, p};
}

/**
 * The optimised AGT behind a logging shim: SmsUnit takes it as its
 * trainer, and the shim records each generation event, plus the PHT
 * lookup the unit makes for a start, in the order the reference
 * model reports them.
 */
class LoggingAgt : public PatternTrainer, public GenerationListener
{
  public:
    LoggingAgt(const SmsConfig &cfg, std::vector<Event> &log)
        : agt(cfg.geometry, cfg.agt), cfg(cfg), log(log)
    {
        agt.setListener(this);
    }

    void onAccess(uint64_t pc, uint64_t addr) override
    {
        agt.onAccess(pc, addr);
    }

    void onBlockRemoved(uint64_t block, bool inval) override
    {
        agt.onBlockRemoved(block, inval);
    }

    void drain() override { agt.drain(); }

    void
    generationStart(const TriggerInfo &t) override
    {
        log.push_back(triggerEvent(Event::Start, t));
        const size_t at = log.size();
        const uint64_t hits = pht->stats().hits;
        listener->generationStart(t);
        const Event lookup{Event::Lookup,
                           makeIndex(cfg.index, t, cfg.geometry),
                           pht->stats().hits != hits, {}};
        log.insert(log.begin() + static_cast<ptrdiff_t>(at), lookup);
    }

    void
    generationEnd(const TriggerInfo &t, const SpatialPattern &p) override
    {
        log.push_back(triggerEvent(Event::End, t, p));
        listener->generationEnd(t, p);
    }

    ActiveGenerationTable agt;
    const PatternHistoryTable *pht = nullptr;

  private:
    SmsConfig cfg;
    std::vector<Event> &log;
};

/** Sink for streamed blocks (a shadow cache's prefetch fill). */
using BlockSink = std::function<void(uint64_t)>;

/** An optimised unit and the reference unit, fed the same events. */
class Lockstep
{
  public:
    Lockstep(const SmsConfig &cfg, BlockSink realSink = {},
             BlockSink refSink = {})
        : ref(cfg)
    {
        auto agt = std::make_unique<LoggingAgt>(cfg, realLog);
        shim = agt.get();
        unit = std::make_unique<SmsUnit>(
            0, cfg,
            [this, realSink](uint32_t, uint64_t block, bool) {
                realLog.push_back({Event::Stream, block, 0, {}});
                if (realSink)
                    realSink(block);
            },
            std::move(agt));
        shim->pht = &unit->pht();

        ref.started = [this](const TriggerInfo &t) {
            refLog.push_back(triggerEvent(Event::Start, t));
        };
        ref.looked = [this](uint64_t key, bool hit) {
            refLog.push_back({Event::Lookup, key, hit, {}});
        };
        ref.issue = [this, refSink](uint64_t block) {
            refLog.push_back({Event::Stream, block, 0, {}});
            if (refSink)
                refSink(block);
        };
        ref.ended = [this](const TriggerInfo &t, const SpatialPattern &p) {
            refLog.push_back(triggerEvent(Event::End, t, p));
        };
    }

    void
    access(uint64_t pc, uint64_t addr)
    {
        unit->onAccess(pc, addr);
        ref.access(pc, addr);
    }

    void
    removed(uint64_t block, bool inval)
    {
        if (inval)
            unit->invalidated(block, false);
        else
            unit->evicted(block, false, false);
        ref.blockRemoved(block);
    }

    void
    drain()
    {
        unit->drain();
        ref.drain();
    }

    /**
     * Compare the events since the last call and every counter.
     * @return "" when the models agree, else the first divergence.
     */
    std::string
    diverged()
    {
        std::string why;
        const size_t n = std::max(realLog.size(), refLog.size());
        for (size_t i = 0; i < n && why.empty(); ++i) {
            if (i >= realLog.size())
                why = "unit missed event " + describe(refLog[i]);
            else if (i >= refLog.size())
                why = "unit added event " + describe(realLog[i]);
            else if (!(realLog[i] == refLog[i]))
                why = "event " + std::to_string(i) + ": unit " +
                    describe(realLog[i]) + ", reference " +
                    describe(refLog[i]);
        }
        realLog.clear();
        refLog.clear();
        if (!why.empty())
            return why;
        if (const std::string u = counters(shim->agt.stats(),
                                           unit->pht().stats(),
                                           unit->stats(),
                                           unit->predictionRegisters()
                                               .stats()) +
                " occ " + std::to_string(shim->agt.filterOccupancy()) +
                "/" + std::to_string(shim->agt.accumOccupancy()),
            r = counters(ref.agt.stats, ref.pht.stats, ref.sms,
                         ref.prf.stats) +
                " occ " + std::to_string(ref.agt.filterOccupancy()) +
                "/" + std::to_string(ref.agt.accumOccupancy());
            u != r)
            return "counters: unit " + u + ", reference " + r;
        return "";
    }

    std::unique_ptr<SmsUnit> unit;
    ref::RefSms ref;

  private:
    static std::string
    counters(const AgtStats &a, const PhtStats &p, const SmsStats &s,
             const PrfStats &f)
    {
        std::ostringstream os;
        os << "agt " << a.generationsStarted << ' ' << a.promotions << ' '
           << a.filterDiscards << ' ' << a.filterVictims << ' '
           << a.accumVictims << ' ' << a.generationsTrained << ' '
           << a.peakFilterOccupancy << ' ' << a.peakAccumOccupancy
           << " pht " << p.lookups << ' ' << p.hits << ' ' << p.updates
           << ' ' << p.inserts << ' ' << p.evictions << " sms "
           << s.triggers << ' ' << s.phtHits << ' ' << s.streamRequests
           << ' ' << s.trained << " prf " << f.allocations << ' '
           << f.rejections << ' ' << f.requests;
        return os.str();
    }

    LoggingAgt *shim = nullptr;
    std::vector<Event> realLog, refLog;
};

/** The table shapes the random sequences run over. */
struct Shape
{
    uint32_t filter, accum, phtEntries, phtAssoc;
    PhtUpdateMode update;
    IndexKind index;
    uint32_t predRegs;
};

const Shape kShapes[] = {
    {32, 64, 16384, 16, PhtUpdateMode::Replace, IndexKind::PcOffset, 16},
    {1, 1, 64, 4, PhtUpdateMode::Replace, IndexKind::PcOffset, 1},
    {2, 2, 16, 2, PhtUpdateMode::Union, IndexKind::Address, 1},
    {7, 65, 64, 4, PhtUpdateMode::Replace, IndexKind::PcAddress, 65},
    {63, 64, 1024, 16, PhtUpdateMode::Union, IndexKind::PcOffset, 4},
    {65, 130, 256, 16, PhtUpdateMode::Replace, IndexKind::Pc, 100},
    {0, 8, 128, 8, PhtUpdateMode::Replace, IndexKind::PcOffset, 16},
    {0, 0, 0, 16, PhtUpdateMode::Replace, IndexKind::PcOffset, 16},
};

SmsConfig
configFor(const Shape &s)
{
    SmsConfig cfg;
    cfg.agt = {s.filter, s.accum};
    cfg.pht = {s.phtEntries, s.phtAssoc, s.update};
    cfg.index = s.index;
    cfg.predictionRegisters = s.predRegs;
    return cfg;
}

std::string
shapeName(const Shape &s)
{
    std::ostringstream os;
    os << "agt " << s.filter << '/' << s.accum << " pht " << s.phtEntries
       << 'x' << s.phtAssoc << " regs " << s.predRegs;
    return os.str();
}

} // anonymous namespace

TEST(SmsReference, RandomAccessAndRemovalSequencesAgree)
{
    for (const Shape &shape : kShapes) {
        for (uint64_t seed = 1; seed <= 3; ++seed) {
            const SmsConfig cfg = configFor(shape);
            Lockstep ls(cfg);
            trace::Rng rng(seed * 7919 + shape.filter * 31 + shape.accum);
            // about twice as many live regions as the tables hold, so
            // both tables victimize; a few pcs, so the PHT hits
            const uint64_t regions =
                std::max<uint64_t>(8, 2 * (shape.filter + shape.accum));
            const uint32_t blocks = cfg.geometry.blocksPerRegion();
            auto block = [&] {
                return 0x40000000 +
                    rng.below(regions) * cfg.geometry.regionSize() +
                    rng.below(blocks) * cfg.geometry.blockSize();
            };
            for (int step = 0; step < 20000; ++step) {
                if (rng.below(16) != 0)
                    ls.access(0x400000 + rng.below(12) * 4,
                              block() + rng.below(8) * 8);
                else
                    ls.removed(block(), rng.below(2) == 0);
                if (const std::string why = ls.diverged(); !why.empty()) {
                    ADD_FAILURE() << shapeName(shape) << " seed " << seed
                                  << " step " << step << ": " << why;
                    return;
                }
            }
            // the sequence reached every path the comparison covers
            const auto &st = ls.ref.agt.stats;
            EXPECT_GT(ls.ref.sms.streamRequests, 0u) << shapeName(shape);
            EXPECT_GT(st.generationsTrained, 0u) << shapeName(shape);
            if (shape.filter != 0) {
                EXPECT_GT(st.filterVictims, 0u) << shapeName(shape);
            }
            if (shape.accum != 0) {
                EXPECT_GT(st.accumVictims, 0u) << shapeName(shape);
            }
            ls.drain();
            if (const std::string why = ls.diverged(); !why.empty()) {
                ADD_FAILURE() << shapeName(shape) << " seed " << seed
                              << " drain: " << why;
                return;
            }
        }
    }
}

TEST(SmsReference, PredictionRegistersDrainInReferenceOrder)
{
    // the units stream eagerly, so one register is busy at a time;
    // drive the register file directly to cover the round-robin walk
    const RegionGeometry geom;
    for (uint32_t nregs : {1u, 2u, 16u, 63u, 64u, 65u, 100u, 130u}) {
        PredictionRegisterFile prf(nregs, geom);
        ref::RefPrf refPrf(nregs, geom);
        trace::Rng rng(nregs);
        for (int step = 0; step < 20000; ++step) {
            std::string why;
            if (rng.below(3) == 0) {
                SpatialPattern p;
                for (uint64_t k = rng.below(6); k > 0; --k)
                    p.set(static_cast<uint32_t>(rng.below(32)));
                const uint64_t base = rng.below(1 << 20) * 2048;
                const uint32_t off = static_cast<uint32_t>(rng.below(32));
                const bool got = prf.allocate(base, p, off);
                if (got != refPrf.allocate(base, p, off))
                    why = "allocate disagrees";
            } else {
                const auto got = prf.nextRequest();
                const auto want = refPrf.next();
                if (got != want)
                    why = "request " +
                        (got ? std::to_string(*got) : "none") +
                        ", reference " +
                        (want ? std::to_string(*want) : "none");
            }
            const PrfStats &s = prf.stats();
            if (why.empty() &&
                (prf.busyCount() != refPrf.busy() ||
                 prf.anyPending() != (refPrf.busy() != 0) ||
                 s.allocations != refPrf.stats.allocations ||
                 s.rejections != refPrf.stats.rejections ||
                 s.requests != refPrf.stats.requests))
                why = "counters disagree";
            if (!why.empty()) {
                ADD_FAILURE() << nregs << " registers, step " << step
                              << ": " << why;
                return;
            }
        }
    }
}

TEST(SmsReference, SuiteTraceSlicesThroughShadowL1Agree)
{
    // every suite workload's trace, interleaved as the L1 study walks
    // it, through per-CPU shadow L1s: one set of caches per model, so
    // each model's own streamed blocks and departures feed it back
    SmsConfig tight;
    tight.agt = {8, 16};
    tight.pht = {256, 4, PhtUpdateMode::Replace};
    tight.predictionRegisters = 2;
    const struct
    {
        SmsConfig sms;
        mem::CacheConfig l1;
    } setups[] = {{SmsConfig{}, {64 * 1024, 2, 64}},
                  {tight, {16 * 1024, 2, 64}}};

    workloads::WorkloadParams p;
    p.ncpu = 4;
    p.refsPerCpu = 3000;
    for (const auto &entry : workloads::fullSuite()) {
        const auto streams = entry.make()->generateStreams(p);
        const trace::StreamSet set = trace::StreamSet::borrowed(streams);
        for (const auto &setup : setups) {
            std::vector<std::unique_ptr<mem::Cache>> realL1, refL1;
            std::vector<std::unique_ptr<Lockstep>> units;
            struct RefListener : mem::CacheListener
            {
                ref::RefSms *ref = nullptr;
                void evicted(uint64_t a, bool, bool) override
                {
                    ref->blockRemoved(a);
                }
                void invalidated(uint64_t a, bool) override
                {
                    ref->blockRemoved(a);
                }
            };
            std::vector<RefListener> refListeners(p.ncpu);
            for (uint32_t c = 0; c < p.ncpu; ++c) {
                realL1.push_back(std::make_unique<mem::Cache>(setup.l1));
                refL1.push_back(std::make_unique<mem::Cache>(setup.l1));
                mem::Cache *real = realL1.back().get();
                mem::Cache *refc = refL1.back().get();
                units.push_back(std::make_unique<Lockstep>(
                    setup.sms,
                    [real](uint64_t b) { real->fillPrefetch(b); },
                    [refc](uint64_t b) { refc->fillPrefetch(b); }));
                real->setListener(units.back()->unit.get());
                refListeners[c].ref = &units.back()->ref;
                refc->setListener(&refListeners[c]);
            }

            const uint64_t blockMask = ~uint64_t{setup.l1.blockSize - 1};
            trace::InterleavedView view = trace::canonicalView(set, p.seed);
            trace::MemAccess a;
            for (uint64_t k = 0; view.next(a); ++k) {
                if (a.isWrite) {
                    for (uint32_t o = 0; o < p.ncpu; ++o) {
                        if (o == a.cpu)
                            continue;
                        realL1[o]->invalidate(a.addr & blockMask);
                        refL1[o]->invalidate(a.addr & blockMask);
                    }
                }
                const mem::AccessResult r =
                    realL1[a.cpu]->access(a.addr, a.isWrite);
                const mem::AccessResult w =
                    refL1[a.cpu]->access(a.addr, a.isWrite);
                std::string why;
                if (r.hit != w.hit || r.prefetchHit != w.prefetchHit)
                    why = "shadow L1 outcomes differ";
                units[a.cpu]->unit->onAccess(a.pc, a.addr);
                units[a.cpu]->ref.access(a.pc, a.addr);
                for (uint32_t c = 0; c < p.ncpu && why.empty(); ++c)
                    if (std::string d = units[c]->diverged(); !d.empty())
                        why = "cpu " + std::to_string(c) + ": " + d;
                if (!why.empty()) {
                    ADD_FAILURE() << entry.name << " ref " << k << ": "
                                  << why;
                    return;
                }
            }
        }
    }
}
