#include "study/l1study.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "trace/interleaver.hh"

namespace stems::study {

namespace {

/** One CPU's shadow pipeline for the AGT / LS variants. */
struct ShadowNode
{
    std::unique_ptr<mem::Cache> cache;
    std::unique_ptr<core::SmsUnit> unit;  //!< null in baseline runs
};

} // anonymous namespace

L1StudyResult
runL1Study(const trace::StreamSet &set, const L1StudyConfig &cfg,
           uint64_t seed)
{
    L1StudyResult res;

    const bool ds_mode = cfg.trainer == TrainerKind::DecoupledSectored;

    std::vector<ShadowNode> nodes;
    std::vector<core::DecoupledSectoredCache *> ds;  // borrowed ptrs
    std::vector<std::unique_ptr<core::SmsUnit>> dsUnits;
    std::vector<std::unique_ptr<core::DecoupledSectoredCache>> dsOwned;

    if (!ds_mode) {
        nodes.resize(cfg.ncpu);
        for (uint32_t c = 0; c < cfg.ncpu; ++c) {
            nodes[c].cache = std::make_unique<mem::Cache>(
                cfg.l1, "shadow-l1." + std::to_string(c));
            if (cfg.prefetch) {
                std::unique_ptr<core::PatternTrainer> trainer;
                if (cfg.trainer == TrainerKind::LogicalSectored) {
                    // tags as if the cache were sectored at region size
                    core::SectoredTagConfig ls;
                    ls.assoc = cfg.l1.assoc;
                    ls.sets = static_cast<uint32_t>(
                        cfg.l1.sizeBytes /
                        (uint64_t{cfg.sms.geometry.regionSize()} *
                         cfg.l1.assoc));
                    if (ls.sets == 0)
                        ls.sets = 1;
                    trainer = std::make_unique<core::LogicalSectoredTags>(
                        cfg.sms.geometry, ls);
                }
                mem::Cache *cache = nodes[c].cache.get();
                core::IssueFn issue = [cache](uint32_t, uint64_t addr,
                                              bool) {
                    cache->fillPrefetch(addr);
                };
                nodes[c].unit = std::make_unique<core::SmsUnit>(
                    c, cfg.sms, issue, std::move(trainer));
                nodes[c].cache->setListener(nodes[c].unit.get());
            }
        }
    } else {
        for (uint32_t c = 0; c < cfg.ncpu; ++c) {
            auto cache = std::make_unique<core::DecoupledSectoredCache>(
                cfg.ds);
            ds.push_back(cache.get());
            if (cfg.prefetch) {
                core::DecoupledSectoredCache *raw = cache.get();
                core::IssueFn issue = [raw](uint32_t, uint64_t addr,
                                            bool) {
                    raw->fillPrefetch(addr);
                };
                core::SmsConfig sms_cfg = cfg.sms;
                // DS defines regions by its sector size
                sms_cfg.geometry = core::RegionGeometry(
                    cfg.ds.sectorSize, cfg.ds.blockSize);
                dsUnits.push_back(std::make_unique<core::SmsUnit>(
                    c, sms_cfg, issue, std::move(cache)));
            } else {
                // baseline DS: keep the cache alive without a unit
                dsUnits.push_back(nullptr);
                dsOwned.push_back(std::move(cache));
            }
        }
    }

    const uint64_t block_mask = ~uint64_t{cfg.l1.blockSize - 1};

    // one reference, its cpu field stamped with the stream index
    auto step = [&](const trace::MemAccess &a) {
        res.instructions += a.ninst + 1;

        // remote stores invalidate other CPUs' copies (64 B coherence)
        if (a.isWrite) {
            const uint64_t blk = a.addr & block_mask;
            for (uint32_t o = 0; o < cfg.ncpu; ++o) {
                if (o == a.cpu)
                    continue;
                if (!ds_mode)
                    nodes[o].cache->invalidate(blk);
                else
                    ds[o]->invalidateBlock(blk);
            }
        }

        mem::AccessResult r;
        if (!ds_mode) {
            r = nodes[a.cpu].cache->access(a.addr, a.isWrite);
            if (nodes[a.cpu].unit)
                nodes[a.cpu].unit->onAccess(a.pc, a.addr);
        } else {
            r = ds[a.cpu]->access(a.pc, a.addr, a.isWrite);
        }

        if (!a.isWrite) {
            ++res.readAccesses;
            if (!r.hit)
                ++res.readMisses;
            if (r.prefetchHit)
                ++res.coveredReads;
        }
    };

    trace::InterleavedView view = trace::canonicalView(set, seed);
    const trace::MemAccess *span;
    uint32_t spanCpu;
    size_t len;
    while ((len = view.nextSpan(span, spanCpu)) != 0) {
        for (size_t k = 0; k < len; ++k) {
            trace::MemAccess a = span[k];
            a.cpu = spanCpu;
            step(a);
        }
    }

    if (!ds_mode) {
        for (auto &n : nodes) {
            res.overpredictions += n.cache->stats().prefetchUnused;
            if (n.unit) {
                auto *agt = dynamic_cast<core::ActiveGenerationTable *>(
                    &n.unit->trainer());
                if (agt) {
                    res.peakAccumOccupancy = std::max(
                        res.peakAccumOccupancy,
                        agt->stats().peakAccumOccupancy);
                    res.peakFilterOccupancy = std::max(
                        res.peakFilterOccupancy,
                        agt->stats().peakFilterOccupancy);
                }
            }
        }
    } else {
        for (auto *c : ds)
            res.overpredictions += c->stats().prefetchUnused;
    }
    return res;
}

} // namespace stems::study
