#include "study/l1study.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "trace/interleaver.hh"

namespace stems::study {

namespace {

void invalidate(mem::Cache *c, uint64_t blk) { c->invalidate(blk); }

void
invalidate(core::DecoupledSectoredCache *c, uint64_t blk)
{
    c->invalidateBlock(blk);
}

/** Drop @p blk from every node's cache but the writer's. */
template <typename Node>
void
invalidateRemote(const std::vector<Node *> &nodes, uint32_t writer,
                 uint64_t blk)
{
    for (uint32_t o = 0; o < writer; ++o)
        invalidate(nodes[o], blk);
    for (uint32_t o = writer + 1; o < nodes.size(); ++o)
        invalidate(nodes[o], blk);
}

} // anonymous namespace

L1StudyResult
runL1Study(const trace::StreamSet &set, const L1StudyConfig &cfg,
           uint64_t seed)
{
    L1StudyResult res;

    const bool ds_mode = cfg.trainer == TrainerKind::DecoupledSectored;

    // per CPU: a shadow L1 (AGT / LS) or a DS cache, and an SMS unit
    // unless this is a baseline; a DS cache is its unit's trainer
    std::vector<std::unique_ptr<mem::Cache>> l1Owned;
    std::vector<std::unique_ptr<core::DecoupledSectoredCache>> dsOwned;
    std::vector<std::unique_ptr<core::SmsUnit>> units(cfg.ncpu);
    std::vector<mem::Cache *> l1;
    std::vector<core::DecoupledSectoredCache *> ds;

    for (uint32_t c = 0; c < cfg.ncpu; ++c) {
        if (!ds_mode) {
            l1Owned.push_back(std::make_unique<mem::Cache>(
                cfg.l1, "shadow-l1." + std::to_string(c)));
            mem::Cache *cache = l1Owned.back().get();
            l1.push_back(cache);
            if (!cfg.prefetch)
                continue;
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
            core::IssueFn issue = [cache](uint32_t, uint64_t addr, bool) {
                cache->fillPrefetch(addr);
            };
            units[c] = std::make_unique<core::SmsUnit>(
                c, cfg.sms, issue, std::move(trainer));
            cache->setListener(units[c].get());
        } else {
            auto cache = std::make_unique<core::DecoupledSectoredCache>(
                cfg.ds);
            core::DecoupledSectoredCache *raw = cache.get();
            ds.push_back(raw);
            if (!cfg.prefetch) {
                dsOwned.push_back(std::move(cache));
                continue;
            }
            core::IssueFn issue = [raw](uint32_t, uint64_t addr, bool) {
                raw->fillPrefetch(addr);
            };
            core::SmsConfig sms_cfg = cfg.sms;
            // DS defines regions by its sector size
            sms_cfg.geometry = core::RegionGeometry(cfg.ds.sectorSize,
                                                    cfg.ds.blockSize);
            units[c] = std::make_unique<core::SmsUnit>(
                c, sms_cfg, issue, std::move(cache));
        }
    }

    const uint64_t block_mask = ~uint64_t{cfg.l1.blockSize - 1};

    // the per-reference loop, with the DS/AGT choice made once: a
    // mode's access returns the shadow L1's outcome for one reference
    auto walk = [&](auto &&access) {
        trace::InterleavedView view = trace::canonicalView(set, seed);
        const trace::MemAccess *span;
        uint32_t cpu;
        size_t len;
        while ((len = view.nextSpan(span, cpu)) != 0) {
            for (const trace::MemAccess *a = span; a != span + len; ++a) {
                res.instructions += a->ninst + 1;
                const mem::AccessResult r = access(*a, cpu);
                if (!a->isWrite) {
                    ++res.readAccesses;
                    res.readMisses += !r.hit;
                    res.coveredReads += r.prefetchHit;
                }
            }
        }
    };

    if (!ds_mode) {
        walk([&](const trace::MemAccess &a, uint32_t cpu) {
            // remote stores invalidate other CPUs' copies (64 B
            // coherence)
            if (a.isWrite)
                invalidateRemote(l1, cpu, a.addr & block_mask);
            const mem::AccessResult r = l1[cpu]->access(a.addr, a.isWrite);
            if (core::SmsUnit *unit = units[cpu].get())
                unit->onAccess(a.pc, a.addr);
            return r;
        });
        for (uint32_t c = 0; c < cfg.ncpu; ++c) {
            res.overpredictions += l1[c]->stats().prefetchUnused;
            auto *agt = units[c]
                ? dynamic_cast<core::ActiveGenerationTable *>(
                      &units[c]->trainer())
                : nullptr;
            if (agt) {
                res.peakAccumOccupancy = std::max(
                    res.peakAccumOccupancy, agt->stats().peakAccumOccupancy);
                res.peakFilterOccupancy = std::max(
                    res.peakFilterOccupancy,
                    agt->stats().peakFilterOccupancy);
            }
        }
    } else {
        walk([&](const trace::MemAccess &a, uint32_t cpu) {
            if (a.isWrite)
                invalidateRemote(ds, cpu, a.addr & block_mask);
            return ds[cpu]->access(a.pc, a.addr, a.isWrite);
        });
        for (auto *c : ds)
            res.overpredictions += c->stats().prefetchUnused;
    }
    return res;
}

} // namespace stems::study
