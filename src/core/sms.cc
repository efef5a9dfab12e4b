#include "core/sms.hh"

namespace stems::core {

SmsUnit::SmsUnit(uint32_t cpu, const SmsConfig &config, IssueFn issue,
                 std::unique_ptr<PatternTrainer> trainer)
    : cpu(cpu), cfg(config),
      trainer_(trainer ? std::move(trainer)
                       : std::make_unique<ActiveGenerationTable>(
                             config.geometry, config.agt)),
      pht_(config.pht),
      prf(config.predictionRegisters, config.geometry),
      issue(std::move(issue))
{
    trainer_->setListener(this);
}

void
SmsUnit::onAccess(uint64_t pc, uint64_t addr)
{
    trainer_->onAccess(pc, addr);
}

void
SmsUnit::generationStart(const TriggerInfo &trigger)
{
    ++stats_.triggers;
    const uint64_t key = makeIndex(cfg.index, trigger, cfg.geometry);
    auto pattern = pht_.lookup(key);
    if (!pattern)
        return;
    ++stats_.phtHits;

    if (!prf.allocate(trigger.regionBase, *pattern, trigger.offset))
        return;

    // stream every predicted block now: the register is empty again
    // before this returns, so at most one register is ever busy and
    // pred-regs cannot change results until fills are paced (nothing
    // else, the timing model included, paces this loop)
    while (auto req = prf.nextRequest()) {
        ++stats_.streamRequests;
        if (issue)
            issue(cpu, *req, cfg.intoL1);
    }
}

void
SmsUnit::generationEnd(const TriggerInfo &trigger,
                       const SpatialPattern &pattern)
{
    ++stats_.trained;
    const uint64_t key = makeIndex(cfg.index, trigger, cfg.geometry);
    pht_.update(key, pattern);
}

void
SmsUnit::drain()
{
    trainer_->drain();
}

SmsController::SmsController(mem::MemorySystem &sys, const SmsConfig &config)
{
    IssueFn fn = [&sys](uint32_t cpu, uint64_t addr, bool into_l1) {
        sys.prefetch(cpu, addr, into_l1);
    };
    for (uint32_t c = 0; c < sys.numCpus(); ++c) {
        units.push_back(std::make_unique<SmsUnit>(c, config, fn));
        sys.addL1Listener(c, units.back().get());
    }
    sys.addObserver(this);
}

void
SmsController::drainAll()
{
    for (auto &u : units)
        u->drain();
}

SmsStats
SmsController::totalStats() const
{
    SmsStats s;
    for (const auto &u : units)
        s += u->stats();
    return s;
}

} // namespace stems::core
