#include "driver/registry.hh"

#include <stdexcept>

namespace stems::driver {

namespace {

// ---------------------------------------------------------------------
// deployments
// ---------------------------------------------------------------------

/** The "none" deployment: a baseline system with no prefetcher. */
class NoneDeployment : public PrefetcherDeployment
{
  public:
    NoneDeployment() : PrefetcherDeployment("none") {}
};

/** SMS via core::SmsController. */
class SmsDeployment : public PrefetcherDeployment
{
  public:
    SmsDeployment(mem::MemorySystem &sys, const Options &opts)
        : PrefetcherDeployment("sms"),
          ctrl(sys, smsConfigFromOptions(opts))
    {}

    void drain() override { ctrl.drainAll(); }

    Counters
    counters() const override
    {
        core::SmsStats s = ctrl.totalStats();
        return {{"triggers", s.triggers},
                {"pht_hits", s.phtHits},
                {"stream_requests", s.streamRequests},
                {"trained", s.trained}};
    }

  private:
    core::SmsController ctrl;
};

/** Any PrefetchAlgorithm via prefetch::PrefetchController. */
class AlgoDeployment : public PrefetcherDeployment
{
  public:
    AlgoDeployment(std::string name, mem::MemorySystem &sys,
                   const prefetch::PrefetchController::Factory &make)
        : PrefetcherDeployment(std::move(name)), ctrl(sys, make)
    {}

    Counters
    counters() const override
    {
        return {{"issued", ctrl.stats().issued}};
    }

  protected:
    prefetch::PrefetchController ctrl;
};

/** GHB PC/DC, with the algorithm's own counters exposed. */
class GhbDeployment : public AlgoDeployment
{
  public:
    GhbDeployment(mem::MemorySystem &sys, const Options &opts)
        : AlgoDeployment("ghb", sys,
                         [cfg = ghbConfigFromOptions(opts)] {
                             return std::make_unique<prefetch::GhbPcDc>(
                                 cfg);
                         }),
          ncpu(sys.numCpus())
    {
        for (uint32_t c = 0; c < ncpu; ++c)
            algos.push_back(
                static_cast<prefetch::GhbPcDc *>(&ctrl.algo(c)));
    }

    Counters
    counters() const override
    {
        prefetch::GhbStats sum;
        for (const auto *ghb : algos) {
            sum.triggers += ghb->stats().triggers;
            sum.walks += ghb->stats().walks;
            sum.correlations += ghb->stats().correlations;
            sum.issued += ghb->stats().issued;
        }
        return {{"triggers", sum.triggers},
                {"walks", sum.walks},
                {"correlations", sum.correlations},
                {"issued", sum.issued}};
    }

  private:
    uint32_t ncpu;
    std::vector<prefetch::GhbPcDc *> algos;
};

} // anonymous namespace

// ---------------------------------------------------------------------
// option tables
// ---------------------------------------------------------------------

namespace {

/**
 * What the sms rows set: the L1-mode study (the SMS parameters plus
 * its training structure) and the two sizes the region geometry is
 * built from once every option is read.
 */
struct SmsOptions
{
    study::L1StudyConfig study;
    uint32_t region = 2048;
    uint32_t block = 64;
};

KeyTable
smsKeys(SmsOptions &o)
{
    core::SmsConfig &c = o.study.sms;
    using core::IndexKind;
    using study::TrainerKind;
    return {
        u32Key("region", o.region, "spatial region bytes"),
        u32Key("block", o.block, "block bytes"),
        u32Key("pht-entries", c.pht.entries, "PHT entries (0 = unbounded)"),
        u32Key("pht-assoc", c.pht.assoc, "PHT ways"),
        enumKey("pht-update", c.pht.update,
                {{"replace", core::PhtUpdateMode::Replace},
                 {"union", core::PhtUpdateMode::Union}},
                "how training merges into a PHT entry"),
        u32Key("agt-filter", c.agt.filterEntries, "AGT filter entries"),
        u32Key("agt-accum", c.agt.accumEntries, "AGT accumulation entries"),
        enumKey("index", c.index,
                {{"pc+off", IndexKind::PcOffset}, {"pc", IndexKind::Pc},
                 {"addr", IndexKind::Address},
                 {"pc+addr", IndexKind::PcAddress}},
                "prediction index"),
        u32Key("pred-regs", c.predictionRegisters, "prediction registers"),
        boolKey("into-l1", c.intoL1, "stream into L1 (0 = into L2)"),
        enumKey("trainer", o.study.trainer,
                {{"agt", TrainerKind::AGT},
                 {"ls", TrainerKind::LogicalSectored},
                 {"ds", TrainerKind::DecoupledSectored}},
                "training structure, mode=l1"),
        u32Key("ds-tag-mult", o.study.ds.tagMult, "DS tags per data sector"),
    };
}

KeyTable
ghbKeys(prefetch::GhbConfig &c)
{
    return {
        u32Key("ghb-entries", c.ghbEntries, "global history buffer entries"),
        u32Key("it-entries", c.itEntries, "index table entries"),
        u32Key("degree", c.degree, "prefetches per trigger"),
        u32Key("max-walk", c.maxWalk, "history entries walked per trigger"),
        u32Key("block", c.blockSize, "block bytes"),
    };
}

KeyTable
strideKeys(prefetch::StrideConfig &c)
{
    return {
        u32Key("entries", c.entries, "reference prediction table entries"),
        u32Key("degree", c.degree, "prefetches per trigger"),
        u32Key("threshold", c.threshold, "confirmations before issuing"),
        u32Key("block", c.blockSize, "block bytes"),
        boolKey("into-l1", c.l1Destination, "prefetch into L1 (0 = L2)"),
    };
}

struct NextLineConfig
{
    uint32_t degree = 1;
    uint32_t block = 64;
};

KeyTable
nextLineKeys(NextLineConfig &c)
{
    return {
        u32Key("degree", c.degree, "blocks fetched ahead per miss"),
        u32Key("block", c.block, "block bytes"),
    };
}

/** @p T's defaults with every option @p keys has a row for applied. */
template <typename T>
T
fromOptions(KeyTable (*keys)(T &), const Options &o)
{
    T cfg;
    applyOptions(keys(cfg), o);
    return cfg;
}

SmsOptions
smsOptions(const Options &o)
{
    SmsOptions s = fromOptions(smsKeys, o);
    s.study.sms.geometry = core::RegionGeometry(s.region, s.block);
    return s;
}

} // anonymous namespace

core::SmsConfig
smsConfigFromOptions(const Options &o)
{
    return smsOptions(o).study.sms;
}

study::L1StudyConfig
l1StudyConfigFromOptions(const Options &o)
{
    return smsOptions(o).study;
}

prefetch::GhbConfig
ghbConfigFromOptions(const Options &o)
{
    return fromOptions(ghbKeys, o);
}

prefetch::StrideConfig
strideConfigFromOptions(const Options &o)
{
    return fromOptions(strideKeys, o);
}

// ---------------------------------------------------------------------
// registry
// ---------------------------------------------------------------------

PrefetcherRegistry &
PrefetcherRegistry::builtin()
{
    static PrefetcherRegistry reg = [] {
        PrefetcherRegistry r;
        r.entries = {
            {"none", "no prefetcher (baseline system)",
             [] { return KeyTable{}; },
             [](mem::MemorySystem &, const Options &) {
                 return std::make_unique<NoneDeployment>();
             }},
            {"sms", "Spatial Memory Streaming",
             [] { return scratchKeys(smsKeys); },
             [](mem::MemorySystem &sys, const Options &o) {
                 return std::make_unique<SmsDeployment>(sys, o);
             }},
            {"ghb", "GHB PC/DC", [] { return scratchKeys(ghbKeys); },
             [](mem::MemorySystem &sys, const Options &o) {
                 return std::make_unique<GhbDeployment>(sys, o);
             }},
            {"stride", "per-PC stride RPT",
             [] { return scratchKeys(strideKeys); },
             [](mem::MemorySystem &sys, const Options &o) {
                 auto cfg = strideConfigFromOptions(o);
                 return std::make_unique<AlgoDeployment>(
                     "stride", sys, [cfg] {
                         return std::make_unique<
                             prefetch::StridePrefetcher>(cfg);
                     });
             }},
            {"next-line", "sequential next-line on L1 miss",
             [] { return scratchKeys(nextLineKeys); },
             [](mem::MemorySystem &sys, const Options &o) {
                 const auto cfg = fromOptions(nextLineKeys, o);
                 return std::make_unique<AlgoDeployment>(
                     "next-line", sys, [cfg] {
                         return std::make_unique<
                             prefetch::NextLinePrefetcher>(cfg.block,
                                                           cfg.degree);
                     });
             }},
        };
        return r;
    }();
    return reg;
}

prefetch::PfAttach
registryAttach(std::string kind,
               std::unique_ptr<PrefetcherDeployment> &dep, Options opts)
{
    return [kind = std::move(kind), &dep, opts = std::move(opts)](
               mem::MemorySystem &sys) -> study::AttachedPrefetcher * {
        dep = PrefetcherRegistry::builtin().create(kind, sys, opts);
        return dep.get();
    };
}

KeyTable
PrefetcherRegistry::options(const std::string &name) const
{
    const Entry *e = findEntry(name);
    return e ? e->options() : KeyTable{};
}

bool
PrefetcherRegistry::knowsOption(const std::string &name,
                                const std::string &key) const
{
    return findKey(options(name), key) != nullptr;
}

const PrefetcherRegistry::Entry *
PrefetcherRegistry::findEntry(const std::string &name) const
{
    for (const auto &e : entries)
        if (e.name == name)
            return &e;
    return nullptr;
}

bool
PrefetcherRegistry::has(const std::string &name) const
{
    return findEntry(name) != nullptr;
}

std::unique_ptr<PrefetcherDeployment>
PrefetcherRegistry::create(const std::string &name,
                           mem::MemorySystem &sys,
                           const Options &opts) const
{
    const Entry *e = findEntry(name);
    if (!e) {
        std::string known;
        for (const auto &k : entries)
            known += (known.empty() ? "" : ", ") + k.name;
        throw std::invalid_argument("unknown prefetcher \"" + name +
                                    "\" (known: " + known + ")");
    }
    return e->factory(sys, opts);
}

std::vector<std::string>
PrefetcherRegistry::names() const
{
    std::vector<std::string> out;
    for (const auto &e : entries)
        out.push_back(e.name);
    return out;
}

std::string
PrefetcherRegistry::help(const std::string &name) const
{
    const Entry *e = findEntry(name);
    return e ? e->title + "\n" + renderKeys(e->options(), "      ")
             : std::string();
}

} // namespace stems::driver
