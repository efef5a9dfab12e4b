/**
 * @file
 * The prefetcher registry: one polymorphic, option-driven construction
 * path for every prefetcher the repository knows — SMS, the GHB PC/DC
 * and stride/next-line baselines, and "none" — ending the per-bench
 * wiring duplication. An EngineConfig names a registered prefetcher
 * plus its key=value parameters; the registry deploys it onto a
 * MemorySystem and hands back a uniform handle that can be drained and
 * harvested for counters.
 */

#ifndef STEMS_DRIVER_REGISTRY_HH
#define STEMS_DRIVER_REGISTRY_HH

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/sms.hh"
#include "driver/options.hh"
#include "mem/memsys.hh"
#include "prefetch/ghb.hh"
#include "prefetch/stride.hh"
#include "study/l1study.hh"
#include "study/memstudy.hh"

namespace stems::driver {

/** Names one registered prefetcher plus its parameters. */
struct EngineConfig
{
    std::string kind = "none";  //!< registry name (sms, ghb, ...)
    std::string label;          //!< display label; defaults to kind
    Options options;            //!< prefetcher parameters

    const std::string &displayLabel() const
    {
        return label.empty() ? kind : label;
    }
};

/** Named event counters harvested into reports. */
using Counters = prefetch::Counters;

/**
 * A prefetcher deployed onto one MemorySystem. Constructed by the
 * registry; must outlive the run but not the MemorySystem teardown
 * (the destructor touches only the deployment's own state). The
 * drain/counters contract comes from the attach seam
 * (prefetch::AttachedPrefetcher), so a deployment plugs into any pass
 * that takes a PfAttach — the trace studies and the timing model
 * alike.
 */
class PrefetcherDeployment : public study::AttachedPrefetcher
{
  public:
    explicit PrefetcherDeployment(std::string name) : name_(std::move(name))
    {}

    const std::string &name() const { return name_; }

  private:
    std::string name_;
};

/**
 * Maps prefetcher names to deployment factories. Each engine's option
 * table (see driver/options.hh) is the one declaration of its keys:
 * key checks, value checks and help text all derive from it.
 */
class PrefetcherRegistry
{
  public:
    using Factory = std::function<std::unique_ptr<PrefetcherDeployment>(
        mem::MemorySystem &sys, const Options &opts)>;

    /** The process-wide registry preloaded with the built-ins. */
    static PrefetcherRegistry &builtin();

    bool has(const std::string &name) const;

    /** Option rows of @p name (empty if unknown). */
    KeyTable options(const std::string &name) const;

    /** Whether @p name's factory understands option @p key. */
    bool knowsOption(const std::string &name,
                     const std::string &key) const;

    /**
     * Deploy @p name onto @p sys with @p opts; throws
     * std::invalid_argument for unknown names or bad option values.
     */
    std::unique_ptr<PrefetcherDeployment>
    create(const std::string &name, mem::MemorySystem &sys,
           const Options &opts) const;

    /** Registered names, in registration order. */
    std::vector<std::string> names() const;

    /** Title line plus one rendered line per option. */
    std::string help(const std::string &name) const;

  private:
    struct Entry
    {
        std::string name;
        std::string title;
        std::function<KeyTable()> options;  //!< rows on a scratch target
        Factory factory;
    };

    const Entry *findEntry(const std::string &name) const;

    std::vector<Entry> entries;
};

/**
 * The canonical PfAttach for registry engines: deploys @p kind with
 * @p opts onto the run's MemorySystem, parking ownership in @p dep
 * (which must outlive the run). Used by the executor's timing pass
 * and shared with the benches and tests so the attach contract lives
 * in exactly one place.
 */
prefetch::PfAttach registryAttach(
    std::string kind, std::unique_ptr<PrefetcherDeployment> &dep,
    Options opts = {});

// option translation, shared with the timing path and tests

/** Build an SmsConfig from options (pht-entries, agt-accum, ...). */
core::SmsConfig smsConfigFromOptions(const Options &o);

/**
 * The L1-mode study an sms engine's options select: its SmsConfig
 * plus the training structure (trainer=, ds-tag-mult=). The caller
 * fills in the cell's CPU count and L1 shape.
 */
study::L1StudyConfig l1StudyConfigFromOptions(const Options &o);

/** Build a GhbConfig from options (ghb-entries, it-entries, ...). */
prefetch::GhbConfig ghbConfigFromOptions(const Options &o);

/** Build a StrideConfig from options (entries, degree, threshold). */
prefetch::StrideConfig strideConfigFromOptions(const Options &o);

} // namespace stems::driver

#endif // STEMS_DRIVER_REGISTRY_HH
