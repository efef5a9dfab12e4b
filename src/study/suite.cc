#include "study/suite.hh"

#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "obs/counters.hh"
#include "obs/obs.hh"
#include "trace/io.hh"
#include "trace/lock.hh"
#include "util/flat_map.hh"

namespace stems::study {

namespace {

/**
 * Bump when workload generators or the interleave schedule change
 * behaviour: on-disk spill traces recorded by older generators are
 * then rejected and regenerated instead of silently replayed.
 */
constexpr uint64_t kGeneratorVersion = 2;

uint64_t
hashCombine(uint64_t h, uint64_t x)
{
    return util::Mix64{}(h ^ (x + 0x9e3779b97f4a7c15ULL));
}

} // anonymous namespace

uint64_t
generatorConfigHash(const std::string &name,
                    const workloads::WorkloadParams &p)
{
    uint64_t h = kGeneratorVersion;
    for (char c : name)
        h = hashCombine(h, static_cast<unsigned char>(c));
    h = hashCombine(h, p.ncpu);
    h = hashCombine(h, p.refsPerCpu);
    h = hashCombine(h, p.seed);
    return h ? h : 1;  // 0 means "no hash" on disk
}

workloads::WorkloadParams
defaultParams(uint64_t refs_per_cpu)
{
    workloads::WorkloadParams p;
    p.ncpu = 16;
    p.seed = 1;
    p.refsPerCpu = refs_per_cpu;
    return p;
}

void
TraceCache::setSpillDir(const std::string &dir)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);  // best effort
    spillDir = dir;
}

std::string
TraceCache::slotKey(const std::string &name,
                    const workloads::WorkloadParams &p)
{
    std::ostringstream key;
    key << name << "_" << p.ncpu << "_" << p.refsPerCpu << "_" << p.seed;
    return key.str();
}

std::string
TraceCache::spillPath(const std::string &name,
                      const workloads::WorkloadParams &p) const
{
    return spillDir.empty() ? std::string()
                            : spillDir + "/" + slotKey(name, p) + ".stmt";
}

TraceCache::Slot &
TraceCache::slot(const std::string &name,
                 const workloads::WorkloadParams &p)
{
    const std::string key = slotKey(name, p);
    std::lock_guard<std::mutex> lock(mu);
    return slots[key];
}

const trace::StreamSet &
TraceCache::viewSetImpl(const std::string &name,
                        const workloads::WorkloadParams &p,
                        bool count_lookup)
{
    Slot &s = slot(name, p);
    std::call_once(s.setOnce, [&] {
        // the miss is counted inside the once so it stays slot-tied
        // (exactly one per distinct key) no matter which caller — a
        // consumer or the lane pool warmer — gets here first
        obs::count(&obs::Counters::traceCacheMisses);
        const uint64_t hash = generatorConfigHash(name, p);
        const std::string file = spillPath(name, p);

        // replay: v4 spills hold one section per stream, mapped and
        // handed out as zero-copy views. The file is fully validated —
        // header, section table, size, checksum — before any view
        // escapes, so a corrupt or unmappable spill is a replay miss
        // (regenerated below), never a SIGBUS.
        auto tryReplay = [&]() -> bool {
            obs::Span span("trace_replay", {{"workload", name}});
            auto m = trace::MappedTrace::open(file, hash);
            if (!m || m->numStreams() != p.ncpu)
                return false;
            obs::count(&obs::Counters::traceBytesMapped, m->bytes());
            s.set = trace::StreamSet::mapped(std::move(m));
            obs::count(&obs::Counters::traceSpillReplays);
            return true;
        };

        auto generate = [&] {
            obs::Span span("trace_generate", {{"workload", name}});
            const workloads::SuiteEntry *entry =
                workloads::findWorkload(name);
            if (!entry)
                throw std::invalid_argument("unknown workload: " + name);
            auto w = entry->make();
            s.set = trace::StreamSet::owned(w->generateStreams(p));
        };

        auto build = [&] {
            if (file.empty()) {
                generate();
                return;
            }
            if (tryReplay())
                return;
            // concurrent generators (dispatch workers sharing the
            // spill dir) serialize here so each trace is generated
            // exactly once: the lock winner records, the losers wake
            // up and replay
            trace::FileLock lock(file + ".lock");
            if (lock.held() && tryReplay())
                return;
            generate();
            // record, best effort (atomic rename, so lockless
            // fast-path readers never see a torn file)
            trace::writeTraceStreams(*s.set.vectors(), file, hash);
        };
        build();
        s.prepared.store(true, std::memory_order_release);
    });
    // a hit for every counted lookup after the slot's first, whoever
    // built it — deterministic across thread counts; prepare() passes
    // count_lookup=false so the lane pool warmer never perturbs it
    if (count_lookup && s.looked.exchange(true, std::memory_order_relaxed))
        obs::count(&obs::Counters::traceCacheHits);
    return s.set;
}

const trace::StreamSet &
TraceCache::viewSet(const std::string &name,
                    const workloads::WorkloadParams &p)
{
    return viewSetImpl(name, p, true);
}

void
TraceCache::prepare(const std::string &name,
                    const workloads::WorkloadParams &p)
{
    viewSetImpl(name, p, false);
}

bool
TraceCache::ready(const std::string &name,
                  const workloads::WorkloadParams &p)
{
    const std::string key = slotKey(name, p);
    std::lock_guard<std::mutex> lock(mu);
    auto it = slots.find(key);
    return it != slots.end() &&
        it->second.prepared.load(std::memory_order_acquire);
}

const std::vector<std::string> &
groupNames()
{
    static const std::vector<std::string> groups = {
        "OLTP", "DSS", "Web", "Scientific",
    };
    return groups;
}

std::vector<std::string>
workloadsInGroup(const std::string &group)
{
    std::vector<std::string> out;
    for (const auto &e : workloads::paperSuite()) {
        if (suiteClassName(e.cls) == group)
            out.push_back(e.name);
    }
    return out;
}

} // namespace stems::study
