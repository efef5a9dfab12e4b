#include "obs/histogram.hh"

#include <iterator>
#include <utility>

namespace stems::obs {

Histograms &
Histograms::get()
{
    static Histograms h;
    return h;
}

namespace {

/**
 * Every family with its telemetry key, in telemetry order: the one
 * list reset() and snapshotHistograms() walk.
 */
constexpr std::pair<const char *, Histogram Histograms::*> kFamilies[] = {
    {"dispatch_rtt_us", &Histograms::dispatchRttUs},
    {"cell_wall_us", &Histograms::cellWallUs},
    {"journal_fsync_us", &Histograms::journalFsyncUs},
};
static_assert(sizeof(Histograms) == std::size(kFamilies) * sizeof(Histogram),
              "every Histograms family needs a kFamilies row");

} // anonymous namespace

void
Histograms::reset()
{
    for (const auto &[name, member] : kFamilies) {
        Histogram &h = this->*member;
        for (auto &b : h.buckets)
            b.store(0, std::memory_order_relaxed);
        h.count.store(0, std::memory_order_relaxed);
        h.sum.store(0, std::memory_order_relaxed);
    }
}

std::vector<HistogramSnapshot>
snapshotHistograms()
{
    std::vector<HistogramSnapshot> out;
    for (const auto &[name, member] : kFamilies) {
        const Histogram &h = Histograms::get().*member;
        HistogramSnapshot &s = out.emplace_back();
        s.name = name;
        s.count = h.count.load(std::memory_order_relaxed);
        s.sum = h.sum.load(std::memory_order_relaxed);
        for (uint32_t i = 0; i < Histogram::kBuckets; ++i)
            if (const uint64_t n =
                    h.buckets[i].load(std::memory_order_relaxed))
                s.buckets.emplace_back(i, n);
    }
    return out;
}

} // namespace stems::obs
