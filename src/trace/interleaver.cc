#include "trace/interleaver.hh"

namespace stems::trace {

void
InterleavedView::reset()
{
    rng.reseed(seed_);
    pos.assign(views_.size(), 0);
    total = 0;
    live = 0;
    for (const auto &s : views_) {
        total += s.size();
        if (s.size() != 0)
            ++live;
    }
    cpu = 0;
    spanNext = nullptr;
    spanLeft = 0;
    spanCpu = 0;
}

Trace
Interleaver::merge(const std::vector<Trace> &streams) const
{
    InterleavedView v(StreamSet::borrowed(streams).views(), minChunk,
                      maxChunk, seed_);
    Trace out;
    out.reserve(v.size());
    MemAccess a;
    while (v.next(a))
        out.push_back(a);
    return out;
}

} // namespace stems::trace
