/**
 * @file
 * Domain scenario 2: prefetcher bake-off. Runs one workload from each
 * class through the memory system under four prefetchers — none,
 * stride, GHB PC/DC, SMS — and prints off-chip coverage side by side.
 * Reproduces in miniature the Section 4.6 argument: delta correlation
 * works on well-ordered streams but collapses when independent
 * spatial regions interleave.
 *
 *   ./prefetcher_duel [workload ...]   (default: one per class)
 */

#include <cstdio>
#include <string>
#include <vector>

#include "prefetch/stride.hh"
#include "study/memstudy.hh"
#include "study/suite.hh"
#include "study/table.hh"

using namespace stems;
using namespace stems::study;

int
main(int argc, char **argv)
{
    std::vector<std::string> names;
    for (int i = 1; i < argc; ++i)
        names.push_back(argv[i]);
    if (names.empty())
        names = {"OLTP-DB2", "Qry1", "Apache", "sparse"};

    auto params = defaultParams(50000);
    TablePrinter table({"App", "Prefetcher", "OffChipCoverage",
                        "L1Coverage", "Overpred(L2)"});

    for (const auto &name : names) {
        if (!workloads::findWorkload(name)) {
            std::printf("unknown workload: %s\n", name.c_str());
            return 1;
        }
        const trace::Trace t =
            workloads::makeTrace(*workloads::findWorkload(name)->make(),
                                 params);

        SystemStudyConfig base;
        auto rb = runSystem(t, base);
        const double l2m = double(rb.l2ReadMisses) + 1e-9;
        const double l1m = double(rb.l1ReadMisses) + 1e-9;

        struct V
        {
            const char *label;
            PfKind pf;
            bool stride;
        };
        for (auto v : {V{"stride", PfKind::None, true},
                       V{"ghb-pc/dc", PfKind::Ghb, false},
                       V{"sms", PfKind::Sms, false}}) {
            SystemStudyConfig cfg;
            cfg.pf = v.pf;
            if (v.stride) {
                // bolt a stride prefetcher on via the generic
                // controller path used for custom algorithms
                mem::MemorySystem sys(cfg.sys);
                prefetch::PrefetchController pc(sys, [] {
                    return std::make_unique<prefetch::StridePrefetcher>(
                        prefetch::StrideConfig{});
                });
                SystemStudyResult r;
                for (const auto &a : t) {
                    auto out = sys.access(a);
                    if (!a.isWrite && out.l1PrefetchHit)
                        ++r.l1Covered;
                    if (!a.isWrite && out.l2PrefetchHit)
                        ++r.l2Covered;
                }
                uint64_t op = 0;
                for (uint32_t c = 0; c < sys.numCpus(); ++c)
                    op += sys.l2(c).stats().prefetchUnused;
                table.addRow({name, v.label,
                              TablePrinter::pct(r.l2Covered / l2m),
                              TablePrinter::pct(r.l1Covered / l1m),
                              TablePrinter::pct(op / l2m)});
                continue;
            }
            auto r = runSystem(t, cfg);
            table.addRow({name, v.label,
                          TablePrinter::pct(r.l2Covered / l2m),
                          TablePrinter::pct(r.l1Covered / l1m),
                          TablePrinter::pct(r.l2Overpred / l2m)});
        }
    }
    table.print();
    return 0;
}
