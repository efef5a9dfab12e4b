/**
 * @file
 * Domain scenario 2: prefetcher bake-off. Runs one workload from each
 * class through the memory system under four registry prefetchers —
 * none, stride, GHB PC/DC, SMS — and prints off-chip coverage side by
 * side.
 * Reproduces in miniature the Section 4.6 argument: delta correlation
 * works on well-ordered streams but collapses when independent
 * spatial regions interleave.
 *
 *   ./prefetcher_duel [workload ...]   (default: one per class)
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "driver/registry.hh"
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
        const auto streams =
            workloads::findWorkload(name)->make()->generateStreams(params);
        const auto set = trace::StreamSet::borrowed(streams);
        const SystemStudyConfig cfg;
        auto run = [&](const char *engine) {
            std::unique_ptr<driver::PrefetcherDeployment> dep;
            return runSystem(set, cfg, params.seed,
                             driver::registryAttach(engine, dep));
        };

        auto rb = run("none");
        const double l2m = double(rb.l2ReadMisses) + 1e-9;
        const double l1m = double(rb.l1ReadMisses) + 1e-9;
        for (const char *engine : {"stride", "ghb", "sms"}) {
            auto r = run(engine);
            table.addRow({name, engine,
                          TablePrinter::pct(r.l2Covered / l2m),
                          TablePrinter::pct(r.l1Covered / l1m),
                          TablePrinter::pct(r.l2Overpred / l2m)});
        }
    }
    table.print();
    return 0;
}
