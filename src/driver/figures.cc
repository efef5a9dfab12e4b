#include "driver/figures.hh"

#include <algorithm>
#include <map>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "sim/timing.hh"
#include "study/stats.hh"
#include "study/table.hh"

namespace stems::driver {

namespace {

using study::TablePrinter;

/** @p tokens plus one SMS engine per label, with pf.LABEL.OPT=VALUE. */
std::vector<std::string>
smsBy(std::vector<std::string> tokens, const std::string &opt,
      const std::vector<std::pair<std::string, std::string>> &labels)
{
    std::string engines;
    for (const auto &[label, value] : labels) {
        engines += (engines.empty() ? "prefetchers=sms:" : ",sms:") + label;
        tokens.push_back("pf." + label + "." + opt + "=" + value);
    }
    tokens.push_back(engines);
    return tokens;
}

template <typename T>
void
addUnique(std::vector<T> &v, const T &x)
{
    if (std::find(v.begin(), v.end(), x) == v.end())
        v.push_back(x);
}

/**
 * Figure 4: per group, L1 and off-chip misses per kilo-instruction at
 * each block size, its false-sharing share and the oracle's one miss
 * per region generation, all over the 64 B cell's rate.
 */
void
renderBlockSize(const ExperimentSpec &spec, const RunFn &run,
                std::ostream &os)
{
    // (level, group, size) -> misses per kilo-instruction, summed over
    // the group's workloads in cell order
    std::map<std::tuple<int, std::string, uint32_t>, double> cache,
        falseShr, oracle;
    std::map<std::string, double> instr;  // per workload, 64 B cell
    std::vector<std::string> groups;
    std::vector<uint32_t> sizes;
    for (const auto &r : run(spec)) {
        const MetricSet &m = r.metrics;
        const std::string group = workloads::suiteClassName(
            workloads::findWorkload(r.cell.workload)->cls);
        const uint32_t size = r.cell.sys.l1.blockSize;
        addUnique(groups, group);
        addUnique(sizes, size);
        if (size == 64)
            instr[r.cell.workload] = double(m.instructions());
        if (!instr.count(r.cell.workload))
            throw std::invalid_argument("fig04 normalises to the 64 B "
                                        "cell: keep 64 first in sweep.block");
        const double in = instr.at(r.cell.workload);
        cache[{1, group, size}] += 1000.0 * m.l1ReadMisses() / in;
        cache[{2, group, size}] += 1000.0 * m.l2ReadMisses() / in;
        if (size != 64)  // coherence unit = block
            falseShr[{2, group, size}] += 1000.0 * m.falseSharing() / in;
        for (size_t s = 0; size == 64 && s < m.oracleL1Gens().size(); ++s) {
            const uint32_t region = spec.oracleRegionSizes[s];
            oracle[{1, group, region}] += 1000.0 * m.oracleL1Gens()[s] / in;
            oracle[{2, group, region}] += 1000.0 * m.oracleL2Gens()[s] / in;
        }
    }

    for (int level : {1, 2}) {
        TablePrinter table({"Group", "Size", "Cache",
                            level == 2 ? "FalseShr" : "-", "Oracle"});
        for (const auto &group : groups) {
            const double norm = cache[{level, group, 64}];
            for (uint32_t size : sizes) {
                auto ratio = [&](auto &series) {
                    return TablePrinter::fixed(
                        series[{level, group, size}] / norm, 3);
                };
                table.addRow(
                    {group,
                     size >= 1024 ? std::to_string(size / 1024) + "kB"
                                  : std::to_string(size) + "B",
                     ratio(cache),
                     level == 2 && size > 64 ? ratio(falseShr) : "-",
                     size == 64 ? "1.000" : ratio(oracle)});
            }
        }
        os << "\n-- L" << level << " --\n";
        table.print(os);
    }
}

/**
 * Figure 12: the engine's speedup over five paired seeds, with its
 * 95% confidence interval, after Table 1's system configuration.
 */
void
renderSpeedup(const ExperimentSpec &spec, const RunFn &run,
              std::ostream &os)
{
    sim::TimingConfig tc;
    os << "System (Table 1): " << tc.sys.ncpu << " nodes, "
       << tc.core.width << "-wide OoO, ROB " << tc.core.robEntries
       << ", SB " << tc.core.storeBuffer << ", MSHRs " << tc.core.mshrs
       << "\n  L1 " << tc.sys.l1.sizeBytes / 1024 << "kB/"
       << tc.sys.l1.assoc << "-way (lat " << tc.core.l1Latency
       << "), L2 " << tc.sys.l2.sizeBytes / (1024 * 1024) << "MB/"
       << tc.sys.l2.assoc << "-way (lat " << tc.core.l2Latency
       << "), mem " << tc.core.memLatency << "cy, 4x4 torus @"
       << tc.core.hopLatency << "cy/hop\n\n";

    // workload -> per-seed (base uIPC, engine uIPC)
    std::vector<std::string> apps;
    std::map<std::string, std::vector<std::pair<double, double>>> uipc;
    for (uint64_t seed = 1; seed <= 5; ++seed) {
        ExperimentSpec s = spec;
        s.params.seed = seed;
        if (!s.journalPath.empty())  // a journal holds one cell set
            s.journalPath += ".seed" + std::to_string(seed);
        for (const auto &r : run(s)) {
            addUnique(apps, r.cell.workload);
            uipc[r.cell.workload].emplace_back(r.metrics.baselineUipc(),
                                               r.metrics.uipc());
        }
    }

    TablePrinter table({"App", "Speedup", "95% CI", "base uIPC",
                        "SMS uIPC"});
    std::vector<double> all;
    for (const auto &app : apps) {
        const double n = double(uipc[app].size());
        std::vector<double> ratios;
        double base_ipc = 0, sms_ipc = 0;
        for (const auto &[base, sms] : uipc[app]) {
            ratios.push_back(sms / base);
            base_ipc += base / n;
            sms_ipc += sms / n;
        }
        all.push_back(study::mean(ratios));
        table.addRow({app, TablePrinter::fixed(all.back(), 3),
                      "+/- " + TablePrinter::fixed(study::ci95(ratios), 3),
                      TablePrinter::fixed(base_ipc, 2),
                      TablePrinter::fixed(sms_ipc, 2)});
    }
    table.print(os);
    os << "\nGeometric mean speedup: "
       << TablePrinter::fixed(study::geomean(all), 3)
       << "  (paper: 1.37; best 4.07 on sparse)";
}

/**
 * Figure 13: each cell's base and engine time breakdowns, both over
 * the base total, so the engine bar's total is its relative time.
 */
void
renderBreakdown(const ExperimentSpec &spec, const RunFn &run,
                std::ostream &os)
{
    TablePrinter table({"App", "Cfg", "UserBusy", "SysBusy", "OffChip",
                        "OnChip", "StoreBuf", "Other", "Total"});
    for (const auto &r : run(spec)) {
        const sim::TimeBreakdown &base = r.metrics.baselineTiming().breakdown;
        for (const auto *bd : {&base, &r.metrics.timing().breakdown}) {
            std::vector<std::string> row{r.cell.workload,
                bd == &base ? "base" : r.cell.engine.displayLabel()};
            for (double v : {bd->userBusy, bd->systemBusy, bd->offChipRead,
                             bd->onChipRead, bd->storeBuffer, bd->other,
                             bd->total()})
                row.push_back(TablePrinter::fixed(v / base.total(), 3));
            table.addRow(row);
        }
    }
    table.print(os);
}

std::vector<PivotColumn>
bars(const std::string &level)
{
    return {{"Coverage", "", level + "_coverage"},
            {"Uncovered", "", level + "_uncovered"},
            {"Overpred", "", level + "_overprediction_rate"}};
}

/** One column per key, headed by the key itself. */
std::vector<PivotColumn>
each(const std::string &metric, std::vector<std::string> keys,
     int digits = -1)
{
    std::vector<PivotColumn> out;
    for (const auto &key : keys)
        out.push_back({key, key, metric, digits});
    return out;
}

} // anonymous namespace

const std::vector<Figure> &
figures()
{
    using enum PivotDim;
    // unbounded PHT and AGT in shadow-L1 mode (Figures 6, 8 and 10)
    static const std::vector<std::string> kUnbounded = {
        "mode=l1", "workloads=paper", "opt.pht-entries=0",
        "opt.agt-filter=0", "opt.agt-accum=0"};
    static const std::vector<PivotColumn> kSpeedups =
        each("speedup", {"SMS", "GHB", "stride", "next-line"}, 3);
    static const std::vector<PivotColumn> kAgtSizes = [] {
        auto out =
            each("l1_coverage", {"8/16", "16/32", "32/64", "64/128", "inf"});
        out.push_back({"peak-accum@inf", "inf", "peak_accum_occupancy"});
        return out;
    }();
    static const std::vector<Figure> rows = {
        {.name = "fig04_blocksize",
         .title = "Figure 4: miss rate vs block/region size",
         .detail = "Normalized read misses per instruction (64 B baseline "
                   "= 1.0).\nOracle = one miss per spatial region "
                   "generation.",
         .tokens = {"workloads=paper", "prefetchers=none",
                    "sweep.block=64,128,512,2048,8192",
                    "oracle-regions=128,512,2048,8192"},
         .render = renderBlockSize,
         .expected = "Expected shape: oracle opportunity falls monotonically"
                     " with region\nsize while real large blocks inflate L1"
                     " misses (conflicts) and add\nfalse sharing at L2 "
                     "(26-42% of L2 misses at 8 kB in the paper).\n"},
        {.name = "fig05_density",
         .title = "Figure 5: memory access density (2 kB regions)",
         .detail = "Percent of misses per generation-density bucket.",
         .tokens = {"workloads=paper", "prefetchers=none", "density=2048"},
         .tables = {{.title = "-- L1 misses --", .rows = {{Workload, "App"}},
                     .columns = {{"", "", "l1_density"}}},
                    {.title = "-- L2 misses --", .rows = {{Workload, "App"}},
                     .columns = {{"", "", "l2_density"}}}},
         .expected = "Expected shape: commercial apps spread across buckets "
                     "(wide\nvariation); ocean/sparse concentrate in the "
                     "densest buckets;\nDSS scans are dense, OLTP B-tree "
                     "probes sparse.\n"},
        {.name = "fig06_indexing", .title = "Figure 6: index comparison",
         .detail = "L1 read misses; unbounded PHT; unbounded AGT training."
                   "\nCoverage / Uncovered / Overpredictions vs baseline "
                   "misses.",
         .tokens = smsBy(kUnbounded, "index",
                         {{"Addr", "addr"}, {"PC+addr", "pc+addr"},
                          {"PC", "pc"}, {"PC+off", "pc+off"}}),
         .tables = {{.groups = true,
                     .rows = {{Group, "Group"}, {Engine, "Index"}},
                     .columns = bars("l1")}},
         .expected = "Expected shape: PC+off >= Addr/PC+addr everywhere;\n"
                     "address-based indices collapse on DSS (visit-once "
                     "scans);\nPC alone trails PC+off (cannot distinguish "
                     "alignments).\n"},
        {.name = "fig07_pht_size",
         .title = "Figure 7: PHT storage sensitivity (PC+addr vs PC+off)",
         .detail = "L1 read-miss coverage; 16-way set-associative PHTs;\n"
                   "unbounded AGT training.",
         .tokens = smsBy({"mode=l1", "workloads=paper", "opt.pht-assoc=16",
                          "opt.agt-filter=0", "opt.agt-accum=0",
                          "sweep.index=pc+addr,pc+off"},
                         "pht-entries",
                         {{"256", "256"}, {"1024", "1024"}, {"4096", "4096"},
                          {"16384", "16384"}, {"infinite", "0"}}),
         .tables = {{.groups = true,
                     .rows = {{Group, "Group"}, {Engine, "PHT"}},
                     .by = Sweep,
                     .columns = {{"PC+addr", "pc+addr", "l1_coverage"},
                                 {"PC+off", "pc+off", "l1_coverage"}}}},
         .expected = "Expected shape: PC+off saturates by 16k entries;\n"
                     "PC+addr lags at bounded sizes (keys scale with data "
                     "set size).\n"},
        {.name = "fig08_training",
         .title = "Figure 8: training structures (DS / LS / AGT)",
         .detail = "L1 read misses vs a traditional-cache baseline;\n"
                   "unbounded PHT; PC+offset index; 2 kB regions.",
         .tokens = smsBy(kUnbounded, "trainer",
                         {{"DS", "ds"}, {"LS", "ls"}, {"AGT", "agt"}}),
         .tables = {{.groups = true,
                     .rows = {{Group, "Group"}, {Engine, "Trainer"}},
                     .columns = bars("l1")}},
         .expected = "Expected shape: AGT >= LS >> DS on commercial groups\n"
                     "(DS's sector conflicts inflate uncovered misses "
                     "beyond 100%).\n"},
        {.name = "fig09_pht_training",
         .title = "Figure 9: PHT storage sensitivity (LS vs AGT)",
         .detail = "L1 read-miss coverage; PC+offset index; 16-way PHTs.",
         .tokens = smsBy({"mode=l1", "workloads=paper", "opt.agt-filter=0",
                          "opt.agt-accum=0", "sweep.trainer=ls,agt"},
                         "pht-entries",
                         {{"256", "256"}, {"512", "512"}, {"1024", "1024"},
                          {"2048", "2048"}, {"4096", "4096"},
                          {"8192", "8192"}, {"16384", "16384"},
                          {"infinite", "0"}}),
         .tables = {{.groups = true,
                     .rows = {{Group, "Group"}, {Engine, "PHT"}},
                     .by = Sweep,
                     .columns = {{"LS", "ls", "l1_coverage"},
                                 {"AGT", "agt", "l1_coverage"}}}},
         .expected = "Expected shape: at small PHTs AGT leads LS; LS needs "
                     "~2x the\nentries to match AGT coverage (most "
                     "pronounced for OLTP).\n"},
        {.name = "fig10_region_size", .title = "Figure 10: spatial region size",
         .detail = "L1 read-miss coverage; PC+offset; AGT; unbounded PHT.",
         .tokens = smsBy(kUnbounded, "region",
                         {{"128B", "128"}, {"256B", "256"}, {"512B", "512"},
                          {"1024B", "1024"}, {"2048B", "2048"},
                          {"4096B", "4096"}, {"8192B", "8192"}}),
         .tables = {{.groups = true,
                     .rows = {{Engine, "Region"}},
                     .by = Group,
                     .columns = each("l1_coverage", {"OLTP", "DSS", "Web",
                                                     "Scientific"})}},
         .expected = "Expected shape: coverage climbs to ~2 kB and plateaus;"
                     "\nOLTP keeps gaining toward the 8 kB page (page-aligned"
                     " structures).\n"},
        {.name = "fig11_ghb_vs_sms",
         .title = "Figure 11: SMS (practical) vs GHB PC/DC",
         .detail = "Off-chip (L2) read misses: coverage / uncovered / "
                   "overpredictions\nvs the no-prefetch baseline.",
         .tokens = {"workloads=paper",
                    "prefetchers=ghb:GHB-256,ghb:GHB-16k,sms:SMS",
                    "pf.GHB-256.ghb-entries=256", "pf.GHB-256.it-entries=256",
                    "pf.GHB-16k.ghb-entries=16384",
                    "pf.GHB-16k.it-entries=1024"},
         .tables = {{.rows = {{Workload, "App"}, {Engine, "Prefetcher"}},
                     .columns = bars("l2"),
                     .summary = {.label = "Commercial-mean off-chip coverage",
                                 .columns = each("l2_coverage",
                                                 {"SMS", "GHB-16k"}),
                                 .commercial = true, .line = true}}},
         .expected = "(paper: SMS 55% avg / 78% best; GHB ~30% avg).\n"
                     "Expected shape: SMS >> GHB on OLTP/Web (interleaving "
                     "defeats\ndelta correlation); parity on DSS scans and "
                     "scientific kernels.\n"},
        {.name = "fig12_speedup",
         .title = "Figure 12: speedup with 95% confidence intervals",
         .detail = "Aggregate user-IPC ratio, SMS vs base; 5 seeds, paired.",
         .tokens = {"workloads=paper", "prefetchers=sms", "timing=only",
                    "refs=24000"},
         .render = renderSpeedup,
         .expected = "Expected shape: gains everywhere except Qry1 "
                     "(store-buffer bound);\nlargest on sparse; OLTP modest "
                     "despite coverage (dependent misses\nalready overlap "
                     "in the window).\n"},
        {.name = "fig12_all_engines",
         .title = "Figure 12 (all engines): speedup across the registry",
         .detail = "Aggregate user-IPC ratio vs no-prefetch baseline;\n"
                   "paper suite + extension workloads; every timing number\n"
                   "from the engine-agnostic attach pipeline.",
         .tokens = {"workloads=all", "timing=only", "refs=12000",
                    "prefetchers=sms:SMS,ghb:GHB,stride,next-line"},
         .tables = {{.rows = {{Workload, "App"}}, .by = Engine,
                     .columns = kSpeedups,
                     .summary = {.label = "geomean", .columns = kSpeedups,
                                 .geomean = true}}},
         .expected = "Expected shape: SMS leads on the commercial and sparse"
                     " workloads\n(irregular but code-correlated footprints);"
                     " stride/next-line only\nhelp dense sequential kernels;"
                     " GHB sits between.\n"},
        {.name = "fig13_breakdown",
         .title = "Figure 13: time breakdown (base vs SMS)",
         .detail = "Per-unit-of-work time; base bar totals 1.0.",
         .tokens = {"workloads=paper", "prefetchers=sms:SMS", "timing=only",
                    "refs=24000"},
         .render = renderBreakdown,
         .expected = "Expected shape: SMS shrinks the off-chip read "
                     "component; busy\ncomponents are unchanged per unit "
                     "work; Qry1 stays store-buffer\nbound; total(SMS) < "
                     "total(base) except Qry1.\n"},
        {.name = "tab_agt_size",
         .title = "Section 4.5: Active Generation Table sizing",
         .detail = "Per-application L1 coverage across AGT capacities;\n"
                   "16k x 16-way PHT; PC+offset; 2 kB regions.",
         .tokens = {"mode=l1", "workloads=paper",
                    "prefetchers=sms:8/16,sms:16/32,sms:32/64,sms:64/128,"
                    "sms:inf",
                    "pf.8/16.agt-filter=8", "pf.8/16.agt-accum=16",
                    "pf.16/32.agt-filter=16", "pf.16/32.agt-accum=32",
                    "pf.32/64.agt-filter=32", "pf.32/64.agt-accum=64",
                    "pf.64/128.agt-filter=64", "pf.64/128.agt-accum=128",
                    "pf.inf.agt-filter=0", "pf.inf.agt-accum=0"},
         .tables = {{.rows = {{Workload, "App"}}, .by = Engine,
                     .columns = kAgtSizes}},
         .expected = "Expected: 32/64 within a point of infinite for every "
                     "app;\nOLTP places the largest accumulation demand.\n"},
        {.name = "abl_sms_params",
         .title = "Ablation: SMS parameter choices",
         .detail = "L1 coverage / overpredictions vs the practical config\n"
                   "(16k x 16-way PHT, Replace updates, 32/64 AGT, 16 PRs).",
         .tokens = {"mode=l1", "workloads=paper",
                    "prefetchers=sms:practical,sms:pht-union,sms:1-pred-reg,"
                    "sms:4-pred-regs,sms:no-filter",
                    "pf.pht-union.pht-update=union",
                    "pf.1-pred-reg.pred-regs=1", "pf.4-pred-regs.pred-regs=4",
                    // no filter: trigger-only generations waste accum
                    // entries (filter capacity folded into accum)
                    "pf.no-filter.agt-filter=1", "pf.no-filter.agt-accum=96"},
         .tables = {{.groups = true,
                     .rows = {{Group, "Group"}, {Engine, "Variant"}},
                     .columns = {{"Coverage", "", "l1_coverage"},
                                 {"Overpred", "", "l1_overprediction_rate"}}}},
         .expected = "Reading: Union raises coverage on stable dense patterns"
                     " but\ninflates overpredictions on divergent ones; few "
                     "prediction\nregisters drop concurrent region streams; "
                     "removing the filter\nlets trigger-only generations "
                     "crowd out real patterns.\n"},
    };
    return rows;
}

const Figure &
findFigure(const std::string &name)
{
    std::string known;
    for (const auto &f : figures()) {
        if (f.name == name)
            return f;
        known += (known.empty() ? "" : ", ") + f.name;
    }
    throw std::invalid_argument("unknown figure \"" + name +
                                "\" (known: " + known + ")");
}

ExperimentSpec
figureSpec(const Figure &f, const std::vector<std::string> &args)
{
    std::vector<std::string> tokens = f.tokens;
    tokens.insert(tokens.end(), args.begin(), args.end());
    return parseSpec(tokens);
}

std::string
renderFigure(const Figure &f, const ExperimentSpec &spec, const RunFn &run)
{
    const RunFn checked = [&run](const ExperimentSpec &s) {
        auto results = run(s);
        for (const auto &r : results)
            if (!r.error.empty())
                throw std::runtime_error(r.cell.workload + " / " +
                                         r.cell.engine.displayLabel() +
                                         " failed: " + r.error);
        return results;
    };
    std::ostringstream os;
    os << "\n=== " << f.title << " ===\n" << f.detail << "\n\n";
    if (f.render)
        f.render(spec, checked, os);
    else
        for (const auto results = checked(spec); const auto &t : f.tables)
            os << toPivot(t, results);
    os << "\n" << f.expected;
    return os.str();
}

} // namespace stems::driver
