/**
 * @file
 * Offline run analysis: `stems analyze` reads the Chrome-trace
 * (--trace-out) and telemetry (--telemetry-out) artifacts a run left
 * behind and answers the questions the live progress stream cannot —
 * where the wall time went (per-phase breakdown), which chain of
 * spans bounded it (critical path), how effective the memo layers
 * were (hit rates), and which workers or cells dragged the tail
 * (utilization timeline, straggler attribution).
 *
 * The analyzer is a pure function over the artifact text so tests can
 * drive it on committed fixtures; the CLI wrapper only does file IO
 * and key=value parsing.
 */

#ifndef STEMS_DRIVER_ANALYZE_HH
#define STEMS_DRIVER_ANALYZE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/options.hh"

namespace stems::driver {

/** Knobs for analyzeRun(); defaults fit a terminal. */
struct AnalyzeOptions
{
    std::string format = "table";   //!< "table" or "json"
    uint32_t timelineBuckets = 24;  //!< utilization slices per worker
    size_t criticalPathCap = 32;    //!< max spans on the reported path
    uint64_t stragglerTop = 8;      //!< slowest cells listed
};

/**
 * Analyze one run from its artifact text. @p traceText is the
 * Chrome-trace JSON written by --trace-out ("" = absent) and
 * @p telemetryText the --telemetry-out JSON ("" = absent); sections
 * whose input is missing are skipped. Throws std::invalid_argument on
 * malformed input or when both inputs are empty.
 */
std::string analyzeRun(const std::string &traceText,
                       const std::string &telemetryText,
                       const AnalyzeOptions &opts = {});

/** `stems analyze` arguments: the two artifact paths and the knobs. */
struct AnalyzeArgs
{
    std::string tracePath;      //!< --trace-out artifact ("" = none)
    std::string telemetryPath;  //!< --telemetry-out artifact ("" = none)
    AnalyzeOptions opts;
};

/** The `stems analyze` key table, bound to @p a. */
KeyTable analyzeKeys(AnalyzeArgs &a);

/** CLI entry: stems analyze trace=F telemetry=F format=table|json. */
int cmdAnalyze(const std::vector<std::string> &args);

} // namespace stems::driver

#endif // STEMS_DRIVER_ANALYZE_HH
