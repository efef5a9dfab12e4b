/**
 * @file
 * Helpers shared by the stems_benchmark subcommands: argument parsing,
 * the spec-file format, and a flat JSON result object that keeps
 * every digit of a measurement (the library's JsonWriter rounds
 * doubles to six significant digits, which suits reports, not timings).
 */

#ifndef STEMS_BENCHMARK_COMMON_HH
#define STEMS_BENCHMARK_COMMON_HH

#include <cstdint>
#include <string>
#include <vector>

#include "driver/options.hh"
#include "workloads/workload.hh"

namespace stems::bench {

/** key=value arguments of one subcommand; throws on a bare word. */
driver::Options parseArgs(const std::vector<std::string> &args);

/** ncpu= refs= seed= of @p o (paper-suite generation parameters). */
workloads::WorkloadParams paramsFrom(const driver::Options &o);

/**
 * A spec file: the key=value tokens of one spec, separated by
 * whitespace, as `stems run` / `stems submit` take them. Throws when
 * unreadable or empty.
 */
std::vector<std::string> readSpec(const std::string &path);

/** The bytes of @p path; throws when unreadable. */
std::string readFile(const std::string &path);

/** Lower median / nearest-rank percentile of @p v (0 when empty). */
double percentile(std::vector<double> v, double q);

/** Insertion-ordered JSON object with full-precision numbers. */
class Fields
{
  public:
    void add(const std::string &key, double v);
    void add(const std::string &key, uint64_t v);
    /** @p json must already be valid JSON text (array, object...). */
    void addRaw(const std::string &key, const std::string &json);

    std::string json() const;

  private:
    std::vector<std::pair<std::string, std::string>> members;
};

/** CLOCK_MONOTONIC now, in ns. */
int64_t nowNs();

/** Write @p text to @p path; throws on failure. */
void writeFile(const std::string &path, const std::string &text);

} // namespace stems::bench

#endif // STEMS_BENCHMARK_COMMON_HH
