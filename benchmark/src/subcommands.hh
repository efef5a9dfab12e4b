/**
 * @file
 * The stems_benchmark subcommands (see main.cc for usage). Each takes
 * its key=value arguments and returns a process exit code; results go
 * to stdout as one JSON object on the last line.
 */

#ifndef STEMS_BENCHMARK_SUBCOMMANDS_HH
#define STEMS_BENCHMARK_SUBCOMMANDS_HH

#include "driver/options.hh"

namespace stems::bench {

int cmdRecord(const driver::Options &o);
int cmdLoad(const driver::Options &o);
int cmdLayers(const driver::Options &o);

} // namespace stems::bench

#endif // STEMS_BENCHMARK_SUBCOMMANDS_HH
