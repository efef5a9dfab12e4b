/**
 * @file
 * `stems_benchmark record`: the batch workloads' set-up. Records the
 * paper suite's spills into dir= through study::TraceCache — the same
 * generate-and-spill path `stems run trace-dir=DIR` takes on a miss,
 * so every later `stems run` on that directory replays instead of
 * generating. (`stems trace` writes a single merged section, which the
 * engine's per-CPU replay does not accept.)
 */

#include <atomic>
#include <iostream>
#include <mutex>
#include <stdexcept>
#include <thread>
#include <vector>

#include "common.hh"
#include "study/suite.hh"
#include "subcommands.hh"

namespace stems::bench {

int
cmdRecord(const driver::Options &o)
{
    const std::string dir = driver::optStr(o, "dir", "");
    if (dir.empty())
        throw std::invalid_argument("record needs dir=");
    const workloads::WorkloadParams p = paramsFrom(o);

    study::TraceCache cache;
    cache.setSpillDir(dir);
    const auto &suite = workloads::paperSuite();
    std::atomic<size_t> next{0};
    std::mutex errMu;
    std::string error;  //!< first failure, guarded by errMu
    std::vector<std::thread> pool;
    // the benchmark's 4-core budget, as threads=4 in the runs it sets up
    for (int t = 0; t < 4; ++t)
        pool.emplace_back([&] {
            try {
                for (size_t i; (i = next++) < suite.size();)
                    cache.viewSet(suite[i].name, p);
            } catch (const std::exception &e) {
                std::lock_guard<std::mutex> lock(errMu);
                if (error.empty())
                    error = e.what();
            }
        });
    for (auto &t : pool)
        t.join();
    if (!error.empty())
        throw std::runtime_error(error);
    std::cerr << "stems_benchmark: recorded " << suite.size()
              << " spills into " << dir << "\n";
    return 0;
}

} // namespace stems::bench
