/**
 * @file
 * `stems_benchmark load`: two closed-loop clients against a running
 * `stems serve` daemon (the benchmark's connection budget). Each
 * client resubmits the spec in spec= through serve::submitToServer,
 * waits for its report, then sends it again, until seconds= have
 * passed — or, with count=, until that many requests were sent. Every
 * report must be byte-identical to the cold report in expect=; a
 * request that errors, is refused or differs counts as failed.
 *
 * Output: {"phase_ns": N, "requests": [[latency_ns, ok], ...]} in
 * completion order.
 */

#include <atomic>
#include <iostream>
#include <mutex>
#include <sstream>
#include <thread>
#include <vector>

#include "common.hh"
#include "serve/client.hh"
#include "subcommands.hh"

namespace stems::bench {

namespace {

constexpr uint32_t kClients = 2;

struct Completed
{
    int64_t latencyNs = 0;
    bool ok = false;
};

} // anonymous namespace

int
cmdLoad(const driver::Options &o)
{
    const std::string server = driver::optStr(o, "server", "");
    if (server.empty())
        throw std::invalid_argument("load needs server=");
    const auto tokens = readSpec(driver::optStr(o, "spec", ""));
    const std::string expected = readFile(driver::optStr(o, "expect", ""));
    const double seconds = driver::optDouble(o, "seconds", 10);
    // count= sends exactly that many requests instead (0 = timed)
    const uint64_t count = driver::optU64(o, "count", 0);

    using Status = serve::ExperimentService::Outcome::Status;
    std::atomic<uint64_t> next{0};
    std::mutex mu;  // guards done
    std::vector<Completed> done;

    const int64_t start = nowNs();
    const int64_t deadline =
        start + static_cast<int64_t>(seconds * 1e9);
    std::vector<std::thread> pool;
    for (uint32_t c = 0; c < kClients; ++c)
        pool.emplace_back([&] {
            while (count || nowNs() < deadline) {
                const uint64_t i = next++;
                if (count && i >= count)
                    break;
                Completed r;
                const int64_t t0 = nowNs();
                try {
                    const auto out = serve::submitToServer(server, tokens);
                    r.ok = out.status == Status::Done && out.failed == 0 &&
                           out.json == expected;
                    if (!r.ok)
                        std::cerr << "stems_benchmark: request " << i
                                  << " failed or differs from the cold "
                                     "report\n";
                } catch (const std::exception &e) {
                    std::cerr << "stems_benchmark: request " << i << ": "
                              << e.what() << "\n";
                }
                r.latencyNs = nowNs() - t0;
                std::lock_guard<std::mutex> lock(mu);
                done.push_back(r);
            }
        });
    for (auto &t : pool)
        t.join();
    const int64_t phase = nowNs() - start;

    std::ostringstream list;
    list << "[";
    for (size_t i = 0; i < done.size(); ++i)
        list << (i ? "," : "") << "[" << done[i].latencyNs << ","
             << (done[i].ok ? 1 : 0) << "]";
    list << "]";
    Fields out;
    out.add("phase_ns", static_cast<uint64_t>(phase));
    out.addRaw("requests", list.str());
    std::cout << out.json() << "\n";
    return 0;
}

} // namespace stems::bench
