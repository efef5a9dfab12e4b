/**
 * @file
 * Experiment-service tests: the versioned hello handshake (round
 * trip, protocol mismatch, oversized and corrupt frames), the
 * ExperimentService producing reports byte-identical to the
 * in-process runner (cold, warm-cache and concurrent submissions),
 * admission-queue overflow rejection, daemon SIGKILL + warm-restart
 * through the per-request journal, the socket dispatch transport
 * (machine list + spawn template, fault recovery), and the analyze
 * "serve" section.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <csignal>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <sys/socket.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "dispatch/coordinator.hh"
#include "dispatch/journal.hh"
#include "dispatch/wire.hh"
#include "driver/analyze.hh"
#include "driver/report.hh"
#include "driver/runner.hh"
#include "driver/spec.hh"
#include "obs/counters.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/service.hh"
#include "serve/socket.hh"

using namespace stems;
using namespace stems::driver;
using namespace stems::serve;

namespace fs = std::filesystem;

namespace {

/** The stems CLI sits next to this test binary in the build tree. */
std::string
stemsBinary()
{
    return (fs::path(dispatch::selfExePath()).parent_path() / "stems")
        .string();
}

std::string
tempPath(const char *tag)
{
    return (fs::temp_directory_path() /
            (std::string("stems_serve_") + tag + "_" +
             std::to_string(::getpid())))
        .string();
}

/** A small deterministic cell set (2 workloads x 1 prefetcher). */
std::vector<std::string>
smallTokens()
{
    return {"workloads=sparse,graph", "prefetchers=sms", "ncpu=4",
            "refs=4000", "seed=11", "wall=0"};
}

std::string
inProcessJson(const ExperimentSpec &spec)
{
    Runner runner(spec);
    return toJson(spec, runner.run());
}

/** Scoped environment variable for the worker fault hooks. */
class ScopedEnv
{
  public:
    ScopedEnv(const char *name, const std::string &value) : name(name)
    {
        ::setenv(name, value.c_str(), 1);
    }
    ~ScopedEnv() { ::unsetenv(name); }

  private:
    const char *name;
};

uint64_t
counterValue(const std::vector<std::pair<std::string, uint64_t>> &snap,
             const std::string &name)
{
    for (const auto &[k, v] : snap)
        if (k == name)
            return v;
    ADD_FAILURE() << "no counter named " << name;
    return 0;
}

/** Raw write of pre-framed bytes (adversarial hello tests). */
void
writeRaw(int fd, const std::string &bytes)
{
    size_t off = 0;
    while (off < bytes.size()) {
        const ssize_t n =
            ::write(fd, bytes.data() + off, bytes.size() - off);
        ASSERT_GT(n, 0);
        off += static_cast<size_t>(n);
    }
}

std::string
frameBytes(const std::string &payload)
{
    return std::to_string(payload.size()) + "\n" + payload + "\n";
}

} // anonymous namespace

// ---------------------------------------------------------------------
// hello handshake hardening
// ---------------------------------------------------------------------

TEST(ServeWire, HelloRoundTripsOverSocketPair)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_TRUE(sendFrame(sv[0], encodeHello("client")));

    dispatch::FrameDecoder decoder;
    Hello hello;
    std::string err;
    EXPECT_TRUE(readHello(sv[1], decoder, "client", hello, err))
        << err;
    EXPECT_EQ(hello.protocol, dispatch::kProtocolVersion);
    EXPECT_EQ(hello.role, "client");
    EXPECT_EQ(hello.pid, ::getpid());
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(ServeWire, RejectsProtocolMismatch)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    writeRaw(sv[0], frameBytes(
        R"({"type":"hello","protocol":1,"role":"client","pid":7})"));

    dispatch::FrameDecoder decoder;
    Hello hello;
    std::string err;
    EXPECT_FALSE(readHello(sv[1], decoder, "client", hello, err));
    EXPECT_NE(err.find("protocol mismatch"), std::string::npos)
        << err;
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(ServeWire, RejectsUnexpectedRole)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_TRUE(sendFrame(sv[0], encodeHello("worker")));

    dispatch::FrameDecoder decoder;
    Hello hello;
    std::string err;
    EXPECT_FALSE(readHello(sv[1], decoder, "client", hello, err));
    EXPECT_NE(err.find("role"), std::string::npos) << err;
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(ServeWire, RejectsOversizedHelloWithoutBuffering)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    // a hostile length prefix announcing a frame far beyond the cap;
    // the acceptor must bail once kHelloMaxBytes have been fed, not
    // buffer the whole advertised length
    const std::string huge(4 * kHelloMaxBytes, 'x');
    writeRaw(sv[0], frameBytes(huge));

    dispatch::FrameDecoder decoder;
    Hello hello;
    std::string err;
    EXPECT_FALSE(readHello(sv[1], decoder, "client", hello, err));
    EXPECT_NE(err.find("exceeds"), std::string::npos) << err;
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(ServeWire, RejectsCorruptLengthPrefix)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    writeRaw(sv[0], "not-a-length\n{}\n");

    dispatch::FrameDecoder decoder;
    Hello hello;
    std::string err;
    EXPECT_FALSE(readHello(sv[1], decoder, "client", hello, err));
    EXPECT_NE(err.find("corrupt"), std::string::npos) << err;
    ::close(sv[0]);
    ::close(sv[1]);
}

TEST(ServeWire, RejectsNonHelloFirstFrame)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_TRUE(sendFrame(sv[0], R"({"type":"submit","tokens":[]})"));

    dispatch::FrameDecoder decoder;
    Hello hello;
    std::string err;
    EXPECT_FALSE(readHello(sv[1], decoder, "client", hello, err));
    EXPECT_NE(err.find("expected hello"), std::string::npos) << err;
    ::close(sv[0]);
    ::close(sv[1]);
}

// ---------------------------------------------------------------------
// the experiment service
// ---------------------------------------------------------------------

TEST(ServeService, ColdAndWarmSubmitsMatchRunByteIdentically)
{
    const std::string expected =
        inProcessJson(parseSpec(smallTokens()));

    obs::Counters::get().reset();
    ExperimentService::Config cfg;
    cfg.fleet = 2;
    ExperimentService svc(cfg);

    const auto cold = svc.submit(smallTokens());
    ASSERT_EQ(cold.status, ExperimentService::Outcome::Status::Done);
    EXPECT_EQ(cold.json, expected);
    EXPECT_EQ(cold.failed, 0u);
    EXPECT_EQ(counterValue(obs::snapshotCounters(),
                           "serve_cache_warm_hits"),
              0u);

    // second submission of the same spec finds every trace prepared
    const auto warm = svc.submit(smallTokens());
    ASSERT_EQ(warm.status, ExperimentService::Outcome::Status::Done);
    EXPECT_EQ(warm.json, expected);
    EXPECT_GT(counterValue(obs::snapshotCounters(),
                           "serve_cache_warm_hits"),
              0u);
    EXPECT_EQ(counterValue(obs::snapshotCounters(),
                           "serve_requests_admitted"),
              2u);
    obs::Counters::get().reset();
}

TEST(ServeService, RejectsWhenAdmissionQueueFull)
{
    ExperimentService::Config cfg;
    cfg.fleet = 1;
    cfg.maxActive = 1;
    cfg.maxQueued = 0;
    ExperimentService svc(cfg);

    // occupy the only active slot with a long request
    std::vector<std::string> slow = {
        "workloads=paper", "prefetchers=sms:SMS", "ncpu=4",
        "refs=8000", "seed=3", "wall=0"};
    std::thread occupant([&] {
        const auto out = svc.submit(slow);
        EXPECT_EQ(out.status,
                  ExperimentService::Outcome::Status::Done);
    });
    while (svc.activeRequests() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));

    const auto out = svc.submit(smallTokens());
    EXPECT_EQ(out.status,
              ExperimentService::Outcome::Status::Rejected);
    EXPECT_NE(out.reason.find("admission queue full"),
              std::string::npos)
        << out.reason;
    occupant.join();
}

TEST(ServeService, RejectsUnparsableSpec)
{
    ExperimentService::Config cfg;
    cfg.fleet = 1;
    ExperimentService svc(cfg);
    const auto out = svc.submit({"no-such-key=1"});
    EXPECT_EQ(out.status, ExperimentService::Outcome::Status::Error);
    EXPECT_FALSE(out.reason.empty());
}

// ---------------------------------------------------------------------
// daemon + client over the socket
// ---------------------------------------------------------------------

TEST(ServeDaemon, TwoConcurrentClientsGetByteIdenticalReports)
{
    const std::vector<std::string> tokensA = smallTokens();
    std::vector<std::string> tokensB = {
        "workloads=sparse,graph", "prefetchers=none", "ncpu=4",
        "refs=3000", "seed=29", "wall=0"};
    const std::string expectedA = inProcessJson(parseSpec(tokensA));
    const std::string expectedB = inProcessJson(parseSpec(tokensB));

    const std::string listen = "unix:" + tempPath("daemon.sock");
    Daemon::Config cfg;
    cfg.listen = listen;
    cfg.quiet = true;
    cfg.service.fleet = 4;
    Daemon daemon(cfg);

    ExperimentService::Outcome outA, outB;
    std::thread a([&] { outA = submitToServer(listen, tokensA); });
    std::thread b([&] { outB = submitToServer(listen, tokensB); });
    a.join();
    b.join();

    ASSERT_EQ(outA.status, ExperimentService::Outcome::Status::Done);
    ASSERT_EQ(outB.status, ExperimentService::Outcome::Status::Done);
    EXPECT_EQ(outA.json, expectedA);
    EXPECT_EQ(outB.json, expectedB);
    daemon.stop();
}

TEST(ServeDaemon, RejectsMismatchedClientProtocol)
{
    const std::string listen = "unix:" + tempPath("mismatch.sock");
    Daemon::Config cfg;
    cfg.listen = listen;
    cfg.quiet = true;
    cfg.service.fleet = 1;
    Daemon daemon(cfg);

    const int fd = connectTo(listen);
    ASSERT_GE(fd, 0);
    writeRaw(fd, frameBytes(
        R"({"type":"hello","protocol":999,"role":"client","pid":1})"));
    dispatch::FrameDecoder decoder;
    std::string payload;
    ASSERT_TRUE(recvFrame(fd, decoder, payload));
    const dispatch::JsonValue msg = dispatch::parseJson(payload);
    EXPECT_EQ(dispatch::messageType(msg), "error");
    EXPECT_NE(msg.at("message").asString().find("protocol mismatch"),
              std::string::npos);
    ::close(fd);
    daemon.stop();
}

namespace {

pid_t
spawnDaemonCli(const std::string &listen,
               const std::string &journalDir)
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        const std::string bin = stemsBinary();
        const std::string listenKey = "listen=" + listen;
        const std::string journalKey = "journal-dir=" + journalDir;
        ::execl(bin.c_str(), bin.c_str(), "serve", listenKey.c_str(),
                "fleet=1", journalKey.c_str(), "quiet=1",
                static_cast<char *>(nullptr));
        ::_exit(127);
    }
    return pid;
}

/** Completed frames (header + results) in the journal dir's file. */
size_t
journalFrameCount(const std::string &dir)
{
    for (const auto &entry : fs::directory_iterator(dir)) {
        if (entry.path().extension() != ".journal")
            continue;
        std::ifstream in(entry.path(), std::ios::binary);
        std::string buf((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
        size_t frames = 0, off = 0;
        while (off < buf.size()) {
            const size_t nl = buf.find('\n', off);
            if (nl == std::string::npos)
                break;
            size_t len = 0;
            try {
                len = std::stoul(buf.substr(off, nl - off));
            } catch (const std::exception &) {
                break;
            }
            if (buf.size() < nl + 1 + len + 1)
                break;
            ++frames;
            off = nl + 1 + len + 1;
        }
        return frames;
    }
    return 0;
}

} // anonymous namespace

TEST(ServeDaemon, WarmRestartsAfterSigkillWithoutLosingCells)
{
    const std::vector<std::string> tokens = {
        "workloads=paper", "prefetchers=sms:SMS", "ncpu=4",
        "refs=6000", "seed=3", "wall=0"};
    const std::string expected = inProcessJson(parseSpec(tokens));

    const std::string listen = "unix:" + tempPath("restart.sock");
    const std::string journalDir = tempPath("restart_journals");
    fs::remove_all(journalDir);
    fs::create_directories(journalDir);

    // first daemon: submit in a background thread, wait until at
    // least one completed cell hit the journal, then SIGKILL it
    const pid_t first = spawnDaemonCli(listen, journalDir);
    ASSERT_GT(first, 0);
    std::thread doomed([&] {
        try {
            (void)submitToServer(listen, tokens, 20000);
        } catch (const std::exception &) {
            // expected: the daemon dies mid-request
        }
    });
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(60);
    while (journalFrameCount(journalDir) < 2 &&
           std::chrono::steady_clock::now() < deadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_GE(journalFrameCount(journalDir), 2u)
        << "no cell result reached the journal";
    ::kill(first, SIGKILL);
    ::waitpid(first, nullptr, 0);
    doomed.join();

    // second daemon, same journal dir: the resubmitted spec must
    // splice the survivors and still produce identical bytes
    const pid_t second = spawnDaemonCli(listen, journalDir);
    ASSERT_GT(second, 0);
    const auto out = submitToServer(listen, tokens, 20000);
    ASSERT_EQ(out.status, ExperimentService::Outcome::Status::Done);
    EXPECT_EQ(out.json, expected);
    EXPECT_GT(out.replayed, 0u) << "warm restart replayed nothing";

    ::kill(second, SIGTERM);
    ::waitpid(second, nullptr, 0);
    fs::remove_all(journalDir);
}

// ---------------------------------------------------------------------
// socket dispatch transport
// ---------------------------------------------------------------------

namespace {

ExperimentSpec
socketDispatchSpec(const char *tag, std::vector<std::string> tokens)
{
    ExperimentSpec spec = parseSpec(std::move(tokens));
    spec.dispatchWorkers =
        "unix:" + tempPath(tag) + "_w1.sock,unix:" + tempPath(tag) +
        "_w2.sock";
    spec.dispatchSpawnCmd =
        "exec " + stemsBinary() + " worker --listen={addr} --once";
    return spec;
}

} // anonymous namespace

TEST(ServeTransport, SocketDispatchMatchesInProcess)
{
    const std::string expected =
        inProcessJson(parseSpec(smallTokens()));
    ExperimentSpec spec = socketDispatchSpec("sock", smallTokens());
    const std::string dispatched =
        toJson(spec, dispatch::runSpec(spec));
    EXPECT_EQ(expected, dispatched);
    EXPECT_EQ(dispatched.find("\"error\""), std::string::npos);
}

TEST(ServeTransport, SocketDispatchSurvivesSeededWorkerCrash)
{
    // 4 cells on 2 workers: the cell-0 crash leaves more pending
    // work than the surviving worker can absorb, forcing a respawn
    // through the spawn-cmd template
    const std::vector<std::string> tokens = {
        "workloads=sparse,graph", "prefetchers=sms,none", "ncpu=4",
        "refs=3000", "seed=17", "wall=0"};
    const std::string expected = inProcessJson(parseSpec(tokens));

    obs::Counters::get().reset();
    ScopedEnv plan("STEMS_FAULTS", "crash=cell:0");
    ExperimentSpec spec = socketDispatchSpec("fault", tokens);
    const std::string dispatched =
        toJson(spec, dispatch::runSpec(spec));
    EXPECT_EQ(expected, dispatched);
    EXPECT_GE(counterValue(obs::snapshotCounters(),
                           "worker_respawns"),
              1u);
    obs::Counters::get().reset();
}

TEST(ServeTransport, SpawnCmdRequiresWorkerEndpoints)
{
    EXPECT_THROW(parseSpec({"workloads=sparse", "prefetchers=sms",
                            "spawn-cmd=echo {addr}"}),
                 std::invalid_argument);
}

// ---------------------------------------------------------------------
// stems analyze: the serve section
// ---------------------------------------------------------------------

namespace {

const char *kServeTrace = R"({"displayTimeUnit":"ms","traceEvents":[
{"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"serve-0"}},
{"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"serve-1"}},
{"name":"trace","ph":"X","ts":0,"dur":500,"pid":1,"tid":1,"args":{}},
{"name":"baseline","ph":"X","ts":500,"dur":200,"pid":1,"tid":1,"args":{}},
{"name":"baseline_pass","ph":"X","ts":500,"dur":100,"pid":1,"tid":1,"args":{}},
{"name":"serve_cell","ph":"X","ts":700,"dur":4000,"pid":1,"tid":1,"args":{"request":"1","cell":"0","workload":"sparse","engine":"sms"}},
{"name":"serve_cell","ph":"X","ts":4700,"dur":3000,"pid":1,"tid":1,"args":{"request":"1","cell":"1","workload":"graph","engine":"sms"}},
{"name":"steal","ph":"X","ts":5000,"dur":2000,"pid":1,"tid":2,"args":{"request":"1","cell":"1","workload":"graph","engine":"sms"}},
{"name":"serve_request","ph":"X","ts":0,"dur":8000,"pid":1,"tid":9,"args":{"request":"1","queue_ms":"2.500000","cells":"2","stolen":"1","replayed":"0"}}
]})";

} // anonymous namespace

TEST(ServeAnalyze, JsonSchemaTwoCarriesServeSection)
{
    AnalyzeOptions opts;
    opts.format = "json";
    const std::string out = analyzeRun(kServeTrace, "", opts);
    const dispatch::JsonValue doc = dispatch::parseJson(out);
    const dispatch::JsonValue &a = doc.at("analyze");
    EXPECT_EQ(a.at("schema").asU64(), 2u);

    const dispatch::JsonValue &requests = a.at("serve");
    ASSERT_EQ(requests.items.size(), 1u);
    const dispatch::JsonValue &r = requests.items[0];
    EXPECT_EQ(r.at("request").asU64(), 1u);
    EXPECT_DOUBLE_EQ(r.at("queue_ms").asDouble(), 2.5);
    EXPECT_DOUBLE_EQ(r.at("wall_ms").asDouble(), 8.0);
    // exec attribution sums serve_cell AND steal spans per request
    EXPECT_DOUBLE_EQ(r.at("exec_ms").asDouble(), 9.0);
    EXPECT_EQ(r.at("cells").asU64(), 2u);
    EXPECT_EQ(r.at("stolen").asU64(), 1u);
    EXPECT_EQ(r.at("replayed").asU64(), 0u);

    // fleet threads become utilization lanes in a serve trace
    EXPECT_EQ(a.at("timeline").at("lanes").items.size(), 2u);
}

TEST(ServeAnalyze, TableFormatShowsQueueWaitAttribution)
{
    AnalyzeOptions opts;
    const std::string out = analyzeRun(kServeTrace, "", opts);
    EXPECT_NE(out.find("serve requests"), std::string::npos);
    EXPECT_NE(out.find("Queue ms"), std::string::npos);
}

TEST(ServeAnalyze, NonServeTraceOmitsServeSection)
{
    AnalyzeOptions opts;
    opts.format = "json";
    const char *plain = R"({"displayTimeUnit":"ms","traceEvents":[
{"name":"cell","ph":"X","ts":0,"dur":1000,"pid":1,"tid":1,"args":{}}
]})";
    const std::string out = analyzeRun(plain, "", opts);
    const dispatch::JsonValue doc = dispatch::parseJson(out);
    EXPECT_EQ(doc.at("analyze").find("serve"), nullptr);
}
