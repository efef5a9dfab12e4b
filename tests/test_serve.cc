/**
 * @file
 * Experiment-service tests: the versioned hello handshake (round
 * trip, protocol mismatch, oversized and corrupt frames), the literal
 * frame bytes of every wire message type, the
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
#include "driver/scheduler.hh"
#include "driver/spec.hh"
#include "fault/fault.hh"
#include "obs/counters.hh"
#include "serve/client.hh"
#include "serve/daemon.hh"
#include "serve/service.hh"
#include "serve/socket.hh"

using namespace stems;
using namespace stems::dispatch;
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
    return toJson(spec, dispatch::runSpec(spec));
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

} // anonymous namespace

// ---------------------------------------------------------------------
// hello handshake hardening
// ---------------------------------------------------------------------

TEST(ServeWire, HelloRoundTripsOverSocketPair)
{
    int sv[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv), 0);
    ASSERT_TRUE(writeFrame(sv[0], encodeHello("client")));

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
    ASSERT_TRUE(writeFrame(
        sv[0], R"({"type":"hello","protocol":1,"role":"client","pid":7})"));

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
    ASSERT_TRUE(writeFrame(sv[0], encodeHello("worker")));

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
    ASSERT_TRUE(writeFrame(sv[0], huge));

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
    ASSERT_TRUE(writeAll(sv[0], "not-a-length\n{}\n", Tally::None));

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
    ASSERT_TRUE(writeFrame(sv[0], R"({"type":"submit","tokens":[]})"));

    dispatch::FrameDecoder decoder;
    Hello hello;
    std::string err;
    EXPECT_FALSE(readHello(sv[1], decoder, "client", hello, err));
    EXPECT_NE(err.find("expected hello"), std::string::npos) << err;
    ::close(sv[0]);
    ::close(sv[1]);
}

// ---------------------------------------------------------------------
// pinned frame bytes: every message type, byte for byte
// ---------------------------------------------------------------------

namespace {

// every message type's frame, byte for byte: a changed byte breaks
// existing journals and peers built from another commit
const char *const kPinnedInit =
    "81\n"
    R"({"type":"init","protocol":8,"trace_dir":"/spill","trace":true,)"
    R"("heartbeat_ms":200})" "\n";
const char *const kPinnedReady =
    "27\n"
    R"({"type":"ready","pid":4242})" "\n";
const char *const kPinnedCell =
    "319\n"
    R"({"type":"cell","attempt":2,"cell":{"id":3,"workload":"sparse)"
    R"(","kind":"sms","label":"SMS","options":{"pht-entries":"1024")"
    R"(},"sweep":{"region":"2048"},"ncpu":4,"refs":1000,"seed":7,"s)"
    R"(ys":{"ncpu":4,"l1":[65536,2,64,0],"l2":[8388608,8,64,0]},"mo)"
    R"(de":"l1","timing":true,"timing_only":false,"density":2048,"o)"
    R"(racle":[256,2048]}})" "\n";
const char *const kPinnedHeartbeat =
    "20\n"
    R"({"type":"heartbeat"})" "\n";
const char *const kPinnedResult =
    "255\n"
    R"({"type":"result","id":3,"error":"","metrics":{"instructions")"
    R"(:12345,"wall_ms":"0x1.8p+0"},"counters":[["issued",9]],"tele)"
    R"(metry":{"phases":[["trace","0x1p-2"]],"counters":[["cells_do)"
    R"(ne",1]],"rss_kb":2048,"spans":[["worker_cell","X",100,50,1,{)"
    R"("cell":"3"}]]}})" "\n";
const char *const kPinnedShutdown =
    "19\n"
    R"({"type":"shutdown"})" "\n";
const char *const kPinnedJournal =
    "67\n"
    R"({"type":"journal","version":1,"spec":"0123456789abcdef","cel)"
    R"(ls":33})" "\n";
const char *const kPinnedHello =
    "56\n"
    R"({"type":"hello","protocol":8,"role":"client","pid":4242})" "\n";
const char *const kPinnedError =
    "46\n"
    R"({"type":"error","message":"protocol mismatch"})" "\n";
const char *const kPinnedSubmit =
    "59\n"
    R"({"type":"submit","tokens":["workloads=sparse","refs=1000"]})" "\n";
const char *const kPinnedAdmitted =
    "31\n"
    R"({"type":"admitted","request":5})" "\n";
const char *const kPinnedReport =
    "111\n"
    R"({"type":"report","request":5,"failed":1,"replayed":2,"json":)"
    R"("{\"cells\":[]}\n","csv":"id\n","table":"| id |\n"})" "\n";
const char *const kPinnedRejected =
    "41\n"
    R"({"type":"rejected","reason":"queue full"})" "\n";

/** The bytes writeFrame puts on a pipe for @p payload. */
std::string
framedOnPipe(const std::string &payload)
{
    int p[2];
    EXPECT_EQ(::pipe(p), 0);
    EXPECT_TRUE(dispatch::writeFrame(p[1], payload));
    ::close(p[1]);
    std::string bytes;
    char buf[4096];
    for (ssize_t n; (n = ::read(p[0], buf, sizeof(buf))) > 0;)
        bytes.append(buf, static_cast<size_t>(n));
    ::close(p[0]);
    return bytes;
}

/** A journal's header frame, as RunJournal writes it to disk. */
std::string
journalHeaderFrame()
{
    const std::string path = tempPath("pinned.journal");
    {
        dispatch::RunJournal journal;
        journal.open(path, 0x0123456789abcdefULL, 33, false);
    }
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    fs::remove(path);
    return bytes;
}

} // anonymous namespace

TEST(WireBytes, EveryMessageTypeKeepsItsFrame)
{
    using namespace stems::dispatch;

    WorkerInit init;
    init.traceDir = "/spill";
    init.trace = true;
    init.heartbeatMs = 200;

    RunCell cell;
    cell.id = 3;
    cell.workload = "sparse";
    cell.engine.kind = "sms";
    cell.engine.label = "SMS";
    cell.engine.options = {{"pht-entries", "1024"}};
    cell.sweepPoint = {{"region", "2048"}};
    cell.params.ncpu = 4;
    cell.params.refsPerCpu = 1000;
    cell.params.seed = 7;
    cell.sys.ncpu = 4;
    cell.mode = StudyMode::L1;
    cell.timing = true;
    cell.densityRegion = 2048;
    cell.oracleRegionSizes = {256, 2048};

    CellResult result;
    result.cell.id = 3;
    result.metrics.setU64(metric::ids().instructions, 12345);
    result.metrics.setWallMs(1.5);
    result.metrics.pfCounters = {{"issued", 9}};
    result.telemetry.phases = {{"trace", 0.25}};
    result.telemetry.counters = {{"cells_done", 1}};
    result.telemetry.rssKb = 2048;
    obs::Event span;
    span.name = "worker_cell";
    span.tsNs = 100;
    span.durNs = 50;
    span.tid = 1;
    span.args = {{"cell", "3"}};
    result.telemetry.spans = {span};

    ExperimentService::Outcome report;
    report.status = ExperimentService::Outcome::Status::Done;
    report.id = 5;
    report.failed = 1;
    report.replayed = 2;
    report.json = "{\"cells\":[]}\n";
    report.csv = "id\n";
    report.table = "| id |\n";

    // the hello carries this process's pid; pin it to a fixed value
    std::string hello = encodeHello("client");
    const std::string pid = "\"pid\":" + std::to_string(::getpid());
    hello.replace(hello.find(pid), pid.size(), "\"pid\":4242");

    const struct
    {
        const char *type;
        std::string frame;
        const char *pinned;
    } rows[] = {
        {"init", framedOnPipe(encodeInit(init)), kPinnedInit},
        {"ready", framedOnPipe(encodeReady(4242)), kPinnedReady},
        {"cell", framedOnPipe(encodeCellJob(cell, 2)), kPinnedCell},
        {"heartbeat", framedOnPipe(encodeHeartbeat()), kPinnedHeartbeat},
        {"result", framedOnPipe(encodeResult(result)), kPinnedResult},
        {"shutdown", framedOnPipe(encodeShutdown()), kPinnedShutdown},
        {"journal", journalHeaderFrame(), kPinnedJournal},
        {"hello", framedOnPipe(hello), kPinnedHello},
        {"error", framedOnPipe(encodeError("protocol mismatch")),
         kPinnedError},
        {"submit",
         framedOnPipe(encodeSubmit({"workloads=sparse", "refs=1000"})),
         kPinnedSubmit},
        {"admitted", framedOnPipe(encodeAdmitted(5)), kPinnedAdmitted},
        {"report", framedOnPipe(encodeReport(report)), kPinnedReport},
        {"rejected", framedOnPipe(encodeRejected("queue full")),
         kPinnedRejected},
    };
    for (const auto &row : rows) {
        EXPECT_EQ(row.frame, row.pinned) << row.type;
    }
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
    // and every baseline memoized: it walks only its engines' passes
    const auto coldCounters = obs::snapshotCounters();
    const uint64_t passes = counterValue(coldCounters, "system_passes");
    const uint64_t baselines =
        counterValue(coldCounters, "baseline_memo_misses");
    EXPECT_GT(baselines, 0u);
    const auto warm = svc.submit(smallTokens());
    ASSERT_EQ(warm.status, ExperimentService::Outcome::Status::Done);
    EXPECT_EQ(warm.json, expected);
    EXPECT_GT(counterValue(obs::snapshotCounters(),
                           "serve_cache_warm_hits"),
              0u);
    EXPECT_EQ(counterValue(obs::snapshotCounters(),
                           "serve_requests_admitted"),
              2u);
    EXPECT_EQ(counterValue(obs::snapshotCounters(),
                           "baseline_memo_misses"),
              baselines);
    EXPECT_EQ(counterValue(obs::snapshotCounters(), "system_passes"),
              2 * passes - baselines);
    obs::Counters::get().reset();
}

TEST(ServeService, SharedExecutorKeepsEachModesBaseline)
{
    // one executor serves both study modes; the shadow-L1 and system
    // baselines are distinct passes, whichever mode is served first
    const std::vector<std::string> system = {
        "workloads=sparse", "ncpu=4", "refs=2000", "seed=3",
        "prefetchers=sms,none", "wall=0"};
    std::vector<std::string> l1 = system;
    l1.push_back("mode=l1");
    const std::string wantSystem = inProcessJson(parseSpec(system));
    const std::string wantL1 = inProcessJson(parseSpec(l1));
    ASSERT_NE(wantSystem, wantL1);

    for (const bool l1First : {true, false}) {
        ExperimentService::Config cfg;
        cfg.fleet = 2;
        ExperimentService svc(cfg);
        for (const bool isL1 : {l1First, !l1First}) {
            const auto out = svc.submit(isL1 ? l1 : system);
            ASSERT_EQ(out.status, ExperimentService::Outcome::Status::Done);
            EXPECT_EQ(out.json, isL1 ? wantL1 : wantSystem)
                << (isL1 ? "mode=l1" : "mode=system") << " served "
                << (isL1 == l1First ? "first" : "second");
        }
    }
}

TEST(ServeService, OneExecutorServesSpecsOfAnyOracleRegions)
{
    // two specs whose cells differ only in their oracle region sizes
    // run through the daemon's one executor, which the sizes ride in
    // on each cell
    const std::vector<std::string> plain = smallTokens();
    std::vector<std::string> oracle = plain;
    oracle.push_back("oracle-regions=512,4096");
    const std::string wantPlain = inProcessJson(parseSpec(plain));
    const std::string wantOracle = inProcessJson(parseSpec(oracle));
    ASSERT_NE(wantPlain, wantOracle);

    obs::Counters::get().reset();
    ExperimentService::Config cfg;
    cfg.fleet = 2;
    ExperimentService svc(cfg);
    const auto first = svc.submit(plain);
    ASSERT_EQ(first.status, ExperimentService::Outcome::Status::Done);
    EXPECT_EQ(first.json, wantPlain);
    EXPECT_EQ(counterValue(obs::snapshotCounters(),
                           "serve_cache_warm_hits"),
              0u);

    // every cell of the second finds its trace already prepared
    const auto second = svc.submit(oracle);
    ASSERT_EQ(second.status, ExperimentService::Outcome::Status::Done);
    EXPECT_EQ(second.json, wantOracle);
    EXPECT_EQ(counterValue(obs::snapshotCounters(),
                           "serve_cache_warm_hits"),
              selectedCells(parseSpec(oracle)).size());
    obs::Counters::get().reset();
}

TEST(ServeService, RejectsWhenAdmissionQueueFull)
{
    // the lane wedges 1 s before cell 0, holding the occupant active
    // however fast its cells run; installed before the service's lanes
    // start and removed after they stop
    fault::installPlan(fault::parsePlan("hang=cell:0/1000"));
    struct Uninstall
    {
        ~Uninstall() { fault::installPlan(fault::Plan{}); }
    } uninstall;

    ExperimentService::Config cfg;
    cfg.fleet = 1;
    cfg.maxActive = 1;
    cfg.maxQueued = 0;
    ExperimentService svc(cfg);

    // occupy the only active slot
    std::thread occupant([&] {
        const auto out = svc.submit(smallTokens());
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
    for (const auto &tokens : std::vector<std::vector<std::string>>{
             {"no-such-key=1"},
             // engine option values are checked before admission
             {"prefetchers=sms", "opt.index=bogus"}}) {
        const auto out = svc.submit(tokens);
        EXPECT_EQ(out.status, ExperimentService::Outcome::Status::Error);
        EXPECT_FALSE(out.reason.empty());
    }
}

TEST(ServeCli, BadNumbersExitTwoBeforeListening)
{
    const std::string listen = "unix:" + tempPath("never.sock");
    EXPECT_EQ(cmdServe({"listen=" + listen, "fleet=4x"}), 2);
    EXPECT_EQ(cmdServe({"listen=" + listen, "max-active=-1"}), 2);
    EXPECT_EQ(cmdServe({"listen=" + listen, "max-active=0"}), 2);
    EXPECT_FALSE(std::filesystem::exists(listen.substr(5)));
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
    ASSERT_TRUE(writeFrame(
        fd, R"({"type":"hello","protocol":999,"role":"client","pid":1})"));
    dispatch::FrameDecoder decoder;
    std::string payload;
    ASSERT_TRUE(readFrame(fd, decoder, payload));
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
               const std::string &journalDir,
               const std::string &faults = "")
{
    const pid_t pid = ::fork();
    if (pid == 0) {
        if (!faults.empty())
            ::setenv("STEMS_FAULTS", faults.c_str(), 1);
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
        dispatch::FrameDecoder decoder;
        decoder.feed(buf.data(), buf.size());
        size_t frames = 0;
        std::string payload;
        try {
            while (decoder.next(payload))
                ++frames;
        } catch (const std::exception &) {
            // a torn tail ends the count
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
    // least one completed cell hit the journal, then SIGKILL it. Its
    // one lane wedges before the last cell it claims, so the request
    // is still running when the signal lands, however fast the other
    // cells finish
    uint32_t lastClaimed = 0;
    {
        driver::CellScheduler order(parseSpec(tokens));
        while (const auto i = order.claim())
            lastClaimed = order.cells()[*i].id;
    }
    const pid_t first = spawnDaemonCli(
        listen, journalDir,
        "hang=cell:" + std::to_string(lastClaimed) + "/30000");
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
    // 4 cells on 2 workers, and the first attempts of cells 0 and 1
    // each kill the worker running them. A dead worker runs nothing
    // more, so the second crash lands on the other initial worker or
    // on a respawned one; either way both cells still need a second
    // attempt, which only a worker respawned through the spawn-cmd
    // template can run. The respawn is certain, not a race.
    const std::vector<std::string> tokens = {
        "workloads=sparse,graph", "prefetchers=sms,none", "ncpu=4",
        "refs=3000", "seed=17", "wall=0"};
    const std::string expected = inProcessJson(parseSpec(tokens));

    obs::Counters::get().reset();
    ScopedEnv plan("STEMS_FAULTS", "crash=cell:0,crash=cell:1");
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
{"name":"serve_cell","ph":"X","ts":4700,"dur":3000,"pid":1,"tid":2,"args":{"request":"1","cell":"1","workload":"graph","engine":"sms"}},
{"name":"serve_request","ph":"X","ts":0,"dur":8000,"pid":1,"tid":9,"args":{"request":"1","queue_ms":"2.500000","cells":"2","replayed":"0"}}
]})";

} // anonymous namespace

TEST(ServeAnalyze, JsonSchemaThreeCarriesServeSection)
{
    AnalyzeOptions opts;
    opts.format = "json";
    const std::string out = analyzeRun(kServeTrace, "", opts);
    const dispatch::JsonValue doc = dispatch::parseJson(out);
    const dispatch::JsonValue &a = doc.at("analyze");
    EXPECT_EQ(a.at("schema").asU64(), 3u);

    const dispatch::JsonValue &requests = a.at("serve");
    ASSERT_EQ(requests.items.size(), 1u);
    const dispatch::JsonValue &r = requests.items[0];
    EXPECT_EQ(r.at("request").asU64(), 1u);
    EXPECT_DOUBLE_EQ(r.at("queue_ms").asDouble(), 2.5);
    EXPECT_DOUBLE_EQ(r.at("wall_ms").asDouble(), 8.0);
    // exec attribution sums the request's serve_cell spans
    EXPECT_DOUBLE_EQ(r.at("exec_ms").asDouble(), 7.0);
    EXPECT_EQ(r.at("cells").asU64(), 2u);
    EXPECT_EQ(r.find("stolen"), nullptr);
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
