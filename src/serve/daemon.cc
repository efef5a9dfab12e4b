#include "serve/daemon.hh"

#include <chrono>
#include <csignal>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <sys/socket.h>
#include <unistd.h>

#include "dispatch/coordinator.hh"
#include "driver/options.hh"
#include "driver/report.hh"
#include "obs/obs.hh"
#include "serve/proto.hh"
#include "serve/socket.hh"

namespace stems::serve {

Daemon::Daemon(Config config)
    : cfg(std::move(config)), service(cfg.service)
{
    std::signal(SIGPIPE, SIG_IGN);
    listenFd = listenOn(cfg.listen);
    if (!cfg.quiet)
        std::cerr << "stems serve: listening on " << cfg.listen
                  << " (fleet=" << cfg.service.fleet
                  << " max-active=" << cfg.service.maxActive
                  << " max-queue=" << cfg.service.maxQueued << ")\n";
    acceptor = std::thread([this] { acceptLoop(); });
}

Daemon::~Daemon()
{
    stop();
}

void
Daemon::stop()
{
    {
        std::lock_guard<std::mutex> lk(connMu);
        if (stopped)
            return;
        stopped = true;
    }
    // shutdown() unblocks a blocked accept() even where close() alone
    // would not
    ::shutdown(listenFd, SHUT_RDWR);
    ::close(listenFd);
    if (acceptor.joinable())
        acceptor.join();
    // drain in-flight requests before stopping the fleet, so a
    // graceful shutdown never fails a request it already admitted
    std::vector<std::thread> drain;
    {
        std::lock_guard<std::mutex> lk(connMu);
        drain.swap(connections);
    }
    for (auto &t : drain)
        t.join();
    service.stop();
}

void
Daemon::acceptLoop()
{
    obs::setThreadName("serve-accept");
    for (;;) {
        const int fd = acceptOn(listenFd);
        if (fd < 0)
            return;  // listener closed: shutting down
        std::lock_guard<std::mutex> lk(connMu);
        if (stopped) {
            ::close(fd);
            return;
        }
        connections.emplace_back(
            [this, fd] { serveConnection(fd); });
    }
}

void
Daemon::serveConnection(int fd)
{
    obs::setThreadName("serve-conn");
    dispatch::FrameDecoder decoder;

    // the versioned handshake gates everything: a peer speaking a
    // different protocol (or an oversized/hostile first frame) gets
    // one clean error frame, never a partial request
    Hello peer;
    std::string err;
    if (!readHello(fd, decoder, "client", peer, err)) {
        if (!cfg.quiet)
            std::cerr << "stems serve: rejected connection: " << err
                      << "\n";
        sendFrame(fd, encodeError(err));
        ::close(fd);
        return;
    }
    if (!sendFrame(fd, encodeHello("serve"))) {
        ::close(fd);
        return;
    }

    std::string payload;
    std::vector<std::string> tokens;
    try {
        if (!recvFrame(fd, decoder, payload)) {
            ::close(fd);
            return;  // client went away before submitting
        }
        const dispatch::JsonValue msg = dispatch::parseJson(payload);
        if (dispatch::messageType(msg) != "submit")
            throw std::invalid_argument(
                "expected submit, got \"" +
                dispatch::messageType(msg) + "\"");
        tokens = decodeSubmit(msg);
    } catch (const std::exception &e) {
        sendFrame(fd, encodeError(e.what()));
        ::close(fd);
        return;
    }

    const ExperimentService::Outcome outcome = service.submit(
        tokens,
        [fd](uint64_t id) { sendFrame(fd, encodeAdmitted(id)); });
    using Status = ExperimentService::Outcome::Status;
    switch (outcome.status) {
    case Status::Done:
        sendFrame(fd, encodeReport(outcome));
        break;
    case Status::Rejected:
        sendFrame(fd, encodeRejected(outcome.reason));
        break;
    default:
        sendFrame(fd, encodeError(outcome.reason));
        break;
    }
    ::close(fd);
}

namespace {

/** Self-pipe signal delivery: handlers only write a byte. */
int gStopPipe[2] = {-1, -1};

void
onStopSignal(int)
{
    const char byte = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(gStopPipe[1], &byte, 1);
}

} // anonymous namespace

driver::KeyTable
serveKeys(ServeArgs &a)
{
    using namespace driver;
    ExperimentService::Config &svc = a.daemon.service;
    return {
        strKey("listen", a.daemon.listen, "unix:/path or host:port"),
        u32Key("fleet", svc.fleet, "executor threads (0 = all cores)"),
        u32Key("max-active", svc.maxActive, "requests executing at once", 1),
        u32Key("max-queue", svc.maxQueued, "waiting requests allowed"),
        strKey("journal-dir", svc.journalDir, "journals for warm restart"),
        strKey("trace-dir", svc.traceDir, "trace spill dir (temp if unset)"),
        boolKey("quiet", a.daemon.quiet, "no lifecycle lines"),
        strKey("trace-out", a.traceOut, "Chrome trace JSON, at exit"),
        strKey("telemetry-out", a.telemetryOut, "counters JSON, at exit"),
    };
}

int
cmdServe(const std::vector<std::string> &args)
{
    ServeArgs a;
    try {
        driver::parseKeys(serveKeys(a), args);
        if (a.daemon.listen.empty())
            throw std::invalid_argument(
                "stems serve needs listen=ADDR (unix:/path or "
                "host:port)");
    } catch (const std::exception &e) {
        std::cerr << "stems serve: " << e.what() << "\n";
        return 2;
    }
    if (!a.traceOut.empty()) {
        obs::Recorder::get().enable();
        obs::setThreadName("serve-main");
    }

    if (::pipe(gStopPipe) != 0) {
        std::cerr << "stems serve: pipe failed: "
                  << std::strerror(errno) << "\n";
        return 1;
    }
    std::signal(SIGINT, onStopSignal);
    std::signal(SIGTERM, onStopSignal);

    const bool quiet = a.daemon.quiet;
    const auto startedAt = std::chrono::steady_clock::now();
    try {
        Daemon daemon(std::move(a.daemon));
        // block until a stop signal lands
        char byte;
        while (::read(gStopPipe[0], &byte, 1) < 0 && errno == EINTR) {
        }
        if (!quiet)
            std::cerr << "stems serve: shutting down\n";
        daemon.stop();
    } catch (const std::exception &e) {
        std::cerr << "stems serve: " << e.what() << "\n";
        return 1;
    }

    // lifetime artifacts: same formats as stems run, so check_trace
    // and stems analyze consume them unchanged
    const double wallMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - startedAt)
            .count();
    if (!a.traceOut.empty())
        driver::writeReport(a.traceOut,
                            obs::Recorder::get().chromeJson());
    if (!a.telemetryOut.empty())
        driver::writeReport(a.telemetryOut,
                            dispatch::telemetryJson(wallMs, {}));
    return 0;
}

} // namespace stems::serve
