#include "serve/transport.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <iostream>
#include <stdexcept>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "dispatch/wire.hh"
#include "dispatch/worker.hh"
#include "serve/socket.hh"

namespace stems::serve {

namespace {

std::string
substituteAddr(const std::string &tmpl, const std::string &addr)
{
    std::string out = tmpl;
    for (size_t pos = 0; (pos = out.find("{addr}", pos)) !=
                         std::string::npos;) {
        out.replace(pos, 6, addr);
        pos += addr.size();
    }
    return out;
}

} // anonymous namespace

SocketTransport::SocketTransport(Config config)
    : cfg(std::move(config))
{
    if (cfg.endpoints.empty())
        throw std::runtime_error(
            "serve: SocketTransport needs at least one endpoint");
}

static dispatch::WorkerProcess
spawnOnEndpoint(const SocketTransport::Config &cfg,
                const std::string &addr)
{
    pid_t child = -1;
    if (!cfg.spawnCmd.empty()) {
        const std::string cmd = substituteAddr(cfg.spawnCmd, addr);
        child = ::fork();
        if (child < 0)
            throw std::runtime_error("serve: fork failed: " +
                                     std::string(strerror(errno)));
        if (child == 0) {
            ::execl("/bin/sh", "sh", "-c", cmd.c_str(),
                    static_cast<char *>(nullptr));
            ::_exit(127);
        }
    }

    int fd = -1;
    try {
        fd = connectTo(addr, cfg.connectTimeoutMs);

        // hello handshake before any dispatch frames: both sides
        // agree on the protocol version or the connection dies here
        dispatch::FrameDecoder decoder;
        if (!dispatch::writeFrame(fd, dispatch::encodeHello("coordinator"),
                                  dispatch::Tally::Socket))
            throw std::runtime_error(
                "serve: worker at " + addr + " closed during hello");
        dispatch::Hello peer;
        std::string err;
        if (!dispatch::readHello(fd, decoder, "worker", peer, err))
            throw std::runtime_error("serve: " + addr + ": " + err);
    } catch (...) {
        if (fd >= 0)
            ::close(fd);
        if (child > 0) {
            ::kill(child, SIGKILL);
            ::waitpid(child, nullptr, 0);
        }
        throw;
    }

    // the coordinator's reap closes both fds independently, so hand
    // it two descriptors for the one socket
    dispatch::WorkerProcess proc;
    proc.pid = child;
    proc.toWorker = fd;
    proc.fromWorker = ::dup(fd);
    if (proc.fromWorker < 0) {
        ::close(fd);
        if (child > 0) {
            ::kill(child, SIGKILL);
            ::waitpid(child, nullptr, 0);
        }
        throw std::runtime_error("serve: dup failed");
    }
    return proc;
}

dispatch::WorkerProcess
SocketTransport::spawn()
{
    std::string addr;
    {
        std::lock_guard<std::mutex> lk(mu);
        addr = cfg.endpoints[next % cfg.endpoints.size()];
        ++next;
    }
    return spawnOnEndpoint(cfg, addr);
}

int
runListenWorker(const std::string &addr, bool once)
{
    std::signal(SIGPIPE, SIG_IGN);
    int listenFd = -1;
    try {
        listenFd = listenOn(addr);
    } catch (const std::exception &e) {
        std::cerr << "stems worker: " << e.what() << "\n";
        return 1;
    }
    std::cerr << "stems worker: listening on " << addr << "\n";

    std::vector<std::thread> sessions;
    for (;;) {
        const int fd = acceptOn(listenFd);
        if (fd < 0)
            break;

        // validate the coordinator before entering the worker loop;
        // a mismatched or hostile peer gets a clean error frame
        dispatch::FrameDecoder decoder;
        dispatch::Hello peer;
        std::string err;
        if (!dispatch::readHello(fd, decoder, "coordinator", peer, err)) {
            std::cerr << "stems worker: rejected connection: " << err
                      << "\n";
            dispatch::writeFrame(fd, dispatch::encodeError(err),
                                 dispatch::Tally::Socket);
            ::close(fd);
            continue;
        }
        if (!dispatch::writeFrame(fd, dispatch::encodeHello("worker"),
                                  dispatch::Tally::Socket)) {
            ::close(fd);
            continue;
        }

        if (once) {
            // stop listening before serving: a coordinator that
            // respawns onto this address meanwhile must be refused
            // and retry until its new worker binds, not queue on a
            // listener that never accepts again
            ::close(listenFd);
            const int rc = dispatch::runWorker(fd, fd);
            ::close(fd);
            for (auto &t : sessions)
                t.join();
            return rc;
        }
        // session per thread: a coordinator respawning onto this
        // endpoint can start a fresh session while the dead one's
        // thread drains out on EOF
        sessions.emplace_back([fd] {
            dispatch::runWorker(fd, fd);
            ::close(fd);
        });
    }
    ::close(listenFd);
    for (auto &t : sessions)
        t.join();
    return 0;
}

} // namespace stems::serve
