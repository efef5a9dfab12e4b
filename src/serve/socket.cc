#include "serve/socket.hh"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <stdexcept>
#include <sys/socket.h>
#include <sys/un.h>
#include <thread>
#include <unistd.h>

namespace stems::serve {

namespace {

[[noreturn]] void
fail(const std::string &what)
{
    throw std::runtime_error("serve: " + what + ": " +
                             std::strerror(errno));
}

bool
isUnix(const std::string &addr)
{
    return addr.rfind("unix:", 0) == 0;
}

/** host:port → {host, port}; throws on a missing port. */
std::pair<std::string, std::string>
splitHostPort(const std::string &addr)
{
    const size_t colon = addr.rfind(':');
    if (colon == std::string::npos || colon + 1 == addr.size())
        throw std::runtime_error(
            "serve: bad endpoint \"" + addr +
            "\" (want unix:/path or host:port)");
    return {addr.substr(0, colon), addr.substr(colon + 1)};
}

sockaddr_un
unixAddr(const std::string &addr)
{
    const std::string path = addr.substr(5);
    sockaddr_un sa = {};
    sa.sun_family = AF_UNIX;
    if (path.empty() || path.size() >= sizeof(sa.sun_path))
        throw std::runtime_error("serve: unix socket path \"" + path +
                                 "\" empty or too long");
    std::memcpy(sa.sun_path, path.c_str(), path.size() + 1);
    return sa;
}

int
tcpConnectOnce(const std::string &host, const std::string &port)
{
    addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    addrinfo *res = nullptr;
    if (getaddrinfo(host.empty() ? nullptr : host.c_str(),
                    port.c_str(), &hints, &res) != 0)
        return -1;
    int fd = -1;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    freeaddrinfo(res);
    if (fd >= 0) {
        const int one = 1;
        ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    }
    return fd;
}

} // anonymous namespace

int
listenOn(const std::string &addr)
{
    if (isUnix(addr)) {
        const sockaddr_un sa = unixAddr(addr);
        ::unlink(sa.sun_path);  // stale socket from a killed daemon
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        if (fd < 0)
            fail("socket(" + addr + ")");
        if (::bind(fd, reinterpret_cast<const sockaddr *>(&sa),
                   sizeof(sa)) != 0) {
            ::close(fd);
            fail("bind(" + addr + ")");
        }
        if (::listen(fd, 64) != 0) {
            ::close(fd);
            fail("listen(" + addr + ")");
        }
        return fd;
    }

    const auto [host, port] = splitHostPort(addr);
    addrinfo hints = {};
    hints.ai_family = AF_UNSPEC;
    hints.ai_socktype = SOCK_STREAM;
    hints.ai_flags = AI_PASSIVE;
    addrinfo *res = nullptr;
    if (getaddrinfo(host.empty() ? nullptr : host.c_str(),
                    port.c_str(), &hints, &res) != 0)
        throw std::runtime_error("serve: cannot resolve \"" + addr +
                                 "\"");
    int fd = -1;
    for (addrinfo *ai = res; ai; ai = ai->ai_next) {
        fd = ::socket(ai->ai_family, ai->ai_socktype,
                      ai->ai_protocol);
        if (fd < 0)
            continue;
        const int one = 1;
        ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
        if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
            ::listen(fd, 64) == 0)
            break;
        ::close(fd);
        fd = -1;
    }
    freeaddrinfo(res);
    if (fd < 0)
        fail("bind/listen(" + addr + ")");
    return fd;
}

int
acceptOn(int listenFd)
{
    for (;;) {
        const int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd >= 0) {
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
            return fd;
        }
        if (errno == EINTR)
            continue;
        return -1;  // listener closed (daemon shutdown)
    }
}

int
connectTo(const std::string &addr, uint32_t deadlineMs)
{
    using Clock = std::chrono::steady_clock;
    const auto deadline =
        Clock::now() + std::chrono::milliseconds(deadlineMs);
    for (;;) {
        int fd = -1;
        if (isUnix(addr)) {
            const sockaddr_un sa = unixAddr(addr);
            fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
            if (fd >= 0 &&
                ::connect(fd,
                          reinterpret_cast<const sockaddr *>(&sa),
                          sizeof(sa)) != 0) {
                ::close(fd);
                fd = -1;
            }
        } else {
            const auto [host, port] = splitHostPort(addr);
            fd = tcpConnectOnce(host, port);
        }
        if (fd >= 0)
            return fd;
        if (Clock::now() >= deadline)
            throw std::runtime_error("serve: cannot connect to \"" +
                                     addr + "\"");
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

} // namespace stems::serve
