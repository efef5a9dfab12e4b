/**
 * @file
 * Socket endpoints for the experiment service: listen, accept and
 * connect on Unix-domain and TCP addresses. Everything that then
 * rides a connection (frames, their caps and byte counters, and the
 * versioned hello handshake every connection opens with) is the wire
 * codec's, described in dispatch/wire.hh.
 *
 * Endpoint syntax (everywhere an address is accepted):
 *   unix:/path/to.sock   Unix-domain stream socket
 *   host:port            TCP (resolved with getaddrinfo)
 */

#ifndef STEMS_SERVE_SOCKET_HH
#define STEMS_SERVE_SOCKET_HH

#include <cstdint>
#include <string>

namespace stems::serve {

/**
 * Bind + listen on @p addr (`unix:/path` or `host:port`). A stale
 * Unix socket path is unlinked first. Throws std::runtime_error.
 */
int listenOn(const std::string &addr);

/** Blocking accept; returns -1 when the listener was closed. */
int acceptOn(int listenFd);

/**
 * Connect to @p addr, retrying every ~50 ms until @p deadlineMs (a
 * just-spawned listener needs a beat to bind). Throws on timeout.
 */
int connectTo(const std::string &addr, uint32_t deadlineMs = 5000);

} // namespace stems::serve

#endif // STEMS_SERVE_SOCKET_HH
