/**
 * @file
 * `stems submit`: the client side of the experiment service. Parses
 * the spec locally (fail fast, and learn the output sinks), ships the
 * raw tokens to the daemon named by `server=ADDR`, and writes the
 * returned report texts verbatim to the spec's sinks — byte-identical
 * to running `stems run` with the same tokens.
 *
 * Exit codes: 0 report written (1 when any cell errored), 2 protocol
 * or spec error, 3 rejected by the admission queue.
 */

#ifndef STEMS_SERVE_CLIENT_HH
#define STEMS_SERVE_CLIENT_HH

#include <string>
#include <vector>

#include "driver/options.hh"
#include "serve/service.hh"

namespace stems::serve {

/**
 * Submit @p tokens (a spec, without the server= key) to the daemon
 * at @p server and block for the outcome. Throws std::runtime_error
 * on connect/handshake/transport failure.
 */
ExperimentService::Outcome
submitToServer(const std::string &server,
               const std::vector<std::string> &tokens,
               uint32_t connectTimeoutMs = 5000);

/** The client-only `stems submit` keys, bound to @p server. */
driver::KeyTable submitKeys(std::string &server);

/** `stems submit server=ADDR SPEC...` */
int cmdSubmit(const std::vector<std::string> &args);

} // namespace stems::serve

#endif // STEMS_SERVE_CLIENT_HH
