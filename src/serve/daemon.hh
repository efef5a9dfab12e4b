/**
 * @file
 * The `stems serve` daemon: a listening socket in front of
 * ExperimentService. Each client connection is one request — hello
 * handshake, a submit frame, an admitted ack, then the terminal
 * report/rejected/error frame — handled on its own thread so
 * concurrent clients map onto the service's admission queue.
 *
 * Shutdown (SIGINT/SIGTERM in cmdServe, or stop()) closes the
 * listener, drains connection threads, then stops the fleet; with
 * --trace-out/--telemetry-out the daemon dumps its lifetime
 * observability artifacts on the way out (the same formats
 * `stems run` writes, so `stems analyze` reads them unchanged). A
 * SIGKILLed daemon instead leaves its per-request journals behind —
 * the warm-restart path the tests exercise.
 */

#ifndef STEMS_SERVE_DAEMON_HH
#define STEMS_SERVE_DAEMON_HH

#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "driver/options.hh"
#include "serve/service.hh"

namespace stems::serve {

class Daemon
{
  public:
    struct Config
    {
        std::string listen;  //!< unix:/path or host:port
        ExperimentService::Config service;
        bool quiet = false;
    };

    /** Binds and starts accepting; throws on bind failure. */
    explicit Daemon(Config config);
    ~Daemon();

    /** Close the listener, drain connections, stop the fleet. */
    void stop();

    const std::string &address() const { return cfg.listen; }

  private:
    void acceptLoop();
    void serveConnection(int fd);

    Config cfg;
    ExperimentService service;
    int listenFd = -1;
    std::thread acceptor;
    std::mutex connMu;
    std::vector<std::thread> connections;
    bool stopped = false;
};

/** `stems serve` arguments: the daemon plus its exit artifacts. */
struct ServeArgs
{
    Daemon::Config daemon;
    std::string traceOut;      //!< Chrome trace JSON ("" = off)
    std::string telemetryOut;  //!< counters JSON ("" = off)
};

/** The `stems serve` key table, bound to @p a. */
driver::KeyTable serveKeys(ServeArgs &a);

/** `stems serve listen=ADDR [keys]`; exit 2 on a bad key or value. */
int cmdServe(const std::vector<std::string> &args);

} // namespace stems::serve

#endif // STEMS_SERVE_DAEMON_HH
