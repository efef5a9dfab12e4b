#include "serve/client.hh"

#include <csignal>
#include <iostream>
#include <stdexcept>
#include <unistd.h>

#include "dispatch/wire.hh"
#include "driver/options.hh"
#include "driver/report.hh"
#include "serve/socket.hh"

namespace stems::serve {

ExperimentService::Outcome
submitToServer(const std::string &server,
               const std::vector<std::string> &tokens,
               uint32_t connectTimeoutMs)
{
    std::signal(SIGPIPE, SIG_IGN);
    const int fd = connectTo(server, connectTimeoutMs);
    using namespace dispatch;
    FrameDecoder decoder;
    try {
        if (!writeFrame(fd, encodeHello("client"), Tally::Socket))
            throw std::runtime_error(
                "serve: daemon closed during hello");
        Hello peer;
        std::string err;
        if (!readHello(fd, decoder, "serve", peer, err))
            throw std::runtime_error("serve: " + err);
        if (!writeFrame(fd, encodeSubmit(tokens), Tally::Socket))
            throw std::runtime_error(
                "serve: daemon closed during submit");

        std::string payload;
        for (;;) {
            if (!readFrame(fd, decoder, payload, Tally::Socket))
                throw std::runtime_error(
                    "serve: daemon closed before replying "
                    "(crashed mid-request?)");
            const ExperimentService::Outcome outcome =
                decodeResponse(parseJson(payload));
            if (outcome.status !=
                ExperimentService::Outcome::Status::Admitted) {
                ::close(fd);
                return outcome;
            }
        }
    } catch (...) {
        ::close(fd);
        throw;
    }
}

driver::KeyTable
submitKeys(std::string &server)
{
    return {driver::strKey("server", server,
                           "daemon address: unix:/path or host:port")};
}

int
cmdSubmit(const std::vector<std::string> &args)
{
    // peel off the client-only keys; every other key ships to the
    // daemon untouched
    std::string server;
    const driver::KeyTable own = submitKeys(server);
    std::vector<std::string> tokens;
    for (const auto &arg : args) {
        std::string tok = driver::keyToken(arg);
        const size_t eq = tok.find('=');
        const driver::Key *row = eq == std::string::npos
            ? nullptr
            : driver::findKey(own, tok.substr(0, eq));
        if (row)
            row->apply(tok.substr(0, eq), tok.substr(eq + 1));
        else
            tokens.push_back(std::move(tok));
    }
    if (server.empty()) {
        std::cerr << "stems submit: needs server=ADDR "
                     "(unix:/path or host:port)\n";
        return 2;
    }

    // parse locally first: a bad spec fails here with the usual
    // message, and the sink paths below come from the same parse the
    // daemon will do
    driver::ExperimentSpec spec;
    try {
        spec = driver::parseSpec(tokens);
    } catch (const std::exception &e) {
        std::cerr << "stems submit: " << e.what() << "\n";
        return 2;
    }
    if (spec.jsonPath.empty() && spec.csvPath.empty() && !spec.table)
        spec.jsonPath = "-";

    ExperimentService::Outcome outcome;
    try {
        outcome = submitToServer(server, tokens);
    } catch (const std::exception &e) {
        std::cerr << "stems submit: " << e.what() << "\n";
        return 2;
    }

    using Status = ExperimentService::Outcome::Status;
    if (outcome.status == Status::Rejected) {
        std::cerr << "stems submit: rejected: " << outcome.reason
                  << "\n";
        return 3;
    }
    if (outcome.status != Status::Done) {
        std::cerr << "stems submit: " << outcome.reason << "\n";
        return 2;
    }

    // the daemon's sink texts, written verbatim where stems run
    // would have written them
    if (!spec.jsonPath.empty())
        driver::writeReport(spec.jsonPath, outcome.json);
    if (!spec.csvPath.empty())
        driver::writeReport(spec.csvPath, outcome.csv);
    if (spec.table) {
        // keep stdout clean for machine-readable sinks
        if (spec.jsonPath == "-" || spec.csvPath == "-")
            std::cerr << outcome.table;
        else
            std::cout << outcome.table;
    }
    if (!spec.quiet) {
        std::cerr << "stems submit: request " << outcome.id
                  << " done";
        if (outcome.replayed)
            std::cerr << " (" << outcome.replayed
                      << " cells replayed from journal)";
        std::cerr << "\n";
    }
    return outcome.failed ? 1 : 0;
}

} // namespace stems::serve
