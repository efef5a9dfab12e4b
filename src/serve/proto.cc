#include "serve/proto.hh"

#include <stdexcept>

#include "dispatch/wire.hh"
#include "driver/report.hh"

namespace stems::serve {

using dispatch::JsonValue;
using driver::JsonWriter;

std::string
encodeSubmit(const std::vector<std::string> &tokens)
{
    JsonWriter j;
    j.beginObject();
    j.key("type").value("submit");
    j.key("tokens").beginArray();
    for (const auto &t : tokens)
        j.value(t);
    j.endArray();
    j.endObject();
    return j.str();
}

std::vector<std::string>
decodeSubmit(const JsonValue &msg)
{
    std::vector<std::string> tokens;
    for (const auto &t : msg.at("tokens").items)
        tokens.push_back(t.asString());
    return tokens;
}

std::string
encodeAdmitted(uint64_t id)
{
    JsonWriter j;
    j.beginObject();
    j.key("type").value("admitted");
    j.key("request").value(id);
    j.endObject();
    return j.str();
}

std::string
encodeRejected(const std::string &reason)
{
    JsonWriter j;
    j.beginObject();
    j.key("type").value("rejected");
    j.key("reason").value(reason);
    j.endObject();
    return j.str();
}

std::string
encodeReport(const ExperimentService::Outcome &outcome)
{
    JsonWriter j;
    j.beginObject();
    j.key("type").value("report");
    j.key("request").value(outcome.id);
    j.key("failed").value(uint64_t{outcome.failed});
    j.key("replayed").value(outcome.replayed);
    j.key("json").value(outcome.json);
    j.key("csv").value(outcome.csv);
    j.key("table").value(outcome.table);
    j.endObject();
    return j.str();
}

ExperimentService::Outcome
decodeResponse(const JsonValue &msg)
{
    using Outcome = ExperimentService::Outcome;
    Outcome out;
    const std::string &type = dispatch::messageType(msg);
    if (type == "admitted") {
        out.status = Outcome::Status::Admitted;
        out.id = msg.at("request").asU64();
    } else if (type == "report") {
        out.status = Outcome::Status::Done;
        out.id = msg.at("request").asU64();
        out.failed =
            static_cast<uint32_t>(msg.at("failed").asU64());
        out.replayed = msg.at("replayed").asU64();
        out.json = msg.at("json").asString();
        out.csv = msg.at("csv").asString();
        out.table = msg.at("table").asString();
    } else if (type == "rejected") {
        out.status = Outcome::Status::Rejected;
        out.reason = msg.at("reason").asString();
    } else if (type == "error") {
        out.status = Outcome::Status::Error;
        out.reason = msg.at("message").asString();
    } else {
        throw std::invalid_argument(
            "serve: unexpected response \"" + type + "\"");
    }
    return out;
}

} // namespace stems::serve
