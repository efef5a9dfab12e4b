#include "common.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <time.h>

#include "spans.hh"

namespace stems::bench {

driver::Options
parseArgs(const std::vector<std::string> &args)
{
    driver::Options o;
    for (const auto &arg : args) {
        if (arg.find('=') == std::string::npos)
            throw std::invalid_argument("expected key=value, got \"" +
                                        arg + "\"");
        const auto [k, v] = driver::parseKeyValue(arg);
        o[k] = v;
    }
    return o;
}

workloads::WorkloadParams
paramsFrom(const driver::Options &o)
{
    workloads::WorkloadParams p;
    p.ncpu = static_cast<uint32_t>(driver::optU64(o, "ncpu", 16));
    p.refsPerCpu = driver::optU64(o, "refs", 20000);
    p.seed = driver::optU64(o, "seed", 1);
    if (p.ncpu == 0 || p.refsPerCpu == 0)
        throw std::invalid_argument("ncpu and refs must be positive");
    return p;
}

std::string
readFile(const std::string &path)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << f.rdbuf();
    return text.str();
}

std::vector<std::string>
readSpec(const std::string &path)
{
    std::istringstream words(readFile(path));
    std::vector<std::string> tokens;
    for (std::string w; words >> w;)
        tokens.push_back(w);
    if (tokens.empty())
        throw std::runtime_error(path + " holds no spec");
    return tokens;
}

double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const size_t i = rank < 1 ? 0 : static_cast<size_t>(rank) - 1;
    return v[std::min(i, v.size() - 1)];
}

void
Fields::add(const std::string &key, double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
    members.emplace_back(key, buf);
}

void
Fields::add(const std::string &key, uint64_t v)
{
    members.emplace_back(key, std::to_string(v));
}

void
Fields::addRaw(const std::string &key, const std::string &json)
{
    members.emplace_back(key, json);
}

std::string
Fields::json() const
{
    std::string out = "{";
    for (size_t i = 0; i < members.size(); ++i) {
        if (i)
            out += ",";
        out += "\"" + members[i].first + "\":" + members[i].second;
    }
    return out + "}";
}

void
writeFile(const std::string &path, const std::string &text)
{
    std::ofstream f(path, std::ios::binary);
    if (!(f << text))
        throw std::runtime_error("cannot write " + path);
}

int64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

namespace {

/** Open spans of the calling thread, innermost last. */
thread_local std::vector<size_t> openStack;

uint32_t
threadTag()
{
    return static_cast<uint32_t>(
        std::hash<std::thread::id>{}(std::this_thread::get_id()) %
        100000);
}

} // anonymous namespace

SpanLog &
SpanLog::get()
{
    static SpanLog log;
    return log;
}

size_t
SpanLog::begin(std::string name, std::string args)
{
    Span s;
    s.name = std::move(name);
    s.args = std::move(args);
    s.parent = openStack.empty() ? -1
                                 : static_cast<int64_t>(openStack.back());
    s.tid = threadTag();
    s.startNs = nowNs();
    std::lock_guard<std::mutex> lock(mu);
    spans.push_back(std::move(s));
    openStack.push_back(spans.size() - 1);
    return spans.size() - 1;
}

int64_t
SpanLog::end(size_t id)
{
    const int64_t t = nowNs();
    if (!openStack.empty() && openStack.back() == id)
        openStack.pop_back();
    std::lock_guard<std::mutex> lock(mu);
    spans[id].endNs = t;
    return t - spans[id].startNs;
}

std::string
SpanLog::chromeJson() const
{
    std::lock_guard<std::mutex> lock(mu);
    int64_t t0 = 0;
    for (size_t i = 0; i < spans.size(); ++i)
        if (i == 0 || spans[i].startNs < t0)
            t0 = spans[i].startNs;
    std::ostringstream out;
    out << "{\"traceEvents\":[";
    for (size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        char times[96];
        std::snprintf(times, sizeof(times), "\"ts\":%.3f,\"dur\":%.3f",
                      static_cast<double>(s.startNs - t0) / 1e3,
                      static_cast<double>(s.endNs - s.startNs) / 1e3);
        out << (i ? "," : "") << "{\"name\":\"" << s.name
            << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid << ","
            << times << ",\"args\":{\"id\":" << i
            << ",\"parent\":" << s.parent
            << (s.args.empty() ? "" : "," + s.args) << "}}";
    }
    out << "],\"displayTimeUnit\":\"ms\"}\n";
    return out.str();
}

} // namespace stems::bench
