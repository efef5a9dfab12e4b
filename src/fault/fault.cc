#include "fault/fault.hh"

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <fcntl.h>
#include <map>
#include <mutex>
#include <stdexcept>
#include <unistd.h>

#include "driver/options.hh"
#include "obs/counters.hh"
#include "obs/obs.hh"

namespace stems::fault {

namespace {

Plan gPlan;
bool gActive = false;

// cell-context site identity, set around each cell execution by the
// thread that runs it (a worker's loop or a pool lane)
thread_local bool gHaveCell = false;
thread_local uint32_t gCellId = 0;
thread_local uint32_t gAttempt = 1;

// per-path spill-write ordinals so a regenerated spill rolls a fresh
// deterministic decision; guarded — runner pool threads spill
// concurrently
std::mutex gSpillMu;
std::map<std::string, uint64_t> gSpillWrites;

/** splitmix64 finalizer: the one mixing primitive every site shares. */
uint64_t
mix64(uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

uint64_t
hashBytes(const std::string &s)
{
    // FNV-1a 64
    uint64_t h = 0xcbf29ce484222325ULL;
    for (unsigned char c : s) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::string
baseName(const std::string &path)
{
    const size_t slash = path.find_last_of('/');
    return slash == std::string::npos ? path : path.substr(slash + 1);
}

/** Parse "P[:always]" or "cell:ID[:always]" into @p c. */
void
parseSelector(Clause &c, const std::string &sel)
{
    std::string body = sel;
    if (body.size() >= 7 &&
        body.compare(body.size() - 7, 7, ":always") == 0) {
        c.everyAttempt = true;
        body.erase(body.size() - 7);
    }
    if (body.rfind("cell:", 0) == 0) {
        const std::string id = body.substr(5);
        char *end = nullptr;
        errno = 0;
        const unsigned long long v = std::strtoull(id.c_str(), &end, 10);
        if (id.empty() || errno != 0 || end != id.c_str() + id.size())
            throw std::invalid_argument("bad cell id \"" + id + "\"");
        c.cell = static_cast<int64_t>(v);
        c.prob = 1.0;
        return;
    }
    char *end = nullptr;
    errno = 0;
    const double p = std::strtod(body.c_str(), &end);
    if (body.empty() || errno != 0 || end != body.c_str() + body.size() ||
        !(p >= 0.0 && p <= 1.0))
        throw std::invalid_argument("probability \"" + body +
                                    "\" must be in [0,1] (or cell:ID)");
    c.prob = p;
}

/** The clause a KIND=@p value entry declares. */
Clause
parseClause(Kind kind, std::string value)
{
    Clause c;
    c.kind = kind;
    if (kind == Kind::Hang) {
        const size_t slash = value.find('/');
        if (slash == std::string::npos)
            throw std::invalid_argument("hang needs SEL/MS, got \"" +
                                        value + "\"");
        const std::string ms = value.substr(slash + 1);
        char *end = nullptr;
        errno = 0;
        const unsigned long v = std::strtoul(ms.c_str(), &end, 10);
        if (ms.empty() || errno != 0 || end != ms.c_str() + ms.size())
            throw std::invalid_argument("bad hang duration \"" + ms +
                                        "\"");
        c.hangMs = static_cast<uint32_t>(v);
        value.erase(slash);
    }
    if (kind == Kind::CorruptSpill || kind == Kind::Enospc) {
        // spill faults have no cell identity: probability only
        char *end = nullptr;
        errno = 0;
        const double p = std::strtod(value.c_str(), &end);
        if (value.empty() || errno != 0 ||
            end != value.c_str() + value.size() || !(p >= 0.0 && p <= 1.0))
            throw std::invalid_argument(std::string(kindName(kind)) +
                                        " probability \"" + value +
                                        "\" must be in [0,1]");
        c.prob = p;
        c.everyAttempt = true;
    } else {
        parseSelector(c, value);
    }
    return c;
}

bool
clauseFires(const Clause &c, uint64_t a, uint64_t b)
{
    if (!c.everyAttempt && b > 1)
        return false;
    if (c.cell >= 0)
        return static_cast<uint64_t>(c.cell) == a;
    return unitValue(gPlan.seed, c.kind, a, b) < c.prob;
}

} // anonymous namespace

const char *
kindName(Kind k)
{
    switch (k) {
      case Kind::Crash: return "crash";
      case Kind::Hang: return "hang";
      case Kind::Garbage: return "garbage";
      case Kind::Truncate: return "truncate";
      case Kind::CorruptSpill: return "corrupt-spill";
      case Kind::Enospc: return "enospc";
    }
    return "?";
}

Plan
parsePlan(const std::string &spec)
{
    Plan plan;
    driver::KeyTable keys{
        driver::u64Key("seed", plan.seed, "hash seed of every clause")};
    for (Kind kind : {Kind::Crash, Kind::Hang, Kind::Garbage,
                      Kind::Truncate, Kind::CorruptSpill, Kind::Enospc}) {
        keys.push_back({kindName(kind), "", "",
                        [&plan, kind](const std::string &,
                                      const std::string &v) {
                            plan.clauses.push_back(parseClause(kind, v));
                        }});
    }
    try {
        driver::parseKeys(keys, driver::splitList(spec));
    } catch (const std::invalid_argument &e) {
        throw std::invalid_argument(std::string("fault-plan: ") +
                                    e.what());
    }
    return plan;
}

void
installPlan(Plan plan)
{
    gPlan = std::move(plan);
    gActive = !gPlan.empty();
    {
        std::lock_guard<std::mutex> lock(gSpillMu);
        gSpillWrites.clear();
    }
}

void
installFromEnv()
{
    if (const char *spec = std::getenv("STEMS_FAULTS"))
        installPlan(parsePlan(spec));
}

bool
active()
{
    return gActive;
}

const Plan &
currentPlan()
{
    return gPlan;
}

void
setCellContext(uint32_t cellId, uint32_t attempt)
{
    gHaveCell = true;
    gCellId = cellId;
    gAttempt = attempt ? attempt : 1;
}

void
clearCellContext()
{
    gHaveCell = false;
}

const Clause *
cellFault(Kind kind)
{
    if (!gActive || !gHaveCell)
        return nullptr;
    for (const Clause &c : gPlan.clauses) {
        if (c.kind != kind)
            continue;
        if (clauseFires(c, gCellId, gAttempt)) {
            obs::count(&obs::Counters::faultsInjected);
            obs::instant("fault_fired",
                         {{"kind", kindName(kind)},
                          {"cell", std::to_string(gCellId)},
                          {"attempt", std::to_string(gAttempt)}});
            return &c;
        }
    }
    return nullptr;
}

bool
spillFault(Kind kind, const std::string &path)
{
    if (!gActive)
        return false;
    const Clause *match = nullptr;
    for (const Clause &c : gPlan.clauses)
        if (c.kind == kind) {
            match = &c;
            break;
        }
    if (!match)
        return false;
    const std::string base = baseName(path);
    uint64_t nth = 0;
    {
        std::lock_guard<std::mutex> lock(gSpillMu);
        nth = ++gSpillWrites[kindName(kind) + (":" + base)];
    }
    if (unitValue(gPlan.seed, kind, hashBytes(base), nth) >=
        match->prob)
        return false;
    obs::count(&obs::Counters::faultsInjected);
    obs::instant("fault_fired",
                 {{"kind", kindName(kind)}, {"path", base}});
    return true;
}

double
unitValue(uint64_t seed, Kind kind, uint64_t a, uint64_t b)
{
    uint64_t h = mix64(seed + 0x9e3779b97f4a7c15ULL);
    h = mix64(h ^ (static_cast<uint64_t>(kind) + 1));
    h = mix64(h ^ a);
    h = mix64(h ^ b);
    // 53 high bits → [0,1)
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

bool
corruptFileByte(const std::string &path, uint64_t seed, size_t skip)
{
    const int fd = ::open(path.c_str(), O_RDWR);
    if (fd < 0)
        return false;
    const off_t size = ::lseek(fd, 0, SEEK_END);
    if (size <= static_cast<off_t>(skip)) {
        ::close(fd);
        return false;
    }
    const uint64_t span = static_cast<uint64_t>(size) - skip;
    const off_t off = static_cast<off_t>(
        skip + mix64(seed ^ static_cast<uint64_t>(size)) % span);
    unsigned char byte = 0;
    bool ok = ::pread(fd, &byte, 1, off) == 1;
    byte ^= 0xFF;
    ok = ok && ::pwrite(fd, &byte, 1, off) == 1;
    ::close(fd);
    return ok;
}

} // namespace stems::fault
