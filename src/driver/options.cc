#include "driver/options.hh"

#include <cctype>
#include <fstream>

namespace stems::driver {

namespace {

const std::string *
find(const Options &o, const std::string &key)
{
    auto it = o.find(key);
    return it == o.end() ? nullptr : &it->second;
}

[[noreturn]] void
badValue(const std::string &key, const std::string &value,
         const std::string &want)
{
    throw std::invalid_argument("option " + key + "=" + value +
                                ": expected " + want);
}

/** A family row's key prefix (the name before its placeholder). */
std::string
familyPrefix(const std::string &name)
{
    for (size_t i = 0; i < name.size(); ++i)
        if (std::isupper(static_cast<unsigned char>(name[i])))
            return name.substr(0, i);
    return {};
}

/** A config file's key=value lines ('#' comments, blanks skipped). */
std::vector<std::string>
readConfigFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        throw std::invalid_argument("cannot read config file: " + path);
    std::vector<std::string> tokens;
    std::string line;
    while (std::getline(in, line)) {
        size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.erase(hash);
        size_t first = line.find_first_not_of(" \t\r");
        if (first == std::string::npos)
            continue;
        size_t last = line.find_last_not_of(" \t\r");
        tokens.push_back(line.substr(first, last - first + 1));
    }
    return tokens;
}

} // anonymous namespace

uint64_t
parseUnsigned(const std::string &key, const std::string &value,
              uint64_t lo, uint64_t hi)
{
    size_t pos = 0;
    uint64_t out = 0;
    try {
        if (value.find('-') == std::string::npos)
            out = std::stoull(value, &pos, 0);
    } catch (const std::out_of_range &) {
        badValue(key, value, "an unsigned integer in range");
    } catch (const std::invalid_argument &) {
    }
    if (pos == 0 || pos != value.size())
        badValue(key, value, "an unsigned integer");
    if (out < lo || out > hi)
        badValue(key, value,
                 "an integer in [" + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
    return out;
}

bool
parseBool(const std::string &key, const std::string &value)
{
    if (value == "1" || value == "true" || value == "on" || value == "yes")
        return true;
    if (value == "0" || value == "false" || value == "off" || value == "no")
        return false;
    badValue(key, value, "a boolean (1/0, true/false, on/off)");
}

uint64_t
optU64(const Options &o, const std::string &key, uint64_t def)
{
    const std::string *v = find(o, key);
    return v ? parseUnsigned(key, *v) : def;
}

double
optDouble(const Options &o, const std::string &key, double def)
{
    const std::string *v = find(o, key);
    if (!v)
        return def;
    try {
        size_t pos = 0;
        double out = std::stod(*v, &pos);
        if (pos != v->size())
            badValue(key, *v, "a number");
        return out;
    } catch (const std::invalid_argument &) {
        badValue(key, *v, "a number");
    } catch (const std::out_of_range &) {
        badValue(key, *v, "a number in range");
    }
}

std::string
optStr(const Options &o, const std::string &key, const std::string &def)
{
    const std::string *v = find(o, key);
    return v ? *v : def;
}

std::vector<std::string>
splitList(const std::string &s, char sep)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= s.size()) {
        size_t end = s.find(sep, start);
        if (end == std::string::npos)
            end = s.size();
        if (end > start)
            out.push_back(s.substr(start, end - start));
        start = end + 1;
    }
    return out;
}

std::pair<std::string, std::string>
parseKeyValue(const std::string &tok)
{
    size_t eq = tok.find('=');
    if (eq == std::string::npos || eq == 0)
        throw std::invalid_argument("expected key=value, got \"" + tok +
                                    "\"");
    return {tok.substr(0, eq), tok.substr(eq + 1)};
}

// ---------------------------------------------------------------------
// key tables
// ---------------------------------------------------------------------

Key
u32Key(std::string name, uint32_t &dst, std::string help, uint32_t lo)
{
    return {std::move(name), std::to_string(dst), std::move(help),
            [&dst, lo](const std::string &k, const std::string &v) {
                dst = static_cast<uint32_t>(
                    parseUnsigned(k, v, lo, UINT32_MAX));
            }};
}

Key
u64Key(std::string name, uint64_t &dst, std::string help, uint64_t lo)
{
    return {std::move(name), std::to_string(dst), std::move(help),
            [&dst, lo](const std::string &k, const std::string &v) {
                dst = parseUnsigned(k, v, lo);
            }};
}

Key
boolKey(std::string name, bool &dst, std::string help)
{
    return {std::move(name), dst ? "1" : "0", std::move(help),
            [&dst](const std::string &k, const std::string &v) {
                dst = parseBool(k, v);
            }};
}

Key
strKey(std::string name, std::string &dst, std::string help)
{
    return {std::move(name), dst, std::move(help),
            [&dst](const std::string &, const std::string &v) { dst = v; }};
}

std::string
keyToken(const std::string &arg)
{
    if (arg.rfind("--", 0) != 0)
        return arg;
    return arg.find('=') != std::string::npos ? arg.substr(2)
                                              : arg.substr(2) + "=1";
}

const Key *
findKey(const KeyTable &table, const std::string &key)
{
    const Key *family = nullptr;
    for (const auto &row : table) {
        if (row.name == key)
            return &row;
        const std::string prefix = familyPrefix(row.name);
        if (!family && !prefix.empty() && key.size() > prefix.size() &&
            key.rfind(prefix, 0) == 0)
            family = &row;
    }
    return family;
}

void
parseKeys(const KeyTable &table, const std::vector<std::string> &args,
          bool configFiles, int depth)
{
    if (depth > 8)
        throw std::invalid_argument("config files nested too deeply");
    for (const auto &arg : args) {
        const auto [key, value] = parseKeyValue(keyToken(arg));
        const Key *row = findKey(table, key);
        if (configFiles && key == "config") {
            parseKeys(table, readConfigFile(value), true, depth + 1);
        } else if (row) {
            row->apply(key, value);
        } else {
            std::string known;
            for (const auto &r : table)
                known += (known.empty() ? "" : ", ") + r.name;
            throw std::invalid_argument("unknown key \"" + key +
                                        "\" (known: " + known + ")");
        }
    }
}

void
applyOptions(const KeyTable &table, const Options &opts)
{
    for (const auto &row : table)
        if (const std::string *v = find(opts, row.name))
            row.apply(row.name, *v);
}

std::string
renderKeys(const KeyTable &table, const std::string &indent)
{
    std::string out;
    for (const auto &row : table) {
        const std::string lhs = row.name + "=" + row.def;
        out += indent + lhs +
            std::string(lhs.size() < 26 ? 28 - lhs.size() : 2, ' ') +
            row.help + "\n";
    }
    return out;
}

} // namespace stems::driver
