/**
 * @file
 * key=value option bags shared by the experiment engine — the currency
 * of the CLI, config files, prefetcher factories and sweep axes — and
 * the key tables every command and engine declares its keys in.
 *
 * A Key row is the one place a key's name, default, help line and
 * parser live. The typed row helpers bind a row to the field it sets
 * and take its default from that field. parseKeys() owns the
 * `--key[=v]` sugar, `config=FILE` splicing and the unknown-key error;
 * renderKeys() produces the help text.
 */

#ifndef STEMS_DRIVER_OPTIONS_HH
#define STEMS_DRIVER_OPTIONS_HH

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

namespace stems::driver {

/** Ordered option bag; string values are parsed on use. */
using Options = std::map<std::string, std::string>;

/**
 * Unsigned integer (decimal, 0x hex or 0 octal) in [@p lo, @p hi]; a
 * leading '-' is rejected, not wrapped. Throws std::invalid_argument
 * naming @p key.
 */
uint64_t parseUnsigned(const std::string &key, const std::string &value,
                       uint64_t lo = 0, uint64_t hi = UINT64_MAX);

/** Boolean value: 1/0, true/false, on/off, yes/no. */
bool parseBool(const std::string &key, const std::string &value);

/** Unsigned option with default; throws std::invalid_argument. */
uint64_t optU64(const Options &o, const std::string &key, uint64_t def);

/** Floating-point option with default. */
double optDouble(const Options &o, const std::string &key, double def);

/** String option with default. */
std::string optStr(const Options &o, const std::string &key,
                   const std::string &def);

/** Split "a,b,c" on @p sep, dropping empty fields. */
std::vector<std::string> splitList(const std::string &s, char sep = ',');

/**
 * Split one "key=value" token; throws std::invalid_argument when no
 * '=' is present or the key is empty.
 */
std::pair<std::string, std::string> parseKeyValue(const std::string &tok);

/**
 * One accepted key. A name ending in an UPPER-case placeholder
 * (`opt.OPT`, `pf.LABEL.OPT`) is a family row: it matches every key
 * starting with the part before the placeholder, and its def shows
 * the value syntax instead of a default.
 */
struct Key
{
    std::string name;
    std::string def;   //!< default, as text apply() parses
    std::string help;  //!< one line
    std::function<void(const std::string &key, const std::string &value)>
        apply;         //!< parse and store; throws std::invalid_argument
};

using KeyTable = std::vector<Key>;

/** Unsigned 32-bit key, at least @p lo. */
Key u32Key(std::string name, uint32_t &dst, std::string help,
           uint32_t lo = 0);
/** Unsigned 64-bit key, at least @p lo. */
Key u64Key(std::string name, uint64_t &dst, std::string help,
           uint64_t lo = 0);
Key boolKey(std::string name, bool &dst, std::string help);
/** Free-form text, stored verbatim. */
Key strKey(std::string name, std::string &dst, std::string help);

/** A key naming one of @p values ("KEY=V: expected a|b|c" otherwise). */
template <typename E>
Key
enumKey(std::string name, E &dst,
        std::vector<std::pair<std::string, E>> values, std::string help)
{
    std::string def, want;
    for (const auto &[text, v] : values) {
        def = v == dst && def.empty() ? text : def;
        want += (want.empty() ? "" : "|") + text;
    }
    return {std::move(name), def, help + " (" + want + ")",
            [&dst, values, want](const std::string &k,
                                 const std::string &v) {
                for (const auto &[text, e] : values)
                    if (text == v)
                        return void(dst = e);
                throw std::invalid_argument(k + "=" + v + ": expected " +
                                            want);
            }};
}

/**
 * Rows bound to a fresh default @p T that the rows keep alive: for
 * help text, key lists and value checks that need no result.
 */
template <typename T>
KeyTable
scratchKeys(KeyTable (*keys)(T &))
{
    auto target = std::make_shared<T>();
    KeyTable rows = keys(*target);
    for (auto &row : rows)
        row.apply = [target, f = std::move(row.apply)](
                        const std::string &k, const std::string &v) {
            f(k, v);
        };
    return rows;
}

/** `--key=v` as `key=v` and a bare `--flag` as `flag=1`. */
std::string keyToken(const std::string &arg);

/** The row @p key selects — its name, else a family — or null. */
const Key *findKey(const KeyTable &table, const std::string &key);

/**
 * Apply @p args in order, each through its row (after keyToken());
 * with @p configFiles, `config=FILE` splices FILE's lines in place.
 * Throws "unknown key ... (known: ...)" for a key with no row.
 */
void parseKeys(const KeyTable &table,
               const std::vector<std::string> &args,
               bool configFiles = false, int depth = 0);

/**
 * Apply the entries of @p opts that @p table has a row for, in row
 * order; an engine's bag also carries other engines' keys.
 */
void applyOptions(const KeyTable &table, const Options &opts);

/** Help text: one `name=default  help` line per row. */
std::string renderKeys(const KeyTable &table,
                       const std::string &indent = "  ");

} // namespace stems::driver

#endif // STEMS_DRIVER_OPTIONS_HH
