/**
 * @file
 * Shared scaffolding for the figure/table reproduction benches.
 *
 * Every bench binary prints its paper artifact as an aligned table
 * (the series the paper plots, so results can be compared by eye or
 * scripted from the CSV block), so iterating the bench binaries
 * regenerates the whole evaluation. The gate benches, which take
 * flags, share one strict flag parser and the rep calibration of
 * their timed windows.
 */

#ifndef QUEST_BENCH_UTIL_HPP
#define QUEST_BENCH_UTIL_HPP

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/logging.hpp"
#include "sim/metrics.hpp"
#include "sim/table.hpp"

namespace quest::bench {

/** Print the table in both human and CSV form. */
inline void
emit(const sim::Table &table)
{
    table.print(std::cout);
    std::cout << "--- CSV ---\n";
    table.printCsv(std::cout);
    std::cout << std::endl;
}

/** JSON text that jsonObject() copies as is. */
struct Json
{
    std::string text;
};

/** Stream `"key": value, ...` from alternating keys and values. */
template <typename T, typename... Rest>
void
writeJsonFields(std::ostream &os, const std::string &sep,
                const char *key, const T &value, const Rest &...rest)
{
    os << '"' << key << "\": ";
    if constexpr (std::is_same_v<T, Json>) {
        os << value.text;
    } else if constexpr (std::is_same_v<T, std::vector<Json>>) {
        // A BENCH_*.json array: one row per line at two spaces.
        os << "[\n";
        for (std::size_t i = 0; i < value.size(); ++i)
            os << "  " << value[i].text
               << (i + 1 < value.size() ? ",\n" : "\n");
        os << "  ]";
    } else if constexpr (std::is_convertible_v<const T &, std::string>) {
        os << '"' << value << '"';
    } else {
        os << std::boolalpha << value;
    }
    if constexpr (sizeof...(Rest) > 0)
        writeJsonFields(os << sep, sep, rest...);
}

/**
 * A JSON object from alternating keys and values, in the BENCH_*.json
 * layout: on one line when `indent` is 0, else one field per line at
 * `indent` spaces with the closing brace two spaces out. Numbers and
 * bools print as `os <<` prints them, strings quoted, Json as is, and
 * a vector of Json rows as an array.
 */
template <typename... KV>
Json
jsonObject(std::size_t indent, const KV &...kv)
{
    const std::string pad(indent, ' ');
    std::ostringstream os;
    os << (indent ? "{\n" : "{") << pad;
    writeJsonFields(os, indent ? ",\n" + pad : ", ", kv...);
    if (indent)
        os << '\n' << pad.substr(2);
    os << '}';
    return { os.str() };
}

/** The global metrics registry as JSON. */
inline Json
metricsJson()
{
    std::ostringstream os;
    quest::sim::metricsWriteJson(os);
    return { os.str() };
}

/** Write `doc` as a BENCH_*.json file and say where it went. */
inline void
writeJsonFile(const std::string &path, const Json &doc)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    os << doc.text << "\n";
    std::cout << "wrote " << path << "\n";
}

/**
 * Dump the global metrics registry as a BENCH_*.json artifact: the
 * figure benches record their plotted series (and the cycle
 * accounting the run accumulated) as registry entries, so the JSON
 * carries both the paper numbers and the breakdown behind them.
 */
inline void
writeMetricsJson(const std::string &bench, const std::string &path)
{
    writeJsonFile(path,
                  jsonObject(2, "bench", bench, "metrics", metricsJson()));
}

/**
 * Strict parser for a gate bench's `--switch` and `--flag=value`
 * arguments. A malformed or out-of-range value, a value on a switch,
 * or a flag no accessor asks about prints `error: --flag ...` and the
 * usage line, then exits 1, like the quest CLI: bad input never
 * reaches the bench as a wrapped or default value.
 */
class Flags
{
  public:
    Flags(int argc, char **argv, std::string usage)
        : _usage(std::move(usage))
    {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            if (arg.rfind("--", 0) != 0)
                fail("unexpected argument '" + arg + "'");
            const auto eq = arg.find('=');
            if (eq == std::string::npos)
                _args[arg] = Arg{};
            else
                _args[arg.substr(0, eq)] = Arg{ true, arg.substr(eq + 1) };
        }
    }

    /** Was the switch `flag` given? */
    bool
    has(const std::string &flag)
    {
        const Arg *arg = find(flag);
        if (arg != nullptr && arg->hasValue)
            fail(flag + " takes no value");
        return arg != nullptr;
    }

    /** The text of `flag`, or `fallback` when absent. */
    std::string
    text(const std::string &flag, const std::string &fallback)
    {
        const Arg *arg = value(flag);
        return arg != nullptr ? arg->value : fallback;
    }

    /** An integer in [lo, hi], or `fallback` when absent. */
    std::uint64_t
    count(const std::string &flag, std::uint64_t fallback,
          std::uint64_t lo, std::uint64_t hi)
    {
        const Arg *arg = value(flag);
        if (arg == nullptr)
            return fallback;
        const char *first = arg->value.data();
        const char *last = first + arg->value.size();
        std::uint64_t v = 0;
        const auto [end, ec] = std::from_chars(first, last, v);
        if (ec != std::errc() || end != last || v < lo || v > hi)
            fail(flag + " expects an integer in [" + std::to_string(lo)
                 + ", " + std::to_string(hi) + "], got '" + arg->value
                 + "'");
        return v;
    }

    /** A finite number in [lo, hi], or `fallback` when absent. */
    double
    number(const std::string &flag, double fallback, double lo,
           double hi)
    {
        const Arg *arg = value(flag);
        if (arg == nullptr)
            return fallback;
        const char *first = arg->value.c_str();
        char *end = nullptr;
        const double v = std::strtod(first, &end);
        if (end == first || *end != '\0' || !std::isfinite(v) || v < lo
            || v > hi)
            fail(flag + " expects a number in [" + fmt(lo) + ", "
                 + fmt(hi) + "], got '" + arg->value + "'");
        return v;
    }

    /** Exit 1 if a flag was given that no accessor asked about. */
    void
    done() const
    {
        for (const auto &[flag, arg] : _args)
            if (!_asked.contains(flag))
                fail(flag + " is not a known flag");
    }

  private:
    struct Arg
    {
        bool hasValue = false;
        std::string value;
    };

    std::string _usage;
    std::map<std::string, Arg> _args;
    std::set<std::string> _asked;

    const Arg *
    find(const std::string &flag)
    {
        _asked.insert(flag);
        const auto it = _args.find(flag);
        return it == _args.end() ? nullptr : &it->second;
    }

    const Arg *
    value(const std::string &flag)
    {
        const Arg *arg = find(flag);
        if (arg != nullptr && !arg->hasValue)
            fail(flag + " expects " + flag + "=VALUE");
        return arg;
    }

    static std::string
    fmt(double v)
    {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%g", v);
        return buf;
    }

    [[noreturn]] void
    fail(const std::string &msg) const
    {
        std::fprintf(stderr, "error: %s\nusage: %s\n", msg.c_str(),
                     _usage.c_str());
        std::exit(1);
    }
};

/**
 * Pick the rep count that stretches a timed window past
 * `min_window_s`, from a warm probe pass that took `probe_wall_s`
 * (medianProbeSeconds). The window sets it; the cap only stops a
 * probe too short to time from asking for an unbounded run.
 */
inline std::uint64_t
calibrateReps(double probe_wall_s, double min_window_s)
{
    constexpr double max_reps = double(std::uint64_t(1) << 24);
    if (probe_wall_s <= 0.0)
        return std::uint64_t(max_reps);
    const double want = min_window_s / probe_wall_s;
    if (want <= 1.0)
        return 1;
    return std::uint64_t(std::min(max_reps, want + 1.0));
}

/** Warm probe passes behind one rep count (odd: one median). */
inline constexpr std::size_t calibrationProbes = 5;

/**
 * The median wall time of calibrationProbes calls of `probe`, each
 * one warm pass returning its wall seconds. A single pass lasts
 * microseconds for a fast decoder, and a preemption or a clock ramp
 * can double it; the median keeps one such pass from setting the
 * rep count.
 */
template <typename Probe>
double
medianProbeSeconds(Probe &&probe)
{
    std::array<double, calibrationProbes> walls;
    for (double &wall : walls)
        wall = probe();
    auto mid = walls.begin() + calibrationProbes / 2;
    std::nth_element(walls.begin(), mid, walls.end());
    return *mid;
}

} // namespace quest::bench

/** Standard bench main: quiet logging, then print the figure. */
#define QUEST_BENCH_MAIN(print_figure)                                      \
    int main()                                                              \
    {                                                                       \
        quest::sim::setQuiet(true);                                         \
        print_figure();                                                     \
        return 0;                                                           \
    }

#endif // QUEST_BENCH_UTIL_HPP
