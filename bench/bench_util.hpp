/**
 * @file
 * Shared scaffolding for the figure/table reproduction benches.
 *
 * Every bench binary prints its paper artifact as an aligned table
 * (the series the paper plots, so results can be compared by eye or
 * scripted from the CSV block), so iterating the bench binaries
 * regenerates the whole evaluation.
 */

#ifndef QUEST_BENCH_UTIL_HPP
#define QUEST_BENCH_UTIL_HPP

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

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

/**
 * Dump the global metrics registry as a BENCH_*.json artifact: the
 * figure benches record their plotted series (and the cycle
 * accounting the run accumulated) as registry entries, so the JSON
 * carries both the paper numbers and the breakdown behind them.
 */
inline void
writeMetricsJson(const std::string &bench, const std::string &path)
{
    std::ofstream os(path);
    if (!os) {
        std::cerr << "cannot write " << path << "\n";
        return;
    }
    os << "{\n  \"bench\": \"" << bench << "\",\n  \"metrics\": ";
    quest::sim::metricsWriteJson(os);
    os << "\n}\n";
    std::cout << "wrote " << path << "\n";
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
