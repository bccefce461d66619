/**
 * @file
 * Strict positional arguments for the examples: a malformed or
 * out-of-range argument, or one too many, prints `error: ...` and
 * exits 1 instead of running on a garbage value.
 */

#ifndef QUEST_EXAMPLES_EXAMPLE_ARGS_HPP
#define QUEST_EXAMPLES_EXAMPLE_ARGS_HPP

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace quest::examples {

/** Exit 1 unless at most `max_args` arguments were given. */
inline void
checkArgCount(int argc, char **argv, int max_args, const char *usage)
{
    if (argc <= max_args + 1)
        return;
    std::fprintf(stderr, "error: unexpected argument '%s'\nusage: %s\n",
                 argv[max_args + 1], usage);
    std::exit(1);
}

/**
 * argv[i] as a number in [lo, hi], a whole one unless `fraction`;
 * `fallback` when absent.
 */
inline double
numberArg(int argc, char **argv, int i, const char *name,
          double fallback, double lo, double hi, bool fraction = false)
{
    if (i >= argc)
        return fallback;
    char *end = nullptr;
    const double v = std::strtod(argv[i], &end);
    if (end == argv[i] || *end != '\0' || !(v >= lo && v <= hi)
        || (!fraction && v != std::floor(v))) {
        std::fprintf(stderr, "error: %s expects %s in [%g, %g], got '%s'\n",
                     name, fraction ? "a number" : "an integer", lo, hi,
                     argv[i]);
        std::exit(1);
    }
    return v;
}

} // namespace quest::examples

#endif // QUEST_EXAMPLES_EXAMPLE_ARGS_HPP
