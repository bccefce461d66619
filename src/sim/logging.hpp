/**
 * @file
 * Simulation status and error reporting.
 *
 * Follows the gem5 convention:
 *  - panic(): an internal invariant was violated (a simulator bug);
 *    aborts so a debugger or core dump can capture the state.
 *  - fatal(): the simulation cannot continue because of a user error
 *    (bad configuration, invalid arguments); exits cleanly.
 *  - warn()/inform(): status messages that never stop the simulation.
 *
 * All functions accept printf-style format strings.
 */

#ifndef QUEST_SIM_LOGGING_HPP
#define QUEST_SIM_LOGGING_HPP

#include <cstdarg>
#include <stdexcept>
#include <string>

namespace quest::sim {

/** Thrown by panic()/fatal() so tests can observe failures. */
class SimError : public std::runtime_error
{
  public:
    enum class Kind { Panic, Fatal };

    SimError(Kind kind, std::string message)
        : std::runtime_error(std::move(message)), _kind(kind)
    {}

    Kind kind() const { return _kind; }

  private:
    Kind _kind;
};

/**
 * Report an internal simulator bug and raise SimError(Panic).
 *
 * We throw rather than abort() so that unit tests can assert that
 * invalid internal states are detected; an uncaught SimError still
 * terminates the process with a diagnostic.
 */
[[noreturn]] void panic(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/**
 * Raise SimError(Fatal) for an unrecoverable user/configuration
 * error. Unlike panic() it prints nothing itself: the catcher
 * reports the message, so it appears once.
 */
[[noreturn]] void fatal(const char *fmt, ...)
    __attribute__((format(printf, 1, 2)));

/** Report suspicious-but-survivable behaviour to stderr. */
void warn(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Report normal operating status to stderr. */
void inform(const char *fmt, ...) __attribute__((format(printf, 1, 2)));

/** Suppress warn()/inform() output (used by tests and benches). */
void setQuiet(bool quiet);

/** @return true when warn()/inform() output is suppressed. */
bool quiet();

/** Implementation detail of QUEST_ASSERT. */
[[noreturn]] void panicAssert(const char *cond, const char *fmt, ...)
    __attribute__((format(printf, 2, 3)));

/**
 * panic() unless the given condition holds. The variadic message is
 * only formatted on failure.
 */
#define QUEST_ASSERT(cond, ...)                                             \
    do {                                                                    \
        if (!(cond))                                                        \
            ::quest::sim::panicAssert(#cond, __VA_ARGS__);                  \
    } while (0)

/**
 * Debug-only assert for hot-path index checks: compiles to nothing
 * in optimised (NDEBUG) builds so inner loops carry no bounds
 * checks, but still panics with full context in Debug/coverage
 * builds. Define QUEST_FORCE_DEBUG_ASSERTS to keep the checks in an
 * optimised build while chasing a corruption.
 */
#if !defined(NDEBUG) || defined(QUEST_FORCE_DEBUG_ASSERTS)
#define QUEST_DEBUG_ASSERT(cond, ...) QUEST_ASSERT(cond, __VA_ARGS__)
#else
#define QUEST_DEBUG_ASSERT(cond, ...)                                       \
    do {                                                                    \
    } while (0)
#endif

} // namespace quest::sim

#endif // QUEST_SIM_LOGGING_HPP
