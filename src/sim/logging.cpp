#include "logging.hpp"

#include <atomic>
#include <cstdio>

namespace quest::sim {

namespace {

// Atomic: worker threads of the parallel Monte-Carlo engine may
// call warn()/inform() while the main thread owns the flag.
std::atomic<bool> quiet_flag{false};

std::string
vformat(const char *fmt, va_list args)
{
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args_copy);
    va_end(args_copy);
    if (len < 0)
        return "<format error>";
    std::string out(static_cast<std::size_t>(len), '\0');
    std::vsnprintf(out.data(), out.size() + 1, fmt, args);
    return out;
}

} // namespace

void
panic(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    throw SimError(SimError::Kind::Panic, msg);
}

void
fatal(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    throw SimError(SimError::Kind::Fatal, msg);
}

void
panicAssert(const char *cond, const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::string full = "assertion '" + std::string(cond) + "' failed: "
        + msg;
    std::fprintf(stderr, "panic: %s\n", full.c_str());
    throw SimError(SimError::Kind::Panic, full);
}

void
warn(const char *fmt, ...)
{
    if (quiet_flag)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const char *fmt, ...)
{
    if (quiet_flag)
        return;
    va_list args;
    va_start(args, fmt);
    std::string msg = vformat(fmt, args);
    va_end(args);
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

void
setQuiet(bool quiet)
{
    quiet_flag = quiet;
}

bool
quiet()
{
    return quiet_flag;
}

} // namespace quest::sim
