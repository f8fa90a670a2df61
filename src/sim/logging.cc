#include "logging.hh"

#include <atomic>
#include <cstdlib>
#include <mutex>
#include <set>
#include <sstream>

namespace slf
{

namespace
{

std::set<std::string> &
flagSet()
{
    static std::set<std::string> flags = [] {
        const char *env = std::getenv("SLFWD_DEBUG");
        auto parsed = Debug::parseFlagList(env ? env : "");
        detail::debug_flag_census.store(parsed.size(),
                                        std::memory_order_relaxed);
        // Release-publish the census before announcing the parse, so
        // the inline anyEnabled() fast path never reads a stale zero.
        detail::debug_env_parsed.store(true, std::memory_order_release);
        return parsed;
    }();
    return flags;
}

/** Cycle counter of the active core (null when no core is running). */
const std::uint64_t *&
cycleSource()
{
    static const std::uint64_t *src = nullptr;
    return src;
}

std::mutex &
flagMutex()
{
    static std::mutex m;
    return m;
}

} // namespace

void
panic(const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n", msg.c_str());
    std::abort();
}

void
fatal(const std::string &msg)
{
    throw FatalError(msg);
}

void
warn(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
inform(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
}

bool
Debug::enabled(const std::string &flag)
{
    std::lock_guard<std::mutex> lock(flagMutex());
    const auto &flags = flagSet();
    return flags.count(flag) != 0 || flags.count("All") != 0;
}

bool
Debug::anyEnabledSlow()
{
    // First call: force the SLFWD_DEBUG environment parse (under the
    // mutex), which publishes debug_env_parsed; every later call takes
    // the inline two-load fast path in the header.
    std::lock_guard<std::mutex> lock(flagMutex());
    flagSet();
    return detail::debug_flag_census.load(std::memory_order_relaxed) != 0;
}

void
Debug::setFlag(const std::string &flag, bool on)
{
    std::lock_guard<std::mutex> lock(flagMutex());
    if (on)
        flagSet().insert(flag);
    else
        flagSet().erase(flag);
    detail::debug_flag_census.store(flagSet().size(),
                                    std::memory_order_relaxed);
}

void
Debug::trace(const std::string &flag, const std::string &msg)
{
    std::lock_guard<std::mutex> lock(flagMutex());
    if (const std::uint64_t *cycle = cycleSource()) {
        std::fprintf(stderr, "%8llu: [%s] %s\n",
                     static_cast<unsigned long long>(*cycle), flag.c_str(),
                     msg.c_str());
    } else {
        std::fprintf(stderr, "[%s] %s\n", flag.c_str(), msg.c_str());
    }
}

std::set<std::string>
Debug::parseFlagList(const std::string &list)
{
    std::set<std::string> flags;
    std::stringstream ss(list);
    std::string item;
    while (std::getline(ss, item, ','))
        if (!item.empty())
            flags.insert(item);
    return flags;
}

void
Debug::setCycleSource(const std::uint64_t *cycle)
{
    std::lock_guard<std::mutex> lock(flagMutex());
    cycleSource() = cycle;
}

void
Debug::clearCycleSource(const std::uint64_t *cycle)
{
    std::lock_guard<std::mutex> lock(flagMutex());
    if (cycleSource() == cycle)
        cycleSource() = nullptr;
}

} // namespace slf
