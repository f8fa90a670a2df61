/**
 * @file
 * Error/status reporting helpers in the gem5 idiom: panic() for simulator
 * bugs (aborts), fatal() for user errors (throws), warn()/inform() for
 * status, plus compile-time-cheap debug tracing gated by named flags.
 */

#ifndef SLFWD_SIM_LOGGING_HH_
#define SLFWD_SIM_LOGGING_HH_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <stdexcept>
#include <string>

namespace slf
{

namespace detail
{
/** Census of enabled debug flags, mirrored from the flag set under its
 *  mutex. Inline so Debug::anyEnabled() compiles to two loads at every
 *  per-instruction event site instead of a cross-TU call. */
inline std::atomic<std::size_t> debug_flag_census{0};
/** Set (with release order) once SLFWD_DEBUG has been parsed. */
inline std::atomic<bool> debug_env_parsed{false};
} // namespace detail

/** Thrown by fatal(): a user-caused, cleanly reportable error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/**
 * Thrown when a run blows its host wall-clock deadline
 * (CoreConfig::deadline_ms). A FatalError subtype so existing recovery
 * paths (campaign retry, CLI reporting) keep working, but catchable
 * separately where a timeout must be told apart from a wedge/config
 * error (JobStatus::Timeout vs Fatal).
 */
class JobTimeout : public FatalError
{
  public:
    using FatalError::FatalError;
};

/**
 * Report an internal simulator bug and abort. Never returns.
 */
[[noreturn]] void panic(const std::string &msg);

/**
 * Report an unrecoverable user error (bad config, bad workload).
 * Throws FatalError so callers (tests) can observe it.
 */
[[noreturn]] void fatal(const std::string &msg);

/** Non-fatal warning to stderr. */
void warn(const std::string &msg);

/** Informational message to stderr. */
void inform(const std::string &msg);

/**
 * Debug trace control. Flags are free-form strings ("Fetch", "MDT", ...);
 * enable them programmatically or via the SLFWD_DEBUG environment
 * variable (comma-separated list, read once at startup).
 */
class Debug
{
  public:
    /** @return true if tracing for @p flag is enabled. */
    static bool enabled(const std::string &flag);

    /**
     * @return true if any flag at all is enabled. Fully inline on the
     * common path — one acquire load (was the environment parsed?) and
     * one relaxed load of the flag census — cheap enough to guard
     * per-instruction event sites before the string-keyed enabled()
     * lookup. The first call falls through to the parsing slow path.
     */
    static bool
    anyEnabled()
    {
        if (!detail::debug_env_parsed.load(std::memory_order_acquire))
            return anyEnabledSlow();
        return detail::debug_flag_census.load(
                   std::memory_order_relaxed) != 0;
    }

    /** Enable/disable a flag at runtime. */
    static void setFlag(const std::string &flag, bool on);

    /** Emit a trace line if the flag is enabled. */
    static void trace(const std::string &flag, const std::string &msg);

    /**
     * Parse a comma-separated flag list (the SLFWD_DEBUG format).
     * Empty items and duplicates are dropped.
     */
    static std::set<std::string> parseFlagList(const std::string &list);

    /**
     * Register the active core's cycle counter so trace lines carry the
     * current cycle. Pass the counter's address; clearCycleSource() is a
     * no-op unless called with the same address (so a stale core cannot
     * unregister its successor).
     */
    static void setCycleSource(const std::uint64_t *cycle);
    static void clearCycleSource(const std::uint64_t *cycle);

  private:
    /** Parse SLFWD_DEBUG (under the flag mutex), then answer. */
    static bool anyEnabledSlow();
};

} // namespace slf

/** Trace macro: evaluates the message only when the flag is on. */
#define SLF_DPRINTF(flag, ...)                                          \
    do {                                                                \
        if (::slf::Debug::enabled(flag)) {                              \
            char slf_dprintf_buf_[512];                                 \
            std::snprintf(slf_dprintf_buf_, sizeof(slf_dprintf_buf_),   \
                          __VA_ARGS__);                                 \
            ::slf::Debug::trace(flag, slf_dprintf_buf_);                \
        }                                                               \
    } while (0)

#endif // SLFWD_SIM_LOGGING_HH_
