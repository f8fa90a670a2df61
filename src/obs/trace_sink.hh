/**
 * @file
 * TraceSink: a per-run binary ring buffer of typed TraceEvents.
 *
 * The sink is attached to a run through CoreConfig::obs.trace; when it
 * is null and no debug flag is enabled, SLF_OBS_EMIT costs one pointer
 * compare and one relaxed atomic load. Compiling with
 * -DSLFWD_OBS_EVENTS_OFF (CMake option SLFWD_OBS_EVENTS=OFF) removes
 * the emission sites entirely — the zero-overhead configuration the
 * perf smoke pins the tracing-enabled build against.
 *
 * The ring keeps the newest `capacity` events (default 1 Mi, 48 MiB);
 * older events are overwritten and counted in dropped(). Sizing note:
 * a 4-wide core generates roughly 3-6 events per cycle with tracing
 * on, so the default ring holds the last ~200-300k cycles of history.
 *
 * emitEvent() also feeds the legacy Debug::trace text path: when the
 * event's flag (e.g. "MDTViol" for MDT violations) is enabled, the
 * event is formatted into a Debug::trace line, so log-based
 * workflows and tests keep working unchanged.
 */

#ifndef SLFWD_OBS_TRACE_SINK_HH_
#define SLFWD_OBS_TRACE_SINK_HH_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "obs/event.hh"
#include "sim/logging.hh"

namespace slf::obs
{

class TraceSink
{
  public:
    static constexpr std::size_t kDefaultCapacity = std::size_t{1} << 20;

    explicit TraceSink(std::size_t capacity = kDefaultCapacity);

    /** Called once per core tick; stamps subsequent events. */
    void beginCycle(Cycle cycle) { cycle_ = cycle; }
    Cycle cycle() const { return cycle_; }

    /** Append one event (overwrites the oldest when full). */
    void record(EventKind kind, Track track, SeqNum seq, std::uint64_t pc,
                Addr addr, std::uint64_t arg, std::uint8_t detail);

    /** Events currently held, oldest first. */
    std::vector<TraceEvent> events() const;

    std::size_t size() const;
    std::size_t capacity() const { return capacity_; }
    /** Total events ever recorded (recorded() - size() were dropped). */
    std::uint64_t recorded() const { return recorded_; }
    std::uint64_t dropped() const
    {
        return recorded_ > capacity_ ? recorded_ - capacity_ : 0;
    }

    void clear();

  private:
    std::size_t capacity_;
    std::vector<TraceEvent> ring_;
    std::uint64_t recorded_ = 0;
    Cycle cycle_ = 0;
};

namespace detail
{
/** Slow path: record into the sink and/or format for Debug::trace. */
void emitEventSlow(TraceSink *sink, EventKind kind, Track track, SeqNum seq,
                   std::uint64_t pc, Addr addr, std::uint64_t arg,
                   std::uint8_t detail);
} // namespace detail

/** Debug flag carrying an event kind on the legacy text-trace path. */
const char *eventFlagName(EventKind kind, std::uint8_t detail);

/** One-line text rendering (the text-timeline / Debug::trace body). */
std::string formatEventText(const TraceEvent &ev);

inline void
emitEvent(TraceSink *sink, EventKind kind, Track track, SeqNum seq,
          std::uint64_t pc, Addr addr, std::uint64_t arg,
          std::uint8_t detail)
{
    if (sink == nullptr && !Debug::anyEnabled())
        return;
    detail::emitEventSlow(sink, kind, track, seq, pc, addr, arg, detail);
}

} // namespace slf::obs

/**
 * Event-emission macro: compiled out entirely (arguments unevaluated)
 * when the build disables SLFWD_OBS_EVENTS.
 */
#ifndef SLFWD_OBS_EVENTS_OFF
#define SLF_OBS_EMIT(sink, kind, track, seq, pc, addr, arg, detail)     \
    ::slf::obs::emitEvent((sink), (kind), (track), (seq), (pc), (addr), \
                          (arg), static_cast<std::uint8_t>(detail))
#else
#define SLF_OBS_EMIT(sink, kind, track, seq, pc, addr, arg, detail)     \
    do {                                                                \
    } while (0)
#endif

#endif // SLFWD_OBS_TRACE_SINK_HH_
