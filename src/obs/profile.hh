/**
 * @file
 * Host-time profiling of the simulator's own hot loops.
 *
 * A HostProfiler accumulates wall-clock nanoseconds and call counts per
 * ProfSection. Two probes exist:
 *
 *  - StageFrame: the batched per-cycle probe. One timestamp is read at
 *    frame construction and one per mark() — each boundary read both
 *    ends the previous section and starts the next, so timing all five
 *    pipeline stages costs six clock reads instead of ten. Frames are
 *    additionally *sampled*: only every kFrameStride-th frame reads the
 *    clock at all, and unsampled frames record nothing, so ns/call
 *    averages stay honest while the amortized cost drops to under one
 *    clock read per simulated cycle. Section totals are therefore
 *    ~1/kFrameStride of wall time; consumers compare sections against
 *    each other, which sampling preserves.
 *  - ScopedTimer: the RAII probe for sections that don't sit on a
 *    stage boundary (the memory-unit probe inside issue). Inside a
 *    frame it follows the frame's sampling, and its time is taken out
 *    of the stage section that encloses it, so sections are exclusive:
 *    over the sampled frames they sum exactly to frameNs(), the time
 *    from each frame's first clock read to its last mark. Outside any
 *    frame it times every call.
 *
 * Timestamps come from the TSC on x86-64 (a dozen cycles per read,
 * versus ~20 ns for a steady_clock vDSO call) and fall back to
 * std::chrono elsewhere; ticks are converted to nanoseconds with a
 * once-per-process calibration against steady_clock, so the exported
 * numbers stay in ns either way. With no profiler attached
 * (ObsHooks::profiler == nullptr) a probe is a predictable branch and
 * no clock reads, so the hooks can stay in release builds. Results
 * surface through toString()/toJson() so BENCH_*.json files can track
 * simulator throughput per PR.
 */

#ifndef SLFWD_OBS_PROFILE_HH_
#define SLFWD_OBS_PROFILE_HH_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#define SLFWD_PROF_TSC 1
#endif

namespace slf::obs
{

#define SLF_PROF_SECTION_LIST(X)                                        \
    X(Fetch, "fetch")                                                   \
    X(Dispatch, "dispatch")                                             \
    X(SchedWakeup, "sched_wakeup")                                      \
    X(MemProbe, "mem_probe")                                            \
    X(Complete, "complete")                                             \
    X(Retire, "retire")

#define SLF_PROF_ENUM_MEMBER(sym, str) sym,
enum class ProfSection : unsigned
{
    SLF_PROF_SECTION_LIST(SLF_PROF_ENUM_MEMBER) kCount
};
#undef SLF_PROF_ENUM_MEMBER

inline constexpr std::size_t kProfSectionCount =
    static_cast<std::size_t>(ProfSection::kCount);

const char *profSectionName(ProfSection s);

class HostProfiler
{
  public:
    struct Section
    {
        std::uint64_t ns = 0;
        std::uint64_t calls = 0;
    };

    void
    add(ProfSection s, std::uint64_t ns)
    {
        Section &sec = sections_[static_cast<std::size_t>(s)];
        sec.ns += ns;
        ++sec.calls;
    }

    const Section &
    section(ProfSection s) const
    {
        return sections_[static_cast<std::size_t>(s)];
    }

    void mergeFrom(const HostProfiler &other);

    /** Sampled frames, and their summed ns (the sections' total). */
    std::uint64_t frames() const { return frames_; }
    std::uint64_t frameNs() const { return frame_ns_; }

    /** "section  calls  total_ms  ns/call" table. */
    std::string toString() const;
    /** {"fetch":{"ns":...,"calls":...},...} for BENCH_*.json files. */
    std::string toJson() const;

    /** Raw timestamp in profiler ticks (TSC on x86-64, ns elsewhere). */
    static std::uint64_t
    nowTicks()
    {
#ifdef SLFWD_PROF_TSC
        return __rdtsc();
#else
        return static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::nanoseconds>(
                std::chrono::steady_clock::now().time_since_epoch())
                .count());
#endif
    }

    /** Nanoseconds per tick (1.0 without a TSC); calibrated once. */
    static double nsPerTick();

    /** StageFrame sampling stride: 1-in-N frames read the clock. */
    static constexpr std::uint32_t kFrameStride = 8;

    // --- frame bookkeeping, driven by StageFrame and ScopedTimer ------

    /** Open a frame; true (and the clock started) when it is sampled. */
    bool
    openFrame()
    {
        in_frame_ = true;
        sampled_ = frame_count_++ % kFrameStride == 0;
        if (sampled_) {
            ns_per_tick_ = nsPerTick();
            frame_start_ = nowTicks();
            marked_ns_ = 0;
            nested_ns_ = 0;
        }
        return sampled_;
    }

    /** Sampled frame: charge the time since the last boundary, less
     *  what nested timers took, to @p s. */
    void
    markFrame(ProfSection s)
    {
        const std::uint64_t now = frameElapsedNs();
        add(s, now - marked_ns_ - nested_ns_);
        marked_ns_ = now;
        nested_ns_ = 0;
    }

    void
    closeFrame()
    {
        if (sampled_) {
            frame_ns_ += marked_ns_;
            ++frames_;
        }
        in_frame_ = sampled_ = false;
    }

    bool inFrame() const { return in_frame_; }
    bool frameSampled() const { return sampled_; }

    /** ns since the sampled frame's first clock read. Every reading in
     *  a frame converts from that one origin, so intervals never lose
     *  a rounding step and nested ones never exceed their enclosure. */
    std::uint64_t
    frameElapsedNs() const
    {
        return static_cast<std::uint64_t>(
            double(nowTicks() - frame_start_) * ns_per_tick_);
    }

    /** A nested timer inside the current sampled frame took @p ns. */
    void
    addNested(ProfSection s, std::uint64_t ns)
    {
        add(s, ns);
        nested_ns_ += ns;
    }

  private:
    std::array<Section, kProfSectionCount> sections_{};
    std::uint32_t frame_count_ = 0;
    std::uint64_t frames_ = 0;
    std::uint64_t frame_ns_ = 0;
    bool in_frame_ = false;
    bool sampled_ = false;
    double ns_per_tick_ = 1.0;
    std::uint64_t frame_start_ = 0;
    std::uint64_t marked_ns_ = 0;
    std::uint64_t nested_ns_ = 0;
};

/**
 * Chained per-cycle probe: mark(s) attributes the time since the
 * previous boundary (frame construction or the last mark) to @p s.
 * One clock read per boundary instead of two per section.
 */
class StageFrame
{
  public:
    explicit StageFrame(HostProfiler *profiler)
        : profiler_(profiler), sampled_(profiler && profiler->openFrame())
    {}

    ~StageFrame()
    {
        if (profiler_)
            profiler_->closeFrame();
    }

    void
    mark(ProfSection s)
    {
        if (sampled_)
            profiler_->markFrame(s);
    }

    StageFrame(const StageFrame &) = delete;
    StageFrame &operator=(const StageFrame &) = delete;

  private:
    HostProfiler *profiler_;
    bool sampled_;
};

/** RAII probe; no clock is read when @p profiler is null or the
 *  enclosing frame is not sampled. */
class ScopedTimer
{
  public:
    ScopedTimer(HostProfiler *profiler, ProfSection section)
        : profiler_(profiler), section_(section)
    {
        if (!profiler_)
            return;
        nested_ = profiler_->inFrame();
        if (!nested_)
            start_ = HostProfiler::nowTicks();
        else if (profiler_->frameSampled())
            start_ = profiler_->frameElapsedNs();
        else
            profiler_ = nullptr;
    }

    ~ScopedTimer()
    {
        if (!profiler_)
            return;
        if (nested_) {
            profiler_->addNested(section_,
                                 profiler_->frameElapsedNs() - start_);
        } else {
            profiler_->add(section_,
                           static_cast<std::uint64_t>(
                               double(HostProfiler::nowTicks() - start_) *
                               HostProfiler::nsPerTick()));
        }
    }

    ScopedTimer(const ScopedTimer &) = delete;
    ScopedTimer &operator=(const ScopedTimer &) = delete;

  private:
    HostProfiler *profiler_;
    ProfSection section_;
    bool nested_ = false;
    std::uint64_t start_ = 0;   ///< ticks, or frame ns when nested
};

} // namespace slf::obs

#endif // SLFWD_OBS_PROFILE_HH_
