/**
 * @file
 * ObsHooks: the observability attachment points a caller passes into a
 * run through CoreConfig::obs. Everything defaults to off; the pointers
 * are non-owning and must outlive the core. Campaign workers null the
 * pointers per job (a shared sink across parallel jobs would race), so
 * tracing a campaign job means re-running it single-threaded — see
 * slf_campaign --trace.
 */

#ifndef SLFWD_OBS_HOOKS_HH_
#define SLFWD_OBS_HOOKS_HH_

namespace slf::obs
{

class TraceSink;
class HostProfiler;
class LifetimeSink;

struct ObsHooks
{
    /** Event ring buffer; null = no event recording. */
    TraceSink *trace = nullptr;
    /** Host-time profiler for the simulator's hot loops; null = off. */
    HostProfiler *profiler = nullptr;
    /** Per-instruction pipeline lifetime records (Konata export);
     *  null = off. */
    LifetimeSink *lifetime = nullptr;
    /** Sample per-structure occupancy into SimResult every cycle. */
    bool sample_occupancy = false;

    bool operator==(const ObsHooks &) const = default;
};

} // namespace slf::obs

#endif // SLFWD_OBS_HOOKS_HH_
