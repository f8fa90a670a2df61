#include "profile.hh"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace slf::obs
{

double
HostProfiler::nsPerTick()
{
#ifdef SLFWD_PROF_TSC
    // Calibrate the TSC rate against steady_clock once per process: a
    // ~2 ms paired read keeps the relative error well under the noise
    // of the sections being measured.
    static const double rate = [] {
        const auto t0 = std::chrono::steady_clock::now();
        const std::uint64_t c0 = __rdtsc();
        for (;;) {
            const auto t1 = std::chrono::steady_clock::now();
            const std::uint64_t c1 = __rdtsc();
            const auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    t1 - t0)
                    .count();
            if (ns >= 2'000'000 && c1 > c0)
                return double(ns) / double(c1 - c0);
        }
    }();
    return rate;
#else
    return 1.0;
#endif
}

const char *
profSectionName(ProfSection s)
{
#define SLF_PROF_NAME_CASE(sym, str)                                    \
  case ProfSection::sym:                                                \
    return str;
    switch (s) {
        SLF_PROF_SECTION_LIST(SLF_PROF_NAME_CASE)
      case ProfSection::kCount:
        break;
    }
#undef SLF_PROF_NAME_CASE
    return "?";
}

void
HostProfiler::mergeFrom(const HostProfiler &other)
{
    for (std::size_t i = 0; i < kProfSectionCount; ++i) {
        sections_[i].ns += other.sections_[i].ns;
        sections_[i].calls += other.sections_[i].calls;
    }
    frames_ += other.frames_;
    frame_ns_ += other.frame_ns_;
}

std::string
HostProfiler::toString() const
{
    std::ostringstream os;
    for (std::size_t i = 0; i < kProfSectionCount; ++i) {
        const Section &s = sections_[i];
        if (s.calls == 0)
            continue;
        char buf[128];
        std::snprintf(buf, sizeof(buf),
                      "%-12s calls=%-12" PRIu64 " total=%9.3f ms"
                      "  %7.1f ns/call",
                      profSectionName(static_cast<ProfSection>(i)),
                      s.calls, double(s.ns) / 1e6,
                      double(s.ns) / double(s.calls));
        os << buf << "\n";
    }
    return os.str();
}

std::string
HostProfiler::toJson() const
{
    std::ostringstream os;
    os << "{";
    for (std::size_t i = 0; i < kProfSectionCount; ++i) {
        if (i)
            os << ", ";
        os << "\"" << profSectionName(static_cast<ProfSection>(i))
           << "\": {\"ns\": " << sections_[i].ns
           << ", \"calls\": " << sections_[i].calls << "}";
    }
    os << "}";
    return os.str();
}

} // namespace slf::obs
