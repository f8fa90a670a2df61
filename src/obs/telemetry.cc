#include "telemetry.hh"

#include <algorithm>

namespace slf::obs
{

void
SpanSink::record(CampaignSpan span)
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(span));
}

std::vector<CampaignSpan>
SpanSink::spans() const
{
    std::vector<CampaignSpan> out;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        out = spans_;
    }
    std::stable_sort(out.begin(), out.end(),
                     [](const CampaignSpan &a, const CampaignSpan &b) {
                         if (a.t0_us != b.t0_us)
                             return a.t0_us < b.t0_us;
                         if (a.job != b.job)
                             return a.job < b.job;
                         return static_cast<unsigned>(a.kind) <
                                static_cast<unsigned>(b.kind);
                     });
    return out;
}

std::size_t
SpanSink::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_.size();
}

std::size_t
SpanSink::countKind(SpanKind k) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t n = 0;
    for (const CampaignSpan &s : spans_)
        n += s.kind == k ? 1 : 0;
    return n;
}

} // namespace slf::obs
