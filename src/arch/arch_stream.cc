#include "arch_stream.hh"

#include <algorithm>
#include <string>

#include "sim/logging.hh"

namespace slf
{

ArchStream::ArchStream(const Program &prog, std::uint64_t limit,
                       std::size_t window)
    : sim_(prog), limit_(limit)
{
    std::size_t cap = 1;
    while (cap < window)
        cap <<= 1;
    mask_ = cap - 1;
    ring_.resize(cap);
}

const RetireRecord *
ArchStream::produceTo(std::uint64_t i)
{
    if (i < head_) {
        panic("ArchStream: record " + std::to_string(i) +
              " is no longer resident (next retirement is record " +
              std::to_string(head_) + ")");
    }
    if (i - head_ >= ring_.size()) {
        panic("ArchStream: record " + std::to_string(i) +
              " is past the ring (next retirement is record " +
              std::to_string(head_) + ", capacity " +
              std::to_string(ring_.size()) + ")");
    }
    while (produced_ <= i) {
        if (ended())
            return nullptr;
        // Fill as far as the ring, its wrap point and the limit allow.
        const std::size_t pos = produced_ & mask_;
        const std::uint64_t room =
            std::min(head_ + ring_.size() - produced_, limit_ - produced_);
        const std::size_t n = static_cast<std::size_t>(
            std::min<std::uint64_t>(room, ring_.size() - pos));
        produced_ += sim_.stepBlock(&ring_[pos], n);
    }
    return &ring_[i & mask_];
}

const RetireRecord &
ArchStream::retirePastProduced()
{
    if (const RetireRecord *rec = produceTo(head_)) {
        ++head_;
        return *rec;
    }
    if (!sim_.halted()) {
        panic("ArchStream: retirement " + std::to_string(head_) +
              " is past the stream's limit of " + std::to_string(limit_) +
              " records");
    }
    past_halt_ = sim_.step();
    return past_halt_;
}

} // namespace slf
