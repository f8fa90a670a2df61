#include "gshare.hh"

#include <bit>

#include "sim/logging.hh"

namespace slf
{

GsharePredictor::GsharePredictor(unsigned table_bits, unsigned history_bits)
{
    const std::uint64_t entries = table_bits / 2;
    if (entries == 0 || (entries & (entries - 1)) != 0)
        fatal("GsharePredictor: table must hold a power-of-two counters");
    if (history_bits == 0 || history_bits > 16)
        fatal("GsharePredictor: history length must be in 1..16");
    counters_.assign(entries, 1);   // weakly not-taken
    mask_ = entries - 1;
    history_mask_ = static_cast<std::uint16_t>((1u << history_bits) - 1);
}

std::uint64_t
GsharePredictor::index(std::uint64_t pc, std::uint16_t h) const
{
    return (pc ^ h) & mask_;
}

bool
GsharePredictor::predict(std::uint64_t pc) const
{
    return counters_[index(pc, history_)] >= 2;
}

void
GsharePredictor::updateHistory(bool taken)
{
    history_ = static_cast<std::uint16_t>(
        ((history_ << 1) | (taken ? 1 : 0)) & history_mask_);
}

void
GsharePredictor::train(std::uint64_t pc, std::uint16_t h, bool taken)
{
    std::uint8_t &ctr = counters_[index(pc, h)];
    if (taken) {
        if (ctr < 3)
            ++ctr;
    } else {
        if (ctr > 0)
            --ctr;
    }
}

} // namespace slf
