#include "main_memory.hh"

#include <algorithm>
#include <vector>

#include "prog/program.hh"

namespace slf
{

const MainMemory::Page *
MainMemory::findPageMiss(std::uint64_t num) const
{
    auto it = pages_.find(num);
    if (it == pages_.end())
        return nullptr;
    tlb_[tlbSlot(num)] = {num, it->second.get()};
    return it->second.get();
}

MainMemory::Page &
MainMemory::touchPageMiss(std::uint64_t num)
{
    auto &slot = pages_[num];
    if (!slot) {
        slot = std::make_unique<Page>();
        slot->fill(0);
    }
    tlb_[tlbSlot(num)] = {num, slot.get()};
    return *slot;
}

std::uint8_t
MainMemory::read8(Addr addr) const
{
    const Page *page = findPage(addr);
    return page ? (*page)[addr & (kPageSize - 1)] : 0;
}

void
MainMemory::write8(Addr addr, std::uint8_t value)
{
    touchPage(addr)[addr & (kPageSize - 1)] = value;
}

std::uint64_t
MainMemory::readStraddling(Addr addr, unsigned size) const
{
    std::uint64_t value = 0;
    for (unsigned i = 0; i < size; ++i)
        value |= std::uint64_t{read8(addr + i)} << (8 * i);
    return value;
}

void
MainMemory::writeStraddling(Addr addr, std::uint64_t value, unsigned size)
{
    for (unsigned i = 0; i < size; ++i)
        write8(addr + i, static_cast<std::uint8_t>(value >> (8 * i)));
}

std::optional<Addr>
MainMemory::firstDifference(const MainMemory &other) const
{
    std::vector<std::uint64_t> page_nums;
    page_nums.reserve(pages_.size() + other.pages_.size());
    for (const auto &[num, page] : pages_)
        page_nums.push_back(num);
    for (const auto &[num, page] : other.pages_)
        if (!pages_.count(num))
            page_nums.push_back(num);
    std::sort(page_nums.begin(), page_nums.end());

    static const Page kZeroPage{};
    for (const std::uint64_t num : page_nums) {
        auto mine = pages_.find(num);
        auto theirs = other.pages_.find(num);
        const Page &a = mine == pages_.end() ? kZeroPage : *mine->second;
        const Page &b =
            theirs == other.pages_.end() ? kZeroPage : *theirs->second;
        for (std::size_t i = 0; i < kPageSize; ++i)
            if (a[i] != b[i])
                return (num << kPageBits) | i;
    }
    return std::nullopt;
}

void
MainMemory::loadInitialImage(const Program &prog)
{
    static_assert(InitImage::kPageSize == kPageSize,
                  "image pages and memory pages must coincide");
    for (const auto &[num, src] : prog.initialData().pages()) {
        const std::size_t before = pages_.size();
        Page &dst = touchPage(num << kPageBits);
        if (pages_.size() != before) {
            // A fresh page is all zeros, as are the image page's
            // unpoked bytes: copy it whole.
            dst = src.bytes;
            continue;
        }
        // Poked bytes only: the rest of an existing page stays.
        for (std::size_t w = 0; w < src.poked.size(); ++w)
            for (std::uint64_t m = src.poked[w]; m; m &= m - 1) {
                const std::size_t i = 64 * w + std::countr_zero(m);
                dst[i] = src.bytes[i];
            }
    }
}

} // namespace slf
