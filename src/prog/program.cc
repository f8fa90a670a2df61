#include "program.hh"

#include <sstream>
#include <stdexcept>

namespace slf
{

std::vector<InitByte>
InitImage::bytes() const
{
    std::vector<InitByte> out;
    out.reserve(size_);
    for (const auto &[num, page] : pages_)
        for (std::size_t i = 0; i < kPageSize; ++i)
            if (page.poked[i / 64] >> (i % 64) & 1)
                out.push_back({(num << kPageBits) | i, page.bytes[i]});
    return out;
}

const InitImage::Page *
InitImage::findPage(Addr addr) const
{
    const auto it = pages_.find(addr >> kPageBits);
    return it == pages_.end() ? nullptr : &it->second;
}

std::size_t
InitImage::count(Addr addr) const
{
    const Page *page = findPage(addr);
    const std::size_t off = addr & (kPageSize - 1);
    return page && (page->poked[off / 64] >> (off % 64) & 1) ? 1 : 0;
}

std::uint8_t
InitImage::at(Addr addr) const
{
    if (!count(addr))
        throw std::out_of_range("InitImage::at: address never poked");
    return findPage(addr)->bytes[addr & (kPageSize - 1)];
}

void
Program::pokeBytes(Addr addr, std::uint64_t value, unsigned size)
{
    for (unsigned i = 0; i < size; ++i)
        init_data_.poke8(addr + i,
                         static_cast<std::uint8_t>(value >> (8 * i)));
}

std::string
Program::disassembleText() const
{
    std::ostringstream oss;
    for (std::size_t i = 0; i < text_.size(); ++i)
        oss << i << ":\t" << disassemble(text_[i]) << '\n';
    return oss.str();
}

} // namespace slf
