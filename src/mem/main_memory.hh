/**
 * @file
 * Sparse, byte-addressable 64-bit main memory.
 *
 * Backed by 4 KiB pages allocated on first touch; untouched bytes read
 * as zero. All multi-byte accesses are little-endian and may straddle
 * page boundaries.
 */

#ifndef SLFWD_MEM_MAIN_MEMORY_HH_
#define SLFWD_MEM_MAIN_MEMORY_HH_

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <unordered_map>

#include "sim/types.hh"

namespace slf
{

class Program;

class MainMemory
{
  public:
    static constexpr unsigned kPageBits = 12;
    static constexpr std::size_t kPageSize = std::size_t{1} << kPageBits;

    /**
     * The page TLB in front of the page map: 2^kTlbBits direct-mapped
     * entries. Over the 20 analogs' memory operations (scale 4) the
     * screen programs change page on 40-100% of consecutive accesses;
     * indexed by Fibonacci-hashed page number, 64 entries miss on 8.4%
     * of lookups, all but 0.2 points of it reads of never-written
     * pages, which are not cached. Low page-number bits as the index
     * missed on 22% at 64 or 256 entries: the analogs' arrays sit at
     * aligned bases that share them.
     */
    static constexpr unsigned kTlbBits = 6;
    static constexpr std::size_t kTlbEntries = std::size_t{1} << kTlbBits;

    /** TLB slot of page number @p num (public for tests). */
    static constexpr std::size_t
    tlbSlot(std::uint64_t num)
    {
        return (num * 0x9e3779b97f4a7c15ull) >> (64 - kTlbBits);
    }

    MainMemory() = default;
    // The TLB holds pointers to this memory's own pages; a copy or a
    // move would leave one of the two translating into the other.
    MainMemory(const MainMemory &) = delete;
    MainMemory &operator=(const MainMemory &) = delete;

    /** Read one byte (zero if never written). */
    std::uint8_t read8(Addr addr) const;

    /** Write one byte. */
    void write8(Addr addr, std::uint8_t value);

    /** Read @p size (<= 8) little-endian bytes, zero-extended. */
    std::uint64_t
    readBytes(Addr addr, unsigned size) const
    {
        const std::size_t off = addr & (kPageSize - 1);
        if (off + size > kPageSize)
            return readStraddling(addr, size);
        const Page *page = findPage(addr);
        std::uint64_t value = 0;
        if (page)
            std::memcpy(&value, page->data() + off, size);
        return value;
    }

    /** Write the low @p size (<= 8) bytes of @p value, little-endian. */
    void
    writeBytes(Addr addr, std::uint64_t value, unsigned size)
    {
        const std::size_t off = addr & (kPageSize - 1);
        if (off + size > kPageSize) {
            writeStraddling(addr, value, size);
            return;
        }
        std::memcpy(touchPage(addr).data() + off, &value, size);
    }

    /** Load a program's initial data image. */
    void loadInitialImage(const Program &prog);

    /**
     * Lowest address whose byte differs between the two images
     * (untouched pages compare as zeros), or nullopt if they match.
     */
    std::optional<Addr> firstDifference(const MainMemory &other) const;

    /** Number of pages currently allocated (for tests). */
    std::size_t allocatedPages() const { return pages_.size(); }

  private:
    // readBytes/writeBytes move values with memcpy: the low address
    // byte is the value's low byte only on a little-endian host.
    static_assert(std::endian::native == std::endian::little,
                  "MainMemory's word accesses assume a little-endian host");

    using Page = std::array<std::uint8_t, kPageSize>;

    /** One TLB slot; page numbers fit in 52 bits, so ~0 is never one. */
    struct TlbEntry
    {
        std::uint64_t num = ~std::uint64_t{0};
        Page *page = nullptr;
    };

    const Page *
    findPage(Addr addr) const
    {
        const std::uint64_t num = addr >> kPageBits;
        const TlbEntry &e = tlb_[tlbSlot(num)];
        return e.num == num ? e.page : findPageMiss(num);
    }

    Page &
    touchPage(Addr addr)
    {
        const std::uint64_t num = addr >> kPageBits;
        const TlbEntry &e = tlb_[tlbSlot(num)];
        return e.num == num ? *e.page : touchPageMiss(num);
    }

    /** Page-map lookup; fills the TLB on a hit, caches no miss. */
    const Page *findPageMiss(std::uint64_t num) const;
    /** Page-map lookup, allocating a zero page if absent; fills the TLB. */
    Page &touchPageMiss(std::uint64_t num);

    std::uint64_t readStraddling(Addr addr, unsigned size) const;
    void writeStraddling(Addr addr, std::uint64_t value, unsigned size);

    std::unordered_map<std::uint64_t, std::unique_ptr<Page>> pages_;

    /**
     * Direct-mapped translation cache, indexed by tlbSlot(). Safe
     * because pages are never freed and the Page payloads are heap
     * allocations whose addresses survive rehashing. Only present pages
     * are entered: a read of an untouched page allocates nothing and
     * leaves no entry, so a later write still allocates.
     */
    mutable std::array<TlbEntry, kTlbEntries> tlb_{};
};

} // namespace slf

#endif // SLFWD_MEM_MAIN_MEMORY_HH_
