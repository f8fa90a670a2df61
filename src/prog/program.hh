/**
 * @file
 * Program representation: the text segment (a vector of StaticInst), an
 * initial data image, and workload metadata (name, int/fp class).
 */

#ifndef SLFWD_PROG_PROGRAM_HH_
#define SLFWD_PROG_PROGRAM_HH_

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "isa/inst.hh"
#include "sim/types.hh"

namespace slf
{

/** Workload class, mirroring the paper's specint/specfp split. */
enum class WorkloadClass { Int, Fp };

/** One byte of a program's initial data image. */
struct InitByte
{
    Addr addr;
    std::uint8_t value;

    friend bool
    operator==(const InitByte &a, const InitByte &b)
    {
        return a.addr == b.addr && a.value == b.value;
    }
};

/**
 * Initial data image, kept as 4 KiB pages with a mask of the bytes
 * that were poked.
 *
 * Workload generators poke bytes in loops (array images easily run to
 * hundreds of kilobytes at high scale), and campaigns rebuild every
 * program once per job, so image construction is campaign-startup
 * cost. A poke writes its byte into its page and sets its mask bit: a
 * later poke to the same address overwrites the earlier one, and
 * nothing is sorted. MainMemory::loadInitialImage copies whole pages.
 */
class InitImage
{
  public:
    static constexpr unsigned kPageBits = 12;
    static constexpr std::size_t kPageSize = std::size_t{1} << kPageBits;

    /** One page: its bytes (zero where never poked) and the poke mask. */
    struct Page
    {
        std::array<std::uint8_t, kPageSize> bytes{};
        /** Bit (i % 64) of word (i / 64) is set once byte i was poked. */
        std::array<std::uint64_t, kPageSize / 64> poked{};

        bool operator==(const Page &) const = default;
    };

    /** Set one byte; later pokes to the same address win. */
    void
    poke8(Addr addr, std::uint8_t value)
    {
        Page &page = pageFor(addr >> kPageBits);
        const std::size_t off = addr & (kPageSize - 1);
        std::uint64_t &word = page.poked[off / 64];
        const std::uint64_t bit = std::uint64_t{1} << (off % 64);
        size_ += (word & bit) == 0;
        word |= bit;
        page.bytes[off] = value;
    }

    /** Pages by page number (address >> kPageBits), in address order. */
    const std::map<std::uint64_t, Page> &pages() const { return pages_; }

    /** Every poked byte, in address order. */
    std::vector<InitByte> bytes() const;

    /** Number of distinct bytes poked. */
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    /** 1 if @p addr was poked, else 0 (std::map-compatible). */
    std::size_t count(Addr addr) const;

    /** Value at @p addr; throws std::out_of_range if never poked. */
    std::uint8_t at(Addr addr) const;

    friend bool
    operator==(const InitImage &a, const InitImage &b)
    {
        return a.pages_ == b.pages_;
    }

  private:
    /**
     * The page last poked: consecutive pokes almost always share one.
     * A copied or moved image starts without it, so it can never point
     * into another image's pages.
     */
    struct LastPage
    {
        std::uint64_t num = ~std::uint64_t{0};
        Page *page = nullptr;

        LastPage() = default;
        LastPage(const LastPage &) {}
        LastPage(LastPage &&other) noexcept { other.reset(); }
        LastPage &operator=(const LastPage &) { reset(); return *this; }
        LastPage &
        operator=(LastPage &&other) noexcept
        {
            reset();
            other.reset();
            return *this;
        }

        void
        reset()
        {
            num = ~std::uint64_t{0};
            page = nullptr;
        }
    };

    Page &
    pageFor(std::uint64_t num)
    {
        if (last_.num != num) {
            last_.num = num;
            last_.page = &pages_[num];
        }
        return *last_.page;
    }

    const Page *findPage(Addr addr) const;

    std::map<std::uint64_t, Page> pages_;
    std::size_t size_ = 0;
    LastPage last_;
};

/**
 * A complete runnable program.
 *
 * The PC is an index into text(). Initial memory contents are byte
 * granular; untouched bytes read as zero.
 */
class Program
{
  public:
    Program() = default;
    Program(std::string name, WorkloadClass cls)
        : name_(std::move(name)), class_(cls)
    {}

    const std::string &name() const { return name_; }
    void setName(std::string name) { name_ = std::move(name); }

    WorkloadClass workloadClass() const { return class_; }
    void setWorkloadClass(WorkloadClass cls) { class_ = cls; }

    const std::vector<StaticInst> &text() const { return text_; }
    std::vector<StaticInst> &text() { return text_; }

    std::size_t size() const { return text_.size(); }

    const StaticInst &
    inst(std::uint64_t pc) const
    {
        return text_.at(pc);
    }

    /** @return true if @p pc addresses a valid instruction. */
    bool validPc(std::uint64_t pc) const { return pc < text_.size(); }

    /** Initial data image. */
    const InitImage &initialData() const { return init_data_; }

    /** Set one byte of the initial image. */
    void poke8(Addr addr, std::uint8_t value)
    {
        init_data_.poke8(addr, value);
    }

    /** Set @p size little-endian bytes of the initial image. */
    void pokeBytes(Addr addr, std::uint64_t value, unsigned size);

    /** Set a 64-bit little-endian word of the initial image. */
    void poke64(Addr addr, std::uint64_t value) { pokeBytes(addr, value, 8); }

    /** Render the whole text segment as disassembly. */
    std::string disassembleText() const;

    /** Structural equality: name, class, text and data image. */
    friend bool
    operator==(const Program &a, const Program &b)
    {
        return a.name_ == b.name_ && a.class_ == b.class_ &&
               a.text_ == b.text_ && a.init_data_ == b.init_data_;
    }

  private:
    std::string name_ = "anonymous";
    WorkloadClass class_ = WorkloadClass::Int;
    std::vector<StaticInst> text_;
    InitImage init_data_;
};

} // namespace slf

#endif // SLFWD_PROG_PROGRAM_HH_
