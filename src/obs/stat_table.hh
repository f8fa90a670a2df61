/**
 * @file
 * StatTable: a structure's counters, indexed by its stat enum.
 *
 * A StatTable<Enum> owns one std::uint64_t per enumerator, all zero at
 * construction. Hot paths increment in place (`++stats_[S::X]`, an
 * array index into the owning object); harvesting reads through
 * value(). The only way to reach a counter is the enum, so an unknown
 * stat is a compile error.
 */

#ifndef SLFWD_OBS_STAT_TABLE_HH_
#define SLFWD_OBS_STAT_TABLE_HH_

#include <array>
#include <cstddef>
#include <cstdint>

#include "obs/stat_ids.hh"

namespace slf::obs
{

template <typename Enum>
class StatTable
{
  public:
    static constexpr std::size_t kCount =
        static_cast<std::size_t>(Enum::kCount);

    std::uint64_t &operator[](Enum e) { return counts_[index(e)]; }

    /** Typed read of one counter's value. */
    std::uint64_t value(Enum e) const { return counts_[index(e)]; }

  private:
    static std::size_t index(Enum e) { return static_cast<std::size_t>(e); }

    std::array<std::uint64_t, kCount> counts_{};
};

} // namespace slf::obs

#endif // SLFWD_OBS_STAT_TABLE_HH_
