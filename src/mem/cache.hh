/**
 * @file
 * Generic set-associative tag array with true-LRU replacement.
 *
 * Data never lives here: stores commit architectural state to MainMemory
 * at retirement, so the caches only need to model hit/miss timing. The
 * same array type backs the L1I, L1D and L2.
 */

#ifndef SLFWD_MEM_CACHE_HH_
#define SLFWD_MEM_CACHE_HH_

#include <cstdint>
#include <string>
#include <vector>

#include "sim/stats.hh"
#include "sim/types.hh"

namespace slf
{

/** Geometry of one cache level. */
struct CacheGeometry
{
    std::string name = "cache";
    std::uint64_t size_bytes = 8 * 1024;
    unsigned assoc = 2;
    unsigned line_bytes = 64;
    Cycle miss_penalty = 10;   ///< extra cycles added on a miss

    std::uint64_t numSets() const
    {
        return size_bytes / (std::uint64_t{assoc} * line_bytes);
    }

    bool operator==(const CacheGeometry &) const = default;
};

/**
 * A set-associative LRU tag array.
 */
class CacheArray
{
  public:
    explicit CacheArray(const CacheGeometry &geom);

    /**
     * Look up @p addr and update LRU/allocate on miss.
     * @return true on hit.
     */
    bool access(Addr addr);

    /** Look up without modifying state. */
    bool probe(Addr addr) const;

    /** Invalidate everything. */
    void invalidateAll();

    const CacheGeometry &geometry() const { return geom_; }
    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

  private:
    struct Way
    {
        bool valid = false;
        std::uint64_t tag = 0;
        std::uint64_t lru = 0;  ///< higher = more recently used
    };

    std::uint64_t setIndex(Addr addr) const;
    std::uint64_t tagOf(Addr addr) const;

    CacheGeometry geom_;
    std::uint64_t num_sets_;
    unsigned line_shift_;
    std::vector<Way> ways_;    ///< num_sets_ * assoc, row-major by set
    std::uint64_t lru_clock_ = 0;
    StatGroup stats_;
    Counter &hits_;
    Counter &misses_;
};

/**
 * Three-level hierarchy with the paper's Figure-4 latency model:
 * L1 hit is free (folded into the pipeline), an L1 miss adds the L1
 * miss penalty (L2 hit), and an L2 miss adds the L2 miss penalty.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(const CacheGeometry &l1i, const CacheGeometry &l1d,
                   const CacheGeometry &l2);

    /** @return extra cycles for an instruction fetch at @p addr. */
    Cycle accessInst(Addr addr);

    /** @return extra cycles for a data access at @p addr. */
    Cycle accessData(Addr addr);

    CacheArray &l1i() { return l1i_; }
    CacheArray &l1d() { return l1d_; }
    CacheArray &l2() { return l2_; }

  private:
    CacheArray l1i_;
    CacheArray l1d_;
    CacheArray l2_;
};

} // namespace slf

#endif // SLFWD_MEM_CACHE_HH_
