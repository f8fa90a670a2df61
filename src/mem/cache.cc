#include "cache.hh"

#include <bit>

#include "sim/logging.hh"

namespace slf
{

CacheArray::CacheArray(const CacheGeometry &geom)
    : geom_(geom),
      num_sets_(geom.numSets()),
      line_shift_(std::countr_zero(std::uint64_t{geom.line_bytes}))
{
    if (geom.line_bytes == 0 ||
        (geom.line_bytes & (geom.line_bytes - 1)) != 0) {
        fatal("CacheArray: line size must be a nonzero power of two");
    }
    if (num_sets_ == 0 || (num_sets_ & (num_sets_ - 1)) != 0)
        fatal("CacheArray: set count must be a nonzero power of two");
    ways_.resize(num_sets_ * geom.assoc);
}

std::uint64_t
CacheArray::setIndex(Addr addr) const
{
    return (addr >> line_shift_) & (num_sets_ - 1);
}

std::uint64_t
CacheArray::tagOf(Addr addr) const
{
    return addr >> line_shift_;
}

bool
CacheArray::access(Addr addr)
{
    const std::uint64_t set = setIndex(addr);
    const std::uint64_t tag = tagOf(addr);
    Way *base = &ways_[set * geom_.assoc];

    ++lru_clock_;
    for (unsigned w = 0; w < geom_.assoc; ++w) {
        if (base[w].valid && base[w].tag == tag) {
            base[w].lru = lru_clock_;
            ++hits_;
            return true;
        }
    }

    // Miss: allocate into the LRU (or first invalid) way.
    Way *victim = &base[0];
    for (unsigned w = 0; w < geom_.assoc; ++w) {
        if (!base[w].valid) {
            victim = &base[w];
            break;
        }
        if (base[w].lru < victim->lru)
            victim = &base[w];
    }
    victim->valid = true;
    victim->tag = tag;
    victim->lru = lru_clock_;
    ++misses_;
    return false;
}

bool
CacheArray::probe(Addr addr) const
{
    const std::uint64_t set = setIndex(addr);
    const std::uint64_t tag = tagOf(addr);
    const Way *base = &ways_[set * geom_.assoc];
    for (unsigned w = 0; w < geom_.assoc; ++w)
        if (base[w].valid && base[w].tag == tag)
            return true;
    return false;
}

void
CacheArray::invalidateAll()
{
    for (auto &way : ways_)
        way.valid = false;
}

CacheHierarchy::CacheHierarchy(const CacheGeometry &l1i,
                               const CacheGeometry &l1d,
                               const CacheGeometry &l2)
    : l1i_(l1i), l1d_(l1d), l2_(l2)
{}

Cycle
CacheHierarchy::accessInst(Addr addr)
{
    if (l1i_.access(addr))
        return 0;
    Cycle lat = l1i_.geometry().miss_penalty;
    if (!l2_.access(addr))
        lat += l2_.geometry().miss_penalty;
    return lat;
}

Cycle
CacheHierarchy::accessData(Addr addr)
{
    if (l1d_.access(addr))
        return 0;
    Cycle lat = l1d_.geometry().miss_penalty;
    if (!l2_.access(addr))
        lat += l2_.geometry().miss_penalty;
    return lat;
}

} // namespace slf
