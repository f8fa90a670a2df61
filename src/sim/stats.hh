/**
 * @file
 * Distribution: an accumulating count/sum/min/max sample summary, the
 * storage of the per-cycle occupancy statistics (obs/occupancy.hh).
 * Scalar counters live in their owners' obs::StatTable.
 */

#ifndef SLFWD_SIM_STATS_HH_
#define SLFWD_SIM_STATS_HH_

#include <cstdint>

namespace slf
{

/** Simple accumulating distribution (count/sum/min/max). */
class Distribution
{
  public:
    void
    sample(std::uint64_t v)
    {
        if (count_ == 0 || v < min_)
            min_ = v;
        if (count_ == 0 || v > max_)
            max_ = v;
        sum_ += v;
        ++count_;
    }

    /** Fold another distribution's samples into this one. The result
     *  equals having sampled both streams into a single distribution,
     *  so merging is associative and order-independent. */
    void
    mergeFrom(const Distribution &other)
    {
        if (other.count_ == 0)
            return;
        if (count_ == 0 || other.min_ < min_)
            min_ = other.min_;
        if (count_ == 0 || other.max_ > max_)
            max_ = other.max_;
        sum_ += other.sum_;
        count_ += other.count_;
    }

    /** Rebuild a distribution from its exported parts (the campaign
     *  journal round-trips distributions as [count,sum,min,max]). */
    static Distribution
    fromParts(std::uint64_t count, std::uint64_t sum, std::uint64_t min,
              std::uint64_t max)
    {
        Distribution d;
        d.count_ = count;
        d.sum_ = sum;
        d.min_ = min;
        d.max_ = max;
        return d;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t min() const { return count_ ? min_ : 0; }
    std::uint64_t max() const { return count_ ? max_ : 0; }
    double mean() const
    {
        return count_ ? double(sum_) / double(count_) : 0.0;
    }
    void reset() { *this = Distribution(); }

  private:
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = 0;
    std::uint64_t max_ = 0;
};

} // namespace slf

#endif // SLFWD_SIM_STATS_HH_
