/**
 * @file
 * The architectural instruction stream of one timing run, produced once.
 *
 * The timing core needs the architectural (correct-path) stream twice:
 * fetch's oracle reads ahead of it (branch directions, path tracking),
 * and the golden checker validates each retiring instruction against
 * it. ArchStream runs one FuncSim lazily and keeps its RetireRecords in
 * a power-of-two ring that spans the instruction window: record i is
 * resident from the moment it is produced until the i-th retirement
 * consumes it. Production is on demand, so memory stays proportional
 * to the window and the producer never runs more than one ring ahead of
 * retirement, whatever the run's length.
 *
 * Reads are bounded by construction: every correct-path instruction in
 * flight has the stream index of its position in architectural order,
 * so fetch never reads further than one window past the next
 * retirement. A read behind the next retirement (a record already
 * consumed) or past the ring is a simulator bug and panics.
 */

#ifndef SLFWD_ARCH_ARCH_STREAM_HH_
#define SLFWD_ARCH_ARCH_STREAM_HH_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "arch/func_sim.hh"
#include "prog/program.hh"

namespace slf
{

class ArchStream
{
  public:
    /**
     * @param prog must outlive the stream (held by reference).
     * @param limit records the stream produces at most (it ends
     *        earlier, after the HALT record, if the program halts).
     * @param window most records outstanding between the next
     *        retirement and the furthest read; the ring holds at least
     *        this many.
     */
    ArchStream(const Program &prog, std::uint64_t limit,
               std::size_t window);

    /**
     * Record @p i, producing up to it on demand; null when the stream
     * ends before @p i. Valid until the next call that produces.
     * Panics if record @p i has already been consumed or lies past the
     * ring.
     */
    const RetireRecord *
    find(std::uint64_t i)
    {
        if (i >= head_ && i < produced_)
            return &ring_[i & mask_];
        return produceTo(i);
    }

    /**
     * Consume the record of the next retirement. Past HALT it returns
     * HALT records, as FuncSim::step() does.
     */
    const RetireRecord &
    retire()
    {
        if (head_ < produced_)
            return ring_[head_++ & mask_];
        return retirePastProduced();
    }

    /** Record @p i if it is resident, else null; never produces. */
    const RetireRecord *
    peek(std::uint64_t i) const
    {
        return i >= head_ && i < produced_ ? &ring_[i & mask_] : nullptr;
    }

    /** Stream index of the next retirement. */
    std::uint64_t retired() const { return head_; }
    /** Records produced so far; [retired(), produced()) are resident. */
    std::uint64_t produced() const { return produced_; }
    /** True once no further record will be produced (HALT or limit). */
    bool ended() const { return produced_ == limit_ || sim_.halted(); }
    std::size_t capacity() const { return ring_.size(); }

  private:
    const RetireRecord *produceTo(std::uint64_t i);
    const RetireRecord &retirePastProduced();

    FuncSim sim_;
    std::uint64_t limit_;
    std::vector<RetireRecord> ring_;
    std::size_t mask_ = 0;
    std::uint64_t head_ = 0;
    std::uint64_t produced_ = 0;
    /** What retire() returns past HALT. */
    RetireRecord past_halt_;
};

} // namespace slf

#endif // SLFWD_ARCH_ARCH_STREAM_HH_
