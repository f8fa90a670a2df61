/**
 * @file
 * Retirement-lockstep golden-model checker.
 *
 * Takes the functional simulator's record of each retiring instruction
 * (the core's ArchStream produces them; the program runs functionally
 * once per timing run) and cross-checks everything architecture-visible:
 * PC, opcode, register writeback value, load value, store address/size and
 * store data — plus, after the store FIFO drains a slot, the bytes that
 * actually landed in committed memory (which catches payload corruption
 * the per-instruction check cannot see), and the final memory image
 * when a run drains completely. The checker keeps its own golden
 * register file and memory image by applying every record it consumes,
 * so they always reflect exactly the retired prefix of the program.
 *
 * A divergence produces a structured CheckFailure carrying the dynamic
 * instruction, the expected/actual values, the golden architectural
 * state and the recent squash history. Depending on configuration the
 * checker either panics (the pre-existing behaviour: any divergence is
 * a simulator bug) or records the failure and lets the run continue so
 * a fault-injection campaign can count detections.
 */

#ifndef SLFWD_VERIFY_GOLDEN_CHECKER_HH_
#define SLFWD_VERIFY_GOLDEN_CHECKER_HH_

#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "arch/func_sim.hh"
#include "cpu/dyn_inst.hh"
#include "mem/main_memory.hh"
#include "obs/hooks.hh"
#include "obs/stat_table.hh"
#include "prog/program.hh"
#include "sim/types.hh"

namespace slf
{

/** One divergence between the timing core and the golden model. */
struct CheckFailure
{
    enum class Kind : std::uint8_t
    {
        Pc,           ///< retired a different instruction
        Opcode,
        Result,       ///< register writeback / load value mismatch
        Address,      ///< effective address or access size mismatch
        StoreValue,   ///< store data operand mismatch
        Control,      ///< taken direction or target mismatch
        StoreCommit,  ///< committed memory bytes differ after a store
        FinalMemory,  ///< end-of-run memory images differ
    };

    Kind kind = Kind::Result;
    SeqNum seq = kInvalidSeqNum;
    std::uint64_t pc = 0;
    Cycle cycle = 0;
    std::string disasm;

    std::uint64_t expected = 0;   ///< golden-model value
    std::uint64_t actual = 0;     ///< timing-core value
    Addr addr = 0;                ///< memory address involved, if any

    /** Golden architectural state at the divergence. */
    std::string golden_state;
    /** Formatted recent squash history (most recent last). */
    std::string squash_history;

    std::string toString() const;
};

const char *checkFailureKindName(CheckFailure::Kind kind);

class GoldenChecker
{
  public:
    /**
     * @param prog must outlive the checker (held by reference).
     * @param abort_on_divergence panic on the first divergence instead
     *        of recording it and continuing.
     */
    GoldenChecker(const Program &prog, bool abort_on_divergence);

    /** Record a pipeline squash (ring buffer feeds failure reports). */
    void noteSquash(Cycle cycle, SeqNum from, std::uint64_t count,
                    const char *reason);

    /** Apply @p golden, the functional record of the instruction
     *  retiring now, and cross-check @p inst against it. */
    void checkRetirement(const DynInst &inst, const RetireRecord &golden,
                         Cycle cycle);

    /**
     * After a retiring store drained to committed memory: compare the
     * committed bytes against the golden memory image.
     */
    void checkCommittedStore(const DynInst &inst, const MainMemory &mem,
                             Cycle cycle);

    /** End of a fully drained run: compare whole memory images. */
    void checkFinalMemory(const MainMemory &mem, Cycle cycle);

    bool clean() const { return stats_.value(S::Failures) == 0; }
    std::uint64_t
    retirementsChecked() const
    {
        return stats_.value(S::RetirementsChecked);
    }
    std::uint64_t failureCount() const { return stats_.value(S::Failures); }
    std::uint64_t
    storeCommitFailures() const
    {
        return stats_.value(S::FailuresStoreCommit);
    }

    /** Structured reports (capped at kMaxReports; counters are not). */
    const std::vector<CheckFailure> &reports() const { return reports_; }

    /** Typed counter read (the name is compile-checked). */
    std::uint64_t statValue(obs::CheckerStat s) const
    {
        return stats_.value(s);
    }

    /** Attach an event sink; divergences emit CheckerFail events. */
    void setTraceSink(obs::TraceSink *sink) { trace_ = sink; }

    static constexpr std::size_t kMaxReports = 32;
    static constexpr std::size_t kSquashHistory = 8;

  private:
    struct SquashEvent
    {
        Cycle cycle = 0;
        SeqNum from = kInvalidSeqNum;
        std::uint64_t count = 0;
        const char *reason = "";
    };

    /** Record (and possibly abort on) one divergence. */
    void report(CheckFailure f);

    std::string squashHistoryString() const;

    /** Golden architectural state after the last checked retirement. */
    ArchState golden_;
    bool abort_on_divergence_;
    std::deque<SquashEvent> squashes_;
    std::vector<CheckFailure> reports_;
    obs::TraceSink *trace_ = nullptr;

    using S = obs::CheckerStat;
    obs::StatTable<S> stats_;
};

} // namespace slf

#endif // SLFWD_VERIFY_GOLDEN_CHECKER_HH_
