/**
 * @file
 * Pluggable memory-ordering units behind a common interface: the
 * idealized LSQ baseline and the paper's MDT/SFC/store-FIFO subsystem.
 *
 * The out-of-order core performs the memory-unit access at issue time
 * (address and data are ready then); the returned outcome tells the core
 * to complete the access after some latency, to replay it, or to start
 * ordering-violation recovery. This issue-time evaluation is what makes
 * the paper's idealized scheduler oracle exact: a dependence tag is
 * readied only by producers that do not replay.
 */

#ifndef SLFWD_CPU_MEM_UNIT_HH_
#define SLFWD_CPU_MEM_UNIT_HH_

#include <cstdint>
#include <memory>
#include <string>

#include "core/mdt.hh"
#include "core/sfc.hh"
#include "core/store_fifo.hh"
#include "cpu/core_config.hh"
#include "cpu/dyn_inst.hh"
#include "lsq/lsq.hh"
#include "mem/cache.hh"
#include "mem/main_memory.hh"
#include "obs/hooks.hh"
#include "obs/occupancy.hh"
#include "obs/stat_table.hh"
#include "pred/memdep.hh"
#include "verify/sim_result.hh"

namespace slf
{

class FaultInjector;

/** Why an access was replayed (for the paper's outlier analyses). */
enum class ReplayReason : std::uint8_t
{
    SfcConflict,
    SfcCorrupt,
    SfcPartial,
    MdtConflict,
    DepWait,   ///< value-replay: hinted load waits for older stores
};

/** Outcome of issuing a load or store to the memory unit. */
struct MemIssueOutcome
{
    enum class Kind : std::uint8_t
    {
        Complete,   ///< access succeeded
        Replay,     ///< structural conflict/corruption: re-schedule
        Violation,  ///< ordering violation: recover
    };

    Kind kind = Kind::Complete;

    /** Loads: the value obtained (valid when kind == Complete). */
    std::uint64_t load_value = 0;
    /** Extra access latency beyond the base load/store latency. */
    Cycle extra_latency = 0;

    ReplayReason replay_reason = ReplayReason::SfcConflict;

    // Violation details.
    DepKind dep_kind = DepKind::True;
    /** Squash every in-flight instruction with seq >= this. */
    SeqNum squash_from = kInvalidSeqNum;
    std::uint64_t producer_pc = 0;
    std::uint64_t consumer_pc = 0;
};

/**
 * Abstract memory-ordering unit.
 */
class MemUnit
{
  public:
    MemUnit(MainMemory &mem, CacheHierarchy &caches)
        : mem_(mem), caches_(caches)
    {}
    virtual ~MemUnit() = default;

    /** Side-effect-free capacity checks, queried before committing any
     *  dispatch-stage resource allocation. */
    virtual bool canDispatchLoad() const = 0;
    virtual bool canDispatchStore() const = 0;

    /** Allocate the access's queue slot. The core calls these only
     *  after the capacity check passed; a unit panics on overflow. */
    virtual void dispatchLoad(DynInst &inst) = 0;
    virtual void dispatchStore(DynInst &inst) = 0;

    /**
     * Issue an access. @p at_rob_head enables the head bypass.
     * inst.addr/size (and store_value) must be set by the caller.
     */
    virtual MemIssueOutcome issueLoad(DynInst &inst, bool at_rob_head) = 0;
    virtual MemIssueOutcome issueStore(DynInst &inst, bool at_rob_head) = 0;

    /**
     * Retirement (in program order). Stores commit to memory here.
     *
     * retireLoad returns false when a retirement-time check discovers
     * the load's value is wrong (value-based replay schemes); the core
     * must then flush from the load instead of retiring it.
     */
    virtual bool retireLoad(DynInst &inst) = 0;
    virtual void retireStore(DynInst &inst) = 0;

    /** Squash every tracked access with seq >= @p seq. */
    virtual void squashFrom(SeqNum seq) = 0;

    /** A partial pipeline flush squashing [from, to] occurred (after
     *  squashFrom). */
    virtual void onPartialFlush(SeqNum from, SeqNum to) = 0;

    /** Oldest in-flight sequence number (dead-entry scavenging). */
    virtual void setOldestInflight(SeqNum seq) = 0;

    /**
     * Monotone count of entry evictions; the scheduler clears stall
     * bits when this advances (Section 2.4.3).
     */
    virtual std::uint64_t evictionCount() const = 0;

    /**
     * Export this unit's counters into a flat SimResult. Every unit
     * reads its own typed stat tables (MDT/SFC accesses, LSQ CAM
     * activity, replay breakdowns); no string lookups remain on this
     * path, so a renamed counter is a compile error.
     */
    virtual void exportStats(SimResult &r) const = 0;

    /** Attach a fault injector (units without fault sites ignore it). */
    virtual void setFaultInjector(FaultInjector *) {}

    /** Attach an event sink (null detaches). */
    void setTraceSink(obs::TraceSink *sink) { trace_ = sink; }

    /**
     * Fill the unit's structure occupancies into @p snap. The per-cycle
     * occupancy sampler and the watchdog dump both read this, so the
     * two can never disagree.
     */
    virtual void snapshotOccupancy(obs::OccSnapshot &snap) const
    {
        (void)snap;
    }

    /** One-line occupancy summary for watchdog/deadlock dumps, rendered
     *  from the same snapshot the exported occupancy stats sample. */
    std::string occupancyDump() const;

  protected:
    /** Read @p size committed bytes (little-endian). */
    std::uint64_t
    readCommitted(Addr addr, unsigned size) const
    {
        return mem_.readBytes(addr, size);
    }

    /**
     * Complete a load whose bytes in @p fwd_mask (bit i = byte i) older
     * in-flight stores supply as @p fwd_value, and the rest committed
     * memory. A fully forwarded load takes the single-cycle bypass: the
     * L1D is accessed in parallel (keeping it warm) but a miss costs
     * nothing. @return whether every byte was forwarded.
     */
    bool forwardLoad(const DynInst &inst, std::uint8_t fwd_mask,
                     std::uint64_t fwd_value, MemIssueOutcome &out);

    MainMemory &mem_;
    CacheHierarchy &caches_;
    obs::TraceSink *trace_ = nullptr;
};

/** The paper's subsystem: SFC + MDT + store FIFO. */
class MdtSfcUnit : public MemUnit
{
  public:
    MdtSfcUnit(const CoreConfig &cfg, MainMemory &mem,
               CacheHierarchy &caches, MemDepPredictor &memdep);

    bool canDispatchLoad() const override { return true; }
    bool canDispatchStore() const override { return !fifo_.full(); }
    void dispatchLoad(DynInst &inst) override;
    void dispatchStore(DynInst &inst) override;
    MemIssueOutcome issueLoad(DynInst &inst, bool at_rob_head) override;
    MemIssueOutcome issueStore(DynInst &inst, bool at_rob_head) override;
    bool retireLoad(DynInst &inst) override;
    void retireStore(DynInst &inst) override;
    void squashFrom(SeqNum seq) override;
    void onPartialFlush(SeqNum from, SeqNum to) override;
    void setOldestInflight(SeqNum seq) override;
    std::uint64_t evictionCount() const override;
    void exportStats(SimResult &r) const override;
    void setFaultInjector(FaultInjector *fi) override { injector_ = fi; }
    void snapshotOccupancy(obs::OccSnapshot &snap) const override;
    /** Typed counter read (the name is compile-checked). */
    std::uint64_t statValue(obs::MdtSfcUnitStat s) const
    {
        return stats_.value(s);
    }

    Mdt &mdt() { return mdt_; }
    const Mdt &mdt() const { return mdt_; }
    Sfc &sfc() { return sfc_; }
    const Sfc &sfc() const { return sfc_; }
    StoreFifo &storeFifo() { return fifo_; }

  private:
    /** Execute a store via the ROB-head bypass: fill the FIFO slot and
     *  commit the value atomically (Section 2.2). */
    void headBypassStore(DynInst &inst);

    const CoreConfig &cfg_;
    MemDepPredictor &memdep_;
    Mdt mdt_;
    Sfc sfc_;
    StoreFifo fifo_;
    FaultInjector *injector_ = nullptr;

    using S = obs::MdtSfcUnitStat;
    obs::StatTable<S> stats_;
};

/** The idealized LSQ baseline. */
class LsqUnit : public MemUnit
{
  public:
    LsqUnit(const CoreConfig &cfg, MainMemory &mem, CacheHierarchy &caches,
            MemDepPredictor &memdep);

    bool canDispatchLoad() const override;
    bool canDispatchStore() const override;
    void dispatchLoad(DynInst &inst) override;
    void dispatchStore(DynInst &inst) override;
    MemIssueOutcome issueLoad(DynInst &inst, bool at_rob_head) override;
    MemIssueOutcome issueStore(DynInst &inst, bool at_rob_head) override;
    bool retireLoad(DynInst &inst) override;
    void retireStore(DynInst &inst) override;
    void squashFrom(SeqNum seq) override;
    void onPartialFlush(SeqNum, SeqNum) override {}
    void setOldestInflight(SeqNum) override {}
    std::uint64_t evictionCount() const override { return 0; }
    void exportStats(SimResult &r) const override;
    void snapshotOccupancy(obs::OccSnapshot &snap) const override;
    /** Typed counter read (the name is compile-checked). */
    std::uint64_t statValue(obs::LsqUnitStat s) const
    {
        return stats_.value(s);
    }

    Lsq &lsq() { return lsq_; }
    const Lsq &lsq() const { return lsq_; }

  private:
    MemDepPredictor &memdep_;
    Lsq lsq_;
    using S = obs::LsqUnitStat;
    obs::StatTable<S> stats_;
};

/** Factory selecting the unit from the configuration. */
std::unique_ptr<MemUnit> makeMemUnit(const CoreConfig &cfg, MainMemory &mem,
                                     CacheHierarchy &caches,
                                     MemDepPredictor &memdep);

} // namespace slf

#endif // SLFWD_CPU_MEM_UNIT_HH_
