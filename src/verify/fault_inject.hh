/**
 * @file
 * Fault injector for the MDT/SFC/store-FIFO subsystem.
 *
 * The paper's soundness argument allows the SFC to hold wrong data (it
 * is corrupted by un-renamed same-address stores that later cancel) and
 * relies on corruption masks plus the MDT's timestamp-ordering checks to
 * stop every escape before retirement. This injector stresses exactly
 * that boundary, at configurable per-access rates:
 *
 *  - SFC corrupt-mask poisoning and SFC data-byte clobbers model the
 *    defended fault class (a canceled store wrote the entry; the flush
 *    machinery guarantees the byte's corrupt bit is set). These faults
 *    must be fully absorbed as replays/flushes — a checker divergence
 *    here is a real forwarding-path bug.
 *  - Early MDT evictions erase in-flight ordering records, which the
 *    design does NOT defend against; escaped violations must then be
 *    caught by the lockstep GoldenChecker.
 *  - Store-FIFO payload corruption (applied as the slot drains at
 *    retirement) is a direct architectural corruption that no in-core
 *    mechanism can mask; the checker must detect every injection.
 *
 * All randomness comes from one seeded Rng, so campaigns are
 * bit-for-bit reproducible. Each fault site has its own counter.
 */

#ifndef SLFWD_VERIFY_FAULT_INJECT_HH_
#define SLFWD_VERIFY_FAULT_INJECT_HH_

#include <cstdint>

#include "obs/hooks.hh"
#include "obs/stat_table.hh"
#include "sim/rng.hh"
#include "sim/stats.hh"

namespace slf
{

class Sfc;
class Mdt;

/** Per-site injection rates (probability per access; 0 disables). */
struct FaultInjectParams
{
    /** Per SFC access: OR a random live entry's valid mask into its
     *  corrupt mask (canceled-store poisoning). */
    double sfc_mask_rate = 0.0;
    /** Per SFC access: XOR a random in-flight data byte and set its
     *  corrupt bit (a canceled store's data landed in the entry). */
    double sfc_data_rate = 0.0;
    /** Per MDT access: evict a random valid entry, live or not. */
    double mdt_evict_rate = 0.0;
    /** Per store retirement: XOR the draining FIFO payload. */
    double fifo_payload_rate = 0.0;

    std::uint64_t seed = 0xfa017;

    bool
    anyEnabled() const
    {
        return sfc_mask_rate > 0.0 || sfc_data_rate > 0.0 ||
               mdt_evict_rate > 0.0 || fifo_payload_rate > 0.0;
    }

    bool operator==(const FaultInjectParams &) const = default;
};

class FaultInjector
{
  public:
    explicit FaultInjector(const FaultInjectParams &params);

    /** Called before every SFC load/store access; may poison the SFC. */
    void onSfcAccess(Sfc &sfc);

    /** Called before every MDT access; may evict an entry early. */
    void onMdtAccess(Mdt &mdt);

    /**
     * Called when a store's FIFO slot is about to drain to memory.
     * @return an XOR mask to apply to the payload (bit 0 always set so
     *         the value is guaranteed to change), or 0 for no fault.
     */
    std::uint64_t onStoreRetire(unsigned size);

    const FaultInjectParams &params() const { return params_; }

    std::uint64_t sfcMaskFaults() const { return sfc_mask_faults_.value(); }
    std::uint64_t sfcDataFaults() const { return sfc_data_faults_.value(); }
    std::uint64_t mdtEvictFaults() const { return mdt_evict_faults_.value(); }
    std::uint64_t
    fifoPayloadFaults() const
    {
        return fifo_payload_faults_.value();
    }

    StatGroup &stats() { return stats_; }
    /** Typed counter read (the name is compile-checked). */
    std::uint64_t statValue(obs::FaultStat s) const
    {
        return table_.value(s);
    }

    /** Attach an event sink; each injected fault emits a FaultInject. */
    void setTraceSink(obs::TraceSink *sink) { trace_ = sink; }

  private:
    FaultInjectParams params_;
    Rng rng_;
    obs::TraceSink *trace_ = nullptr;

    StatGroup stats_;
    obs::StatTable<obs::FaultStat> table_;
    Counter &sfc_mask_faults_;
    Counter &sfc_data_faults_;
    Counter &mdt_evict_faults_;
    Counter &fifo_payload_faults_;
};

} // namespace slf

#endif // SLFWD_VERIFY_FAULT_INJECT_HH_
