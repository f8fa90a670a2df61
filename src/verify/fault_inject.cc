#include "fault_inject.hh"

#include "core/mdt.hh"
#include "core/sfc.hh"
#include "obs/trace_sink.hh"

namespace slf
{

FaultInjector::FaultInjector(const FaultInjectParams &params)
    : params_(params),
      rng_(params.seed)
{}

void
FaultInjector::onSfcAccess(Sfc &sfc)
{
    if (params_.sfc_mask_rate > 0.0 && rng_.chance(params_.sfc_mask_rate) &&
        sfc.injectCorruptMask(rng_)) {
        ++stats_[S::SfcMaskFaults];
        SLF_OBS_EMIT(trace_, obs::EventKind::FaultInject, obs::Track::Verify,
                     0, 0, 0, stats_.value(S::SfcMaskFaults),
                     obs::FaultDetail::SfcMask);
    }
    if (params_.sfc_data_rate > 0.0 && rng_.chance(params_.sfc_data_rate) &&
        sfc.injectDataClobber(rng_,
                              static_cast<std::uint8_t>(rng_.next()))) {
        ++stats_[S::SfcDataFaults];
        SLF_OBS_EMIT(trace_, obs::EventKind::FaultInject, obs::Track::Verify,
                     0, 0, 0, stats_.value(S::SfcDataFaults),
                     obs::FaultDetail::SfcData);
    }
}

void
FaultInjector::onMdtAccess(Mdt &mdt)
{
    if (params_.mdt_evict_rate > 0.0 &&
        rng_.chance(params_.mdt_evict_rate) && mdt.injectEviction(rng_)) {
        ++stats_[S::MdtEvictFaults];
        SLF_OBS_EMIT(trace_, obs::EventKind::FaultInject, obs::Track::Verify,
                     0, 0, 0, stats_.value(S::MdtEvictFaults),
                     obs::FaultDetail::MdtEvict);
    }
}

std::uint64_t
FaultInjector::onStoreRetire(unsigned size)
{
    if (params_.fifo_payload_rate <= 0.0 ||
        !rng_.chance(params_.fifo_payload_rate)) {
        return 0;
    }
    const std::uint64_t byte_mask =
        size >= 8 ? ~std::uint64_t{0}
                  : ((std::uint64_t{1} << (8 * size)) - 1);
    ++stats_[S::FifoPayloadFaults];
    SLF_OBS_EMIT(trace_, obs::EventKind::FaultInject, obs::Track::Verify,
                 0, 0, 0, stats_.value(S::FifoPayloadFaults),
                 obs::FaultDetail::FifoPayload);
    // Bit 0 is always flipped so the stored value provably changes.
    return (rng_.next() & byte_mask) | 1;
}

} // namespace slf
