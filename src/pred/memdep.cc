#include "memdep.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace slf
{

MemDepPredictor::MemDepPredictor(const MemDepParams &params)
    : params_(params),
      stats_("memdep"),
      table_(stats_),
      violations_true_(table_[obs::MemDepStat::ViolationsTrue]),
      violations_anti_(table_[obs::MemDepStat::ViolationsAnti]),
      violations_output_(table_[obs::MemDepStat::ViolationsOutput]),
      deps_inserted_(table_[obs::MemDepStat::DepsInserted]),
      tag_exhaustion_(table_[obs::MemDepStat::TagExhaustionStalls])
{
    auto pow2 = [](std::uint64_t v) { return v && !(v & (v - 1)); };
    if (!pow2(params.table_entries) || !pow2(params.lfpt_entries))
        fatal("MemDepPredictor: table sizes must be powers of two");
    if (params.num_set_ids == 0 || params.num_tags == 0)
        fatal("MemDepPredictor: id/tag spaces must be nonzero");

    pt_.assign(params.table_entries, kInvalidSet);
    ct_.assign(params.table_entries, kInvalidSet);
    lfpt_.assign(params.lfpt_entries, LfptEntry{});

    free_tags_.reserve(params.num_tags);
    for (DepTag t = 0; t < params.num_tags; ++t)
        free_tags_.push_back(params.num_tags - 1 - t);
    tag_lfpt_slot_.assign(params.num_tags, ~std::uint64_t{0});
}

std::uint64_t
MemDepPredictor::pcIndex(std::uint64_t pc) const
{
    return pc & (params_.table_entries - 1);
}

std::uint64_t
MemDepPredictor::lfptIndex(std::uint32_t set_id) const
{
    return set_id & (params_.lfpt_entries - 1);
}

bool
MemDepPredictor::trains(DepKind kind) const
{
    switch (params_.mode) {
      case MemDepMode::LsqStoreSet:
      case MemDepMode::EnforceTrueOnly:
        return kind == DepKind::True;
      case MemDepMode::EnforceAll:
      case MemDepMode::EnforceAllTotalOrder:
        return true;
    }
    return false;
}

std::optional<MemDepLookup>
MemDepPredictor::dispatch(std::uint64_t pc, bool is_load, bool is_store)
{
    const std::uint64_t idx = pcIndex(pc);
    MemDepLookup result;

    // Role filtering: with the LSQ, only loads consume and only stores
    // produce (classic store sets, Section 2.1). With the MDT/SFC, any
    // memory instruction may play either role.
    const bool may_consume =
        params_.mode == MemDepMode::LsqStoreSet ? is_load
                                                : (is_load || is_store);
    const bool may_produce =
        params_.mode == MemDepMode::LsqStoreSet ? is_store
                                                : (is_load || is_store);

    // Consume first so a producer-and-consumer chains onto the previous
    // member of its set before advertising its own tag.
    if (may_consume && ct_[idx] != kInvalidSet) {
        const LfptEntry &e = lfpt_[lfptIndex(ct_[idx])];
        if (e.valid)
            result.consumed = e.tag;
    }

    if (may_produce && pt_[idx] != kInvalidSet) {
        if (free_tags_.empty()) {
            ++tag_exhaustion_;
            return std::nullopt;
        }
        DepTag tag = free_tags_.back();
        free_tags_.pop_back();
        const std::uint64_t slot = lfptIndex(pt_[idx]);
        lfpt_[slot].valid = true;
        lfpt_[slot].tag = tag;
        tag_lfpt_slot_[tag] = slot;
        result.produced = tag;
    }

    return result;
}

std::uint32_t
MemDepPredictor::allocSetId()
{
    std::uint32_t id = next_set_id_;
    next_set_id_ = (next_set_id_ + 1) % params_.num_set_ids;
    return id;
}

void
MemDepPredictor::assignSets(std::uint64_t producer_pc,
                            std::uint64_t consumer_pc,
                            bool producer_also_consumes,
                            bool consumer_also_produces)
{
    const std::uint64_t p_idx = pcIndex(producer_pc);
    const std::uint64_t c_idx = pcIndex(consumer_pc);

    std::uint32_t p_set = pt_[p_idx];
    std::uint32_t c_set = ct_[c_idx];

    std::uint32_t set;
    if (p_set == kInvalidSet && c_set == kInvalidSet) {
        set = allocSetId();
    } else if (p_set == kInvalidSet) {
        set = c_set;
    } else if (c_set == kInvalidSet) {
        set = p_set;
    } else {
        // Both already belong to sets: merge by choosing the smaller id
        // (the store-set merge rule).
        set = std::min(p_set, c_set);
    }

    pt_[p_idx] = set;
    ct_[c_idx] = set;
    if (producer_also_consumes)
        ct_[p_idx] = set;
    if (consumer_also_produces)
        pt_[c_idx] = set;

    ++deps_inserted_;
}

void
MemDepPredictor::reportViolation(std::uint64_t producer_pc,
                                 std::uint64_t consumer_pc, DepKind kind)
{
    switch (kind) {
      case DepKind::True: ++violations_true_; break;
      case DepKind::Anti: ++violations_anti_; break;
      case DepKind::Output: ++violations_output_; break;
    }

    if (!trains(kind))
        return;

    const bool total = params_.mode == MemDepMode::EnforceAllTotalOrder;
    assignSets(producer_pc, consumer_pc, total, total);
}

void
MemDepPredictor::releaseTag(DepTag tag)
{
    if (tag >= params_.num_tags)
        panic("MemDepPredictor::releaseTag: bad tag");
    const std::uint64_t slot = tag_lfpt_slot_[tag];
    if (slot != ~std::uint64_t{0}) {
        if (lfpt_[slot].valid && lfpt_[slot].tag == tag)
            lfpt_[slot].valid = false;
        tag_lfpt_slot_[tag] = ~std::uint64_t{0};
    }
    free_tags_.push_back(tag);
}

void
MemDepPredictor::reset()
{
    std::fill(pt_.begin(), pt_.end(), kInvalidSet);
    std::fill(ct_.begin(), ct_.end(), kInvalidSet);
    std::fill(lfpt_.begin(), lfpt_.end(), LfptEntry{});
    free_tags_.clear();
    for (DepTag t = 0; t < params_.num_tags; ++t)
        free_tags_.push_back(static_cast<DepTag>(params_.num_tags - 1 - t));
    std::fill(tag_lfpt_slot_.begin(), tag_lfpt_slot_.end(),
              ~std::uint64_t{0});
    next_set_id_ = 0;
}

} // namespace slf
