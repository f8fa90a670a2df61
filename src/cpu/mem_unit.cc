#include "mem_unit.hh"

#include <cinttypes>
#include <sstream>

#include "cpu/value_replay_unit.hh"
#include "obs/trace_sink.hh"
#include "sim/logging.hh"
#include "verify/fault_inject.hh"

namespace slf
{

namespace
{

[[maybe_unused]] obs::MdtCheckDetail
mdtCheckDetail(const MdtAccess &a)
{
    switch (a.status) {
      case MdtAccess::Status::Ok:
        return obs::MdtCheckDetail::Ok;
      case MdtAccess::Status::Conflict:
        return obs::MdtCheckDetail::Conflict;
      case MdtAccess::Status::Violation:
        switch (a.kind) {
          case DepKind::True: return obs::MdtCheckDetail::ViolTrue;
          case DepKind::Anti: return obs::MdtCheckDetail::ViolAnti;
          case DepKind::Output: return obs::MdtCheckDetail::ViolOutput;
        }
    }
    return obs::MdtCheckDetail::Ok;
}

[[maybe_unused]] obs::SfcProbeDetail
sfcProbeDetail(SfcLoadResult::Status s)
{
    switch (s) {
      case SfcLoadResult::Status::Miss: return obs::SfcProbeDetail::Miss;
      case SfcLoadResult::Status::Full: return obs::SfcProbeDetail::Full;
      case SfcLoadResult::Status::Partial:
        return obs::SfcProbeDetail::Partial;
      case SfcLoadResult::Status::Corrupt:
        return obs::SfcProbeDetail::Corrupt;
    }
    return obs::SfcProbeDetail::Miss;
}

} // namespace

bool
MemUnit::forwardLoad(const DynInst &inst, std::uint8_t fwd_mask,
                     std::uint64_t fwd_value, MemIssueOutcome &out)
{
    std::uint64_t value = readCommitted(inst.addr, inst.size);
    for (unsigned i = 0; i < inst.size; ++i) {
        if (fwd_mask & (1u << i)) {
            const std::uint64_t byte = std::uint64_t{0xff} << (8 * i);
            value = (value & ~byte) | (fwd_value & byte);
        }
    }
    out.load_value = value;
    if (fwd_mask == static_cast<std::uint8_t>((1u << inst.size) - 1)) {
        caches_.accessData(inst.addr);
        return true;
    }
    out.extra_latency = caches_.accessData(inst.addr);
    return false;
}

// ---------------------------------------------------------------------
// MdtSfcUnit
// ---------------------------------------------------------------------

MdtSfcUnit::MdtSfcUnit(const CoreConfig &cfg, MainMemory &mem,
                       CacheHierarchy &caches, MemDepPredictor &memdep)
    : MemUnit(mem, caches),
      cfg_(cfg),
      memdep_(memdep),
      mdt_(cfg.mdt),
      sfc_(cfg.sfc),
      fifo_(cfg.rob_entries)
{}

void
MdtSfcUnit::dispatchLoad(DynInst &)
{
    // Loads need no queue slot: the MDT replaces the load queue.
}

void
MdtSfcUnit::dispatchStore(DynInst &inst)
{
    if (!fifo_.allocate(inst.seq))
        panic("MdtSfcUnit::dispatchStore: store FIFO full");
}

void
MdtSfcUnit::headBypassStore(DynInst &inst)
{
    // "If the instruction is a store, it writes its value to the store
    // FIFO and retires" (Section 2.2): the bypass is atomic with
    // commitment. The store is the oldest instruction and nothing can
    // squash it, so its value becomes architectural immediately —
    // otherwise a younger load issuing in the same cycle could read
    // stale memory with no MDT re-check left to catch it (the store
    // never accesses the MDT again).
    ++stats_[S::HeadBypasses];
    inst.head_bypassed = true;
    fifo_.fill(inst.seq, inst.addr, inst.size, inst.store_value);
    mem_.writeBytes(inst.addr, inst.store_value, inst.size);
    SLF_OBS_EMIT(trace_, obs::EventKind::FifoCommit, obs::Track::StoreFifo,
                 inst.seq, inst.pc, inst.addr, inst.store_value, 0);
}

MemIssueOutcome
MdtSfcUnit::issueLoad(DynInst &inst, bool at_rob_head)
{
    MemIssueOutcome out;

    if (at_rob_head) {
        // All older stores have retired: the cache hierarchy is
        // authoritative, so skip the SFC and MDT entirely.
        ++stats_[S::HeadBypasses];
        inst.head_bypassed = true;
        out.load_value = readCommitted(inst.addr, inst.size);
        out.extra_latency = caches_.accessData(inst.addr);
        return out;
    }

    if (injector_)
        injector_->onSfcAccess(sfc_);
    const SfcLoadResult sfc = sfc_.loadRead(inst.addr, inst.size);
    SLF_OBS_EMIT(trace_, obs::EventKind::SfcProbe, obs::Track::Sfc,
                 inst.seq, inst.pc, inst.addr, sfc.value,
                 sfcProbeDetail(sfc.status));
    if (sfc.status == SfcLoadResult::Status::Corrupt) {
        ++stats_[S::LoadReplaysSfcCorrupt];
        out.kind = MemIssueOutcome::Kind::Replay;
        out.replay_reason = ReplayReason::SfcCorrupt;
        return out;
    }
    if (sfc.status == SfcLoadResult::Status::Partial &&
        !cfg_.partial_match_merges) {
        ++stats_[S::LoadReplaysSfcPartial];
        out.kind = MemIssueOutcome::Kind::Replay;
        out.replay_reason = ReplayReason::SfcPartial;
        return out;
    }
    // The SFC's valid bytes (none on a miss) over committed memory.
    if (forwardLoad(inst, sfc.valid_mask, sfc.value, out))
        ++stats_[S::SfcForwards];

    if (injector_)
        injector_->onMdtAccess(mdt_);
    const MdtAccess mdt =
        mdt_.accessLoad(inst.addr, inst.size, inst.seq, inst.pc);
    SLF_OBS_EMIT(trace_, obs::EventKind::MdtCheck, obs::Track::Mdt,
                 inst.seq, inst.pc, inst.addr, mdt.producer_pc,
                 mdtCheckDetail(mdt));
    if (mdt.status == MdtAccess::Status::Conflict) {
        ++stats_[S::LoadReplaysMdtConflict];
        out.kind = MemIssueOutcome::Kind::Replay;
        out.replay_reason = ReplayReason::MdtConflict;
        return out;
    }
    if (mdt.status == MdtAccess::Status::Violation) {
        memdep_.reportViolation(mdt.producer_pc, mdt.consumer_pc, mdt.kind);
        out.kind = MemIssueOutcome::Kind::Violation;
        out.dep_kind = mdt.kind;
        out.squash_from = mdt.squash_from;
        out.producer_pc = mdt.producer_pc;
        out.consumer_pc = mdt.consumer_pc;
        return out;
    }

    inst.mem_registered = true;
    return out;
}

MemIssueOutcome
MdtSfcUnit::issueStore(DynInst &inst, bool at_rob_head)
{
    MemIssueOutcome out;

    // The MDT is accessed before the SFC write lands. This matters for
    // soundness: if the SFC accepted the data while the MDT conflicted,
    // an older load could forward the younger store's value with no
    // store sequence number recorded to trip the anti-dependence check.
    if (injector_)
        injector_->onMdtAccess(mdt_);
    const MdtAccess mdt =
        mdt_.accessStore(inst.addr, inst.size, inst.seq, inst.pc);
    SLF_OBS_EMIT(trace_, obs::EventKind::MdtCheck, obs::Track::Mdt,
                 inst.seq, inst.pc, inst.addr, mdt.producer_pc,
                 mdtCheckDetail(mdt));
    if (mdt.status == MdtAccess::Status::Conflict) {
        if (at_rob_head) {
            // Head bypass (Section 2.2). Skipping the MDT here is sound:
            // a conflict means no entry exists for the block, and any
            // younger completed load to the block would have allocated
            // (and would still pin) that entry.
            headBypassStore(inst);
            return out;
        }
        ++stats_[S::StoreReplaysMdtConflict];
        out.kind = MemIssueOutcome::Kind::Replay;
        out.replay_reason = ReplayReason::MdtConflict;
        return out;
    }
    inst.mem_registered = true;

    if (injector_)
        injector_->onSfcAccess(sfc_);
    const SfcStoreResult sres =
        sfc_.storeWrite(inst.addr, inst.size, inst.store_value, inst.seq);
    SLF_OBS_EMIT(trace_, obs::EventKind::SfcProbe, obs::Track::Sfc,
                 inst.seq, inst.pc, inst.addr, inst.store_value,
                 sres == SfcStoreResult::Conflict
                     ? obs::SfcProbeDetail::StoreConflict
                     : obs::SfcProbeDetail::StoreAccept);
    if (sres == SfcStoreResult::Conflict) {
        if (at_rob_head) {
            // The MDT check above already ran (catching any younger
            // completed load), so retiring straight from the FIFO and
            // committing to the cache is safe.
            headBypassStore(inst);
            if (mdt.status == MdtAccess::Status::Violation) {
                memdep_.reportViolation(mdt.producer_pc, mdt.consumer_pc,
                                        mdt.kind);
                if (mdt.has_secondary) {
                    memdep_.reportViolation(mdt.producer2_pc,
                                            mdt.consumer2_pc, mdt.kind2);
                }
                out.kind = MemIssueOutcome::Kind::Violation;
                out.dep_kind = mdt.kind;
                out.squash_from = mdt.squash_from;
                out.producer_pc = mdt.producer_pc;
                out.consumer_pc = mdt.consumer_pc;
            }
            return out;
        }
        ++stats_[S::StoreReplaysSfcConflict];
        out.kind = MemIssueOutcome::Kind::Replay;
        out.replay_reason = ReplayReason::SfcConflict;
        return out;
    }
    // Model the SFC tag check as one extra cycle of store latency.
    if (cfg_.sfc_store_extra_cycle)
        out.extra_latency += 1;

    // The store itself completes even when it trips a violation (the
    // flush point is always younger), so fill its FIFO slot now.
    fifo_.fill(inst.seq, inst.addr, inst.size, inst.store_value);

    if (mdt.status == MdtAccess::Status::Violation) {
        memdep_.reportViolation(mdt.producer_pc, mdt.consumer_pc, mdt.kind);
        if (mdt.has_secondary) {
            memdep_.reportViolation(mdt.producer2_pc, mdt.consumer2_pc,
                                    mdt.kind2);
        }
        if (mdt.kind == DepKind::Output && cfg_.output_dep_marks_corrupt) {
            // Section 2.4.2: instead of flushing, poison the overwritten
            // SFC bytes and let the normal corruption machinery recover.
            sfc_.markCorrupt(inst.addr, inst.size);
            return out;
        }
        out.kind = MemIssueOutcome::Kind::Violation;
        out.dep_kind = mdt.kind;
        out.squash_from = mdt.squash_from;
        out.producer_pc = mdt.producer_pc;
        out.consumer_pc = mdt.consumer_pc;
    }
    return out;
}

bool
MdtSfcUnit::retireLoad(DynInst &inst)
{
    if (inst.mem_registered)
        mdt_.retireLoad(inst.addr, inst.size, inst.seq);
    return true;
}

void
MdtSfcUnit::retireStore(DynInst &inst)
{
    // Store-FIFO payload faults land at the drain point so every injected
    // corruption is architecturally consumed (the slot's value is what
    // commits to memory) — the golden checker must catch each one.
    if (injector_) {
        const std::uint64_t xm = injector_->onStoreRetire(fifo_.head().size);
        if (xm)
            fifo_.corruptHeadPayload(xm);
    }
    const StoreFifo::Slot slot = fifo_.retireHead(inst.seq);
    mem_.writeBytes(slot.addr, slot.value, slot.size);
    caches_.accessData(slot.addr);   // commit allocates in the L1D
    SLF_OBS_EMIT(trace_, obs::EventKind::FifoCommit, obs::Track::StoreFifo,
                 inst.seq, inst.pc, slot.addr, slot.value, 0);

    if (inst.mem_registered)
        mdt_.retireStore(inst.addr, inst.size, inst.seq);
    // The SFC frees an entry when the youngest store that wrote it
    // retires; it tracks that sequence number itself.
    sfc_.retireStore(inst.addr, inst.size, inst.seq);
}

void
MdtSfcUnit::squashFrom(SeqNum seq)
{
    fifo_.squashFrom(seq);
    // The MDT and SFC deliberately ignore partial flushes (Section 2.2 /
    // 2.3); onPartialFlush() handles the corruption marking.
}

void
MdtSfcUnit::onPartialFlush(SeqNum from, SeqNum to)
{
    sfc_.partialFlush(from, to);
}

void
MdtSfcUnit::setOldestInflight(SeqNum seq)
{
    mdt_.setOldestInflight(seq);
    sfc_.setOldestInflight(seq);
}

std::uint64_t
MdtSfcUnit::evictionCount() const
{
    return mdt_.evictionCount() + sfc_.evictionCount();
}

void
MdtSfcUnit::snapshotOccupancy(obs::OccSnapshot &snap) const
{
    snap.set(obs::OccStat::MdtValid, mdt_.validEntries());
    snap.set(obs::OccStat::SfcValid, sfc_.validEntries());
    snap.set(obs::OccStat::StoreFifo, fifo_.size(), fifo_.capacity());
}

std::string
MemUnit::occupancyDump() const
{
    obs::OccSnapshot snap;
    snapshotOccupancy(snap);
    return snap.toString();
}

void
MdtSfcUnit::exportStats(SimResult &r) const
{
    r.load_replays_sfc_corrupt = statValue(S::LoadReplaysSfcCorrupt);
    r.load_replays_sfc_partial = statValue(S::LoadReplaysSfcPartial);
    r.load_replays_mdt_conflict = statValue(S::LoadReplaysMdtConflict);
    r.store_replays_sfc_conflict = statValue(S::StoreReplaysSfcConflict);
    r.store_replays_mdt_conflict = statValue(S::StoreReplaysMdtConflict);
    r.sfc_forwards = statValue(S::SfcForwards);
    r.head_bypasses = statValue(S::HeadBypasses);
    r.viol_true = mdt_.statValue(obs::MdtStat::ViolationsTrue);
    r.viol_anti = mdt_.statValue(obs::MdtStat::ViolationsAnti);
    r.viol_output = mdt_.statValue(obs::MdtStat::ViolationsOutput);
    r.mdt_accesses = mdt_.statValue(obs::MdtStat::Accesses);
    r.sfc_accesses = sfc_.statValue(obs::SfcStat::LoadReads) +
                     sfc_.statValue(obs::SfcStat::StoreWrites);
}

// ---------------------------------------------------------------------
// LsqUnit
// ---------------------------------------------------------------------

LsqUnit::LsqUnit(const CoreConfig &cfg, MainMemory &mem,
                 CacheHierarchy &caches, MemDepPredictor &memdep)
    : MemUnit(mem, caches),
      memdep_(memdep),
      lsq_(cfg.lsq, [&mem](Addr a) { return mem.read8(a); })
{}

bool
LsqUnit::canDispatchLoad() const
{
    return lsq_.loadQueueSize() < lsq_.params().lq_entries;
}

bool
LsqUnit::canDispatchStore() const
{
    return lsq_.storeQueueSize() < lsq_.params().sq_entries;
}

void
LsqUnit::dispatchLoad(DynInst &inst)
{
    if (!lsq_.dispatchLoad(inst.seq, inst.pc))
        panic("LsqUnit::dispatchLoad: load queue full");
}

void
LsqUnit::dispatchStore(DynInst &inst)
{
    if (!lsq_.dispatchStore(inst.seq, inst.pc))
        panic("LsqUnit::dispatchStore: store queue full");
}

MemIssueOutcome
LsqUnit::issueLoad(DynInst &inst, bool)
{
    MemIssueOutcome out;
    const LsqLoadResult fwd = lsq_.executeLoad(inst.seq, inst.addr,
                                               inst.size);
    if (forwardLoad(inst, fwd.forward_mask, fwd.forward_value, out))
        ++stats_[S::FullForwards];
    lsq_.loadCompleted(inst.seq, out.load_value);
    inst.mem_registered = true;
    return out;
}

MemIssueOutcome
LsqUnit::issueStore(DynInst &inst, bool)
{
    MemIssueOutcome out;
    const auto violation = lsq_.executeStore(inst.seq, inst.addr, inst.size,
                                             inst.store_value);
    inst.mem_registered = true;
    if (violation) {
        memdep_.reportViolation(violation->store_pc, violation->load_pc,
                                DepKind::True);
        out.kind = MemIssueOutcome::Kind::Violation;
        out.dep_kind = DepKind::True;
        out.squash_from = violation->squash_from;
        out.producer_pc = violation->store_pc;
        out.consumer_pc = violation->load_pc;
    }
    return out;
}

bool
LsqUnit::retireLoad(DynInst &inst)
{
    lsq_.retireLoad(inst.seq);
    return true;
}

void
LsqUnit::retireStore(DynInst &inst)
{
    const Lsq::StoreData data = lsq_.retireStore(inst.seq);
    mem_.writeBytes(data.addr, data.value, data.size);
    caches_.accessData(data.addr);
}

void
LsqUnit::squashFrom(SeqNum seq)
{
    lsq_.squashFrom(seq);
}

void
LsqUnit::snapshotOccupancy(obs::OccSnapshot &snap) const
{
    snap.set(obs::OccStat::LoadQ, lsq_.loadQueueSize(),
             lsq_.params().lq_entries);
    snap.set(obs::OccStat::StoreQ, lsq_.storeQueueSize(),
             lsq_.params().sq_entries);
}

void
LsqUnit::exportStats(SimResult &r) const
{
    r.lsq_forwards = statValue(obs::LsqUnitStat::FullForwards);
    r.viol_true = lsq_.statValue(obs::LsqStat::ViolationsTrue);
    r.cam_entries_examined =
        lsq_.statValue(obs::LsqStat::CamEntriesExamined);
    r.lsq_searches = lsq_.statValue(obs::LsqStat::LqSearches) +
                     lsq_.statValue(obs::LsqStat::SqSearches);
}

std::unique_ptr<MemUnit>
makeMemUnit(const CoreConfig &cfg, MainMemory &mem, CacheHierarchy &caches,
            MemDepPredictor &memdep)
{
    switch (cfg.subsys) {
      case MemSubsystem::LsqBaseline:
        return std::make_unique<LsqUnit>(cfg, mem, caches, memdep);
      case MemSubsystem::MdtSfc:
        return std::make_unique<MdtSfcUnit>(cfg, mem, caches, memdep);
      case MemSubsystem::ValueReplay:
        return std::make_unique<ValueReplayUnit>(cfg, mem, caches);
    }
    panic("makeMemUnit: unknown subsystem");
}

} // namespace slf
