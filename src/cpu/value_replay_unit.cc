#include "value_replay_unit.hh"

#include "sim/logging.hh"

namespace slf
{

ValueReplayUnit::ValueReplayUnit(const CoreConfig &cfg, MainMemory &mem,
                                 CacheHierarchy &caches)
    : MemUnit(mem, caches),
      cfg_(cfg),
      index_(cfg.lsq.lq_entries, cfg.lsq.sq_entries,
             [&mem](Addr a) { return mem.read8(a); })
{
    dep_hint_.assign(1024, 0);
}

bool
ValueReplayUnit::canDispatchLoad() const
{
    return index_.loadCount() < cfg_.lsq.lq_entries;
}

bool
ValueReplayUnit::canDispatchStore() const
{
    return index_.storeCount() < cfg_.lsq.sq_entries;
}

void
ValueReplayUnit::dispatchLoad(DynInst &inst)
{
    if (!index_.dispatchLoad(inst.seq, inst.pc))
        panic("ValueReplayUnit::dispatchLoad: load queue full");
}

void
ValueReplayUnit::dispatchStore(DynInst &inst)
{
    if (!index_.dispatchStore(inst.seq, inst.pc))
        panic("ValueReplayUnit::dispatchStore: store queue full");
}

MemIssueOutcome
ValueReplayUnit::issueLoad(DynInst &inst, bool)
{
    MemIssueOutcome out;

    // A load that issues while an older store's address is unresolved
    // is vulnerable: only those replay at retirement when filtered. A
    // hinted load conservatively waits until every older store address
    // is resolved (the scheme's stand-in for a producer link).
    const bool vulnerable = index_.unresolvedStoreBefore(inst.seq);
    if (vulnerable && dep_hint_[inst.pc & 1023]) {
        out.kind = MemIssueOutcome::Kind::Replay;
        out.replay_reason = ReplayReason::DepWait;
        return out;
    }

    // Associative store-queue search (kept by this scheme): the
    // youngest older store supplies each byte.
    ++stats_[S::SqSearches];
    stats_[S::CamEntriesExamined] += index_.storeCount();
    const OrderIndex::Forward f =
        index_.executeLoad(inst.seq, inst.addr, inst.size);
    if (forwardLoad(inst, f.mask, f.value, out))
        ++stats_[S::FullForwards];

    inst.replay_vulnerable = vulnerable;
    return out;
}

MemIssueOutcome
ValueReplayUnit::issueStore(DynInst &inst, bool)
{
    // No load-queue search: violations surface at load retirement.
    ++store_exec_count_;
    index_.executeStore(inst.seq, inst.addr, inst.size, inst.store_value);
    return MemIssueOutcome{};
}

bool
ValueReplayUnit::retireLoad(DynInst &inst)
{
    if (cfg_.value_replay_filtered && !inst.replay_vulnerable) {
        index_.retireLoad(inst.seq);
        return true;
    }

    // Replay: the load is at the ROB head, so every older store has
    // committed and the cache hierarchy is authoritative.
    ++stats_[S::RetireReplays];
    caches_.accessData(inst.addr);
    const std::uint64_t now = readCommitted(inst.addr, inst.size);
    if (now == inst.result) {
        index_.retireLoad(inst.seq);
        return true;
    }
    // The load (still at the head, not retired) will be squashed and
    // refetched by the core. Remember its PC so later encounters wait
    // for older stores instead of speculating.
    ++stats_[S::RetireViolations];
    dep_hint_[inst.pc & 1023] = 1;
    return false;
}

void
ValueReplayUnit::retireStore(DynInst &inst)
{
    const OrderIndex::StoreData data = index_.retireStore(inst.seq);
    mem_.writeBytes(data.addr, data.value, data.size);
    caches_.accessData(data.addr);
}

void
ValueReplayUnit::squashFrom(SeqNum seq)
{
    index_.squashFrom(seq);
}

void
ValueReplayUnit::exportStats(SimResult &r) const
{
    r.lsq_forwards = statValue(S::FullForwards);
    r.viol_true = statValue(S::RetireViolations);
    r.cam_entries_examined = statValue(S::CamEntriesExamined);
    r.lsq_searches = statValue(S::SqSearches);
}

void
ValueReplayUnit::snapshotOccupancy(obs::OccSnapshot &snap) const
{
    snap.set(obs::OccStat::LoadQ, index_.loadCount(), cfg_.lsq.lq_entries);
    snap.set(obs::OccStat::StoreQ, index_.storeCount(),
             cfg_.lsq.sq_entries);
}

} // namespace slf
