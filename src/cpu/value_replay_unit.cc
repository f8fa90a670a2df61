#include "value_replay_unit.hh"

#include "sim/logging.hh"

namespace slf
{

ValueReplayUnit::ValueReplayUnit(const CoreConfig &cfg, MainMemory &mem,
                                 CacheHierarchy &caches,
                                 MemDepPredictor &memdep)
    : MemUnit(mem, caches),
      cfg_(cfg)
{
    (void)memdep;   // value-based replay cannot identify the producer PC
    dep_hint_.assign(1024, 0);
}

bool
ValueReplayUnit::canDispatchLoad() const
{
    return lq_.size() < cfg_.lsq.lq_entries;
}

bool
ValueReplayUnit::canDispatchStore() const
{
    return sq_.size() < cfg_.lsq.sq_entries;
}

bool
ValueReplayUnit::dispatchLoad(DynInst &inst)
{
    if (lq_.size() >= cfg_.lsq.lq_entries)
        return false;
    lq_.push_back(inst.seq);
    return true;
}

bool
ValueReplayUnit::dispatchStore(DynInst &inst)
{
    if (sq_.size() >= cfg_.lsq.sq_entries)
        return false;
    StoreEntry e;
    e.seq = inst.seq;
    sq_.push_back(e);
    return true;
}

MemIssueOutcome
ValueReplayUnit::issueLoad(DynInst &inst, bool)
{
    MemIssueOutcome out;

    // Associative store-queue search (kept by this scheme), with
    // byte-accurate age-prioritized forwarding; the vulnerability flag
    // records whether an older store's address was still unresolved.
    // A hinted load conservatively waits until every older store
    // address is resolved (the scheme's stand-in for a producer link).
    if (dep_hint_[inst.pc & 1023]) {
        for (const StoreEntry &se : sq_) {
            if (se.seq < inst.seq && !se.executed) {
                out.kind = MemIssueOutcome::Kind::Replay;
                out.replay_reason = ReplayReason::DepWait;
                return out;
            }
        }
    }

    ++stats_[S::SqSearches];
    stats_[S::CamEntriesExamined] += sq_.size();

    std::uint64_t value = readCommitted(inst.addr, inst.size);
    std::uint8_t fwd_mask = 0;
    bool vulnerable = false;
    for (auto it = sq_.rbegin(); it != sq_.rend(); ++it) {
        const StoreEntry &se = *it;
        if (se.seq >= inst.seq)
            continue;
        if (!se.executed) {
            vulnerable = true;
            continue;
        }
        for (unsigned i = 0; i < inst.size; ++i) {
            const std::uint8_t bit = static_cast<std::uint8_t>(1u << i);
            if (fwd_mask & bit)
                continue;
            const Addr b = inst.addr + i;
            if (b >= se.addr && b < se.addr + se.size) {
                const unsigned off = static_cast<unsigned>(b - se.addr);
                value &= ~(std::uint64_t{0xff} << (8 * i));
                value |= std::uint64_t{static_cast<std::uint8_t>(
                             se.value >> (8 * off))}
                         << (8 * i);
                fwd_mask |= bit;
            }
        }
    }
    if (fwd_mask == static_cast<std::uint8_t>((1u << inst.size) - 1)) {
        ++stats_[S::FullForwards];
        caches_.accessData(inst.addr);
    } else {
        out.extra_latency = caches_.accessData(inst.addr);
    }

    inst.replay_vulnerable = vulnerable;
    out.load_value = value;
    return out;
}

MemIssueOutcome
ValueReplayUnit::issueStore(DynInst &inst, bool)
{
    // No load-queue search: violations surface at load retirement.
    ++store_exec_count_;
    for (auto it = sq_.rbegin(); it != sq_.rend(); ++it) {
        if (it->seq == inst.seq) {
            it->executed = true;
            it->addr = inst.addr;
            it->size = inst.size;
            it->value = inst.store_value;
            return MemIssueOutcome{};
        }
    }
    panic("ValueReplayUnit::issueStore: store not dispatched");
}

bool
ValueReplayUnit::retireLoad(DynInst &inst)
{
    if (lq_.empty() || lq_.front() != inst.seq)
        panic("ValueReplayUnit::retireLoad: head mismatch");
    if (cfg_.value_replay_filtered && !inst.replay_vulnerable) {
        lq_.pop_front();
        return true;
    }

    // Replay: the load is at the ROB head, so every older store has
    // committed and the cache hierarchy is authoritative.
    ++stats_[S::RetireReplays];
    caches_.accessData(inst.addr);
    const std::uint64_t now = readCommitted(inst.addr, inst.size);
    if (now == inst.result) {
        lq_.pop_front();
        return true;
    }
    // The load (still at the head, not popped) will be squashed and
    // refetched by the core. Remember its PC so later encounters wait
    // for older stores instead of speculating.
    ++stats_[S::RetireViolations];
    dep_hint_[inst.pc & 1023] = 1;
    return false;
}

void
ValueReplayUnit::retireStore(DynInst &inst)
{
    if (sq_.empty() || sq_.front().seq != inst.seq)
        panic("ValueReplayUnit::retireStore: head mismatch");
    const StoreEntry &se = sq_.front();
    if (!se.executed)
        panic("ValueReplayUnit::retireStore: unexecuted store retiring");
    mem_.writeBytes(se.addr, se.value, se.size);
    caches_.accessData(se.addr);
    sq_.pop_front();
}

void
ValueReplayUnit::squashFrom(SeqNum seq)
{
    while (!sq_.empty() && sq_.back().seq >= seq)
        sq_.pop_back();
    while (!lq_.empty() && lq_.back() >= seq)
        lq_.pop_back();
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
    snap.set(obs::OccStat::LoadQ, lq_.size(), cfg_.lsq.lq_entries);
    snap.set(obs::OccStat::StoreQ, sq_.size(), cfg_.lsq.sq_entries);
}

} // namespace slf
