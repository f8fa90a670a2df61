#include "ooo_core.hh"

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstring>
#include <sstream>

#include "obs/trace_sink.hh"
#include "sim/logging.hh"

namespace slf
{

namespace
{

/** Wait kinds of a scheduler resident (bit positions in waits_). */
enum WaitKind : unsigned
{
    kWaitSrc1 = 0,
    kWaitSrc2 = 1,
    kWaitTag = 2,
    kNumWaitKinds = 3,
};
/** Wait nodes reserved per ROB slot (a power of two, so node / slot
 *  conversion is a shift). */
constexpr std::size_t kWaitKinds = 4;

} // namespace

OooCore::OooCore(const CoreConfig &cfg, const Program &prog)
    : cfg_(cfg),
      prog_(prog),
      caches_(cfg.l1i, cfg.l1d, cfg.l2),
      gshare_(cfg.gshare_bits, cfg.gshare_history_bits),
      oracle_rng_(cfg.rng_seed),
      memdep_(cfg.memdep),
      // The stream ends where the old whole-run trace did: fetch can
      // reach at most one window past the retirement limit. The sum
      // saturates: it must never fall below max_insts.
      stream_(prog,
              std::max(cfg.max_insts, cfg.max_insts + cfg.rob_entries +
                                          cfg.fetch_queue_entries + 64),
              cfg.rob_entries + cfg.fetch_queue_entries + 64),
      rob_(std::size_t{cfg.rob_entries} + cfg.fetch_queue_entries),
      trace_(cfg.obs.trace),
      profiler_(cfg.obs.profiler),
      lifetime_(cfg.obs.lifetime),
      stats_("core"),
      table_(stats_),
      insts_retired_(table_[obs::CoreStat::InstsRetired]),
      loads_retired_(table_[obs::CoreStat::LoadsRetired]),
      stores_retired_(table_[obs::CoreStat::StoresRetired]),
      branches_retired_(table_[obs::CoreStat::BranchesRetired]),
      mispredicts_(table_[obs::CoreStat::BranchMispredicts]),
      oracle_fixes_(table_[obs::CoreStat::OracleFixedMispredicts]),
      replays_(table_[obs::CoreStat::MemReplays]),
      violation_flushes_true_(table_[obs::CoreStat::ViolationFlushesTrue]),
      violation_flushes_anti_(table_[obs::CoreStat::ViolationFlushesAnti]),
      violation_flushes_output_(
          table_[obs::CoreStat::ViolationFlushesOutput]),
      spurious_violations_(table_[obs::CoreStat::SpuriousViolations]),
      dispatch_stalls_(table_[obs::CoreStat::DispatchStallCycles])
{
    if (cfg_.width == 0 || cfg_.num_fus == 0 || cfg_.rob_entries == 0 ||
        cfg_.sched_entries == 0) {
        fatal("OooCore: pipeline dimensions must be nonzero");
    }

    mem_.loadInitialImage(prog);
    memu_ = makeMemUnit(cfg_, mem_, caches_, memdep_);
    memu_->setTraceSink(trace_);
    occ_.setEnabled(cfg_.obs.sample_occupancy);

    if (cfg_.validate) {
        checker_ = std::make_unique<GoldenChecker>(prog, cfg_.check_abort);
        checker_->setTraceSink(trace_);
    }
    if (cfg_.fault.anyEnabled()) {
        injector_ = std::make_unique<FaultInjector>(cfg_.fault);
        injector_->setTraceSink(trace_);
        memu_->setFaultInjector(injector_.get());
    }
    Debug::setCycleSource(&cycle_);

    if (cfg_.deadline_ms) {
        const auto now =
            std::chrono::steady_clock::now().time_since_epoch();
        deadline_at_ns_ =
            std::uint64_t(
                std::chrono::duration_cast<std::chrono::nanoseconds>(now)
                    .count()) +
            cfg_.deadline_ms * 1'000'000ull;
    }

    // Physical register file: arch regs plus one rename slot per window
    // entry. preg 0 is the hardwired zero register and is never freed.
    const std::size_t npregs =
        kNumArchRegs + cfg_.rob_entries + cfg_.width * 2;
    if (npregs > kInvalidPhysReg)
        fatal("OooCore: physical register file too large for PhysRegIndex");
    preg_val_.assign(npregs, 0);
    preg_ready_.assign(npregs, 1);
    for (std::size_t p = npregs; p-- > 1;)
        preg_free_.push_back(static_cast<PhysRegIndex>(p));
    rat_.fill(0);

    tag_ready_.assign(memdep_.numTags(), 1);
    tag_owner_seq_.assign(memdep_.numTags(), kInvalidSeqNum);

    // Scheduler index: one wait node per (ring slot, wait kind), one
    // ready bit per ring slot, one wakeup-list head per preg and per tag.
    const std::size_t slots = rob_.capacity();
    wait_next_.assign(slots * kWaitKinds, kNoWaiter);
    wait_prev_.assign(slots * kWaitKinds, kNoWaiter);
    waits_.assign(slots, 0);
    ready_bits_.assign((slots + 63) / 64, 0);
    wait_heads_.assign(npregs + memdep_.numTags(), kNoWaiter);
}

OooCore::~OooCore()
{
    Debug::clearCycleSource(&cycle_);
}

SeqNum
OooCore::oldestInflightSeq() const
{
    return rob_.empty() ? next_seq_ : rob_.front().seq;
}

bool
OooCore::sourcesReady(const DynInst &inst) const
{
    if (readsSrc1(inst.si.op) && !preg_ready_[inst.src1_preg])
        return false;
    if (readsSrc2(inst.si.op) && !preg_ready_[inst.src2_preg])
        return false;
    return true;
}

bool
OooCore::consumedTagReady(const DynInst &inst) const
{
    if (!inst.has_consumed_tag)
        return true;
    if (tag_ready_[inst.consumed_tag])
        return true;
    // The tag was recycled to another producer: the original producer is
    // gone (retired or squashed), so the dependence is satisfied.
    return tag_owner_seq_[inst.consumed_tag] != inst.consumed_tag_owner;
}

Cycle
OooCore::opLatency(Op op) const
{
    if (isMul(op))
        return cfg_.mul_latency;
    if (op == Op::FDIV)
        return cfg_.fp_latency * 3;
    if (isFpClass(op))
        return cfg_.fp_latency;
    return cfg_.alu_latency;
}

void
OooCore::scheduleCompletion(DynInst &inst, Cycle latency)
{
    completions_.push_back(Completion{
        cycle_ + std::max<Cycle>(latency, 1), &inst, inst.seq});
}

void
OooCore::writebackDst(DynInst &inst)
{
    if (inst.dst_preg == kInvalidPhysReg)
        return;
    preg_val_[inst.dst_preg] = inst.result;
    preg_ready_[inst.dst_preg] = 1;
    wakeWaiters(inst.dst_preg);
}

void
OooCore::readyProducedTag(DynInst &inst)
{
    if (inst.has_produced_tag)
        readyTag(inst.produced_tag);
}

void
OooCore::readyTag(DepTag tag)
{
    tag_ready_[tag] = 1;
    wakeWaiters(preg_ready_.size() + tag);
}

// ---------------------------------------------------------------------
// Scheduler index
// ---------------------------------------------------------------------

std::uint8_t
OooCore::pendingWaits(const DynInst &inst) const
{
    std::uint8_t w = 0;
    const Op op = inst.si.op;
    if (readsSrc1(op) && !preg_ready_[inst.src1_preg])
        w |= 1u << kWaitSrc1;
    if (readsSrc2(op) && !preg_ready_[inst.src2_preg])
        w |= 1u << kWaitSrc2;
    if (!consumedTagReady(inst))
        w |= 1u << kWaitTag;
    return w;
}

std::size_t
OooCore::waitList(const DynInst &inst, unsigned kind) const
{
    switch (kind) {
      case kWaitSrc1: return inst.src1_preg;
      case kWaitSrc2: return inst.src2_preg;
      default: return preg_ready_.size() + inst.consumed_tag;
    }
}

void
OooCore::enterScheduler(const DynInst &inst, std::size_t slot)
{
    const std::uint8_t w = pendingWaits(inst);
    waits_[slot] = w;
    for (unsigned kind = 0; kind < kNumWaitKinds; ++kind) {
        if (!(w & (1u << kind)))
            continue;
        std::uint32_t &head = wait_heads_[waitList(inst, kind)];
        const auto node = static_cast<std::uint32_t>(slot * kWaitKinds + kind);
        wait_prev_[node] = kNoWaiter;
        wait_next_[node] = head;
        if (head != kNoWaiter)
            wait_prev_[head] = node;
        head = node;
    }
    if (w == 0 && !inst.stalled)
        setReady(slot);
}

void
OooCore::leaveScheduler(const DynInst &inst, std::size_t slot)
{
    const std::uint8_t w = waits_[slot];
    for (unsigned kind = 0; kind < kNumWaitKinds; ++kind) {
        if (!(w & (1u << kind)))
            continue;
        const auto node = static_cast<std::uint32_t>(slot * kWaitKinds + kind);
        const std::uint32_t prev = wait_prev_[node];
        const std::uint32_t next = wait_next_[node];
        if (prev == kNoWaiter)
            wait_heads_[waitList(inst, kind)] = next;
        else
            wait_next_[prev] = next;
        if (next != kNoWaiter)
            wait_prev_[next] = prev;
    }
    waits_[slot] = 0;
    clearReady(slot);
}

void
OooCore::wakeWaiters(std::size_t list)
{
    std::uint32_t &head = wait_heads_[list];
    for (std::uint32_t node = head; node != kNoWaiter;) {
        const std::uint32_t next = wait_next_[node];
        const std::size_t slot = node / kWaitKinds;
        waits_[slot] &= std::uint8_t(~(1u << (node % kWaitKinds)));
        if (waits_[slot] == 0 && !rob_.atSlot(slot).stalled)
            setReady(slot);
        node = next;
    }
    head = kNoWaiter;
}

std::size_t
OooCore::nextReady(std::size_t from) const
{
    // Walk the ready bitmap in ring order starting at position @p from,
    // one word (or the part of it before the ring wraps) at a time.
    const std::size_t n = rob_.robSize();
    const std::size_t cap = rob_.capacity();
    std::size_t pos = from;
    std::size_t slot = rob_.slotIndex(pos);
    while (pos < n) {
        const std::size_t bit = slot & 63;
        const std::uint64_t word = ready_bits_[slot >> 6] >> bit;
        if (word != 0)
            return std::min(n, pos + std::size_t(std::countr_zero(word)));
        const std::size_t span = std::min(64 - bit, cap - slot);
        pos += span;
        slot = (slot + span) & (cap - 1);
    }
    return n;
}

// ---------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------

void
OooCore::finalizeLifetime(const DynInst &inst, bool squashed)
{
    if (!lifetime_)
        return;
    obs::InstLifetime lt;
    lt.seq = inst.seq;
    lt.pc = inst.pc;
    lt.fetch = inst.fetch_cycle;
    lt.dispatch = inst.dispatch_cycle;
    lt.ready = inst.ready_cycle;
    lt.issue = inst.issue_cycle;
    lt.mem_probe = inst.mem_probe_cycle;
    lt.complete = inst.complete_cycle;
    lt.end = cycle_;
    lt.replays = inst.replays;
    lt.squashed = squashed;
    lt.on_correct_path = inst.on_correct_path;
    lt.is_mem = inst.isMemInst();
    const std::string text = disassemble(inst.si);
    std::strncpy(lt.text, text.c_str(), sizeof(lt.text) - 1);
    lifetime_->record(lt);
}

std::uint64_t
OooCore::squashFrom(SeqNum seq)
{
    std::uint64_t squashed = 0;

    // The fetch segment first: its residents hold no resources yet.
    while (rob_.fetchSize() > 0 && rob_.back().seq >= seq) {
        finalizeLifetime(rob_.back(), /*squashed=*/true);
        rob_.pop_back();
        ++squashed;
    }

    while (rob_.robSize() > 0 && rob_.back().seq >= seq) {
        DynInst &d = rob_.back();
        finalizeLifetime(d, /*squashed=*/true);
        if (d.in_scheduler) {
            leaveScheduler(d, rob_.slotIndex(rob_.size() - 1));
            if (d.stalled && stalled_count_ > 0)
                --stalled_count_;
            --sched_count_;
        }
        if (d.dst_preg != kInvalidPhysReg) {
            rat_[d.dst_arch] = d.old_dst_preg;
            if (d.dst_preg != 0)
                preg_free_.push_back(d.dst_preg);
        }
        if (d.has_produced_tag) {
            readyTag(d.produced_tag);
            memdep_.releaseTag(d.produced_tag);
        }
        rob_.pop_back();
        ++squashed;
    }

    memu_->squashFrom(seq);
    if (squashed > 0)
        ++squash_count_;
    return squashed;
}

void
OooCore::noteFlush(obs::FlushCause cause, std::uint64_t squashed,
                   Cycle penalty_until)
{
    blame_.recordFlush(cause, squashed);
    last_flush_cause_ = cause;
    flush_penalty_until_ = penalty_until;
}

void
OooCore::clearStallBits()
{
    if (stalled_count_ == 0)
        return;
    // Only scheduler residents can carry the stall bit (issue extraction
    // clears it), so a ROB sweep finds every set bit. A resident with no
    // wait left becomes ready.
    for (std::size_t i = 0, n = rob_.robSize(); i < n; ++i) {
        DynInst &d = rob_[i];
        if (!d.stalled)
            continue;
        d.stalled = false;
        const std::size_t slot = rob_.slotIndex(i);
        if (waits_[slot] == 0)
            setReady(slot);
    }
    stalled_count_ = 0;
}

void
OooCore::recoverBranchMispredict(DynInst &branch)
{
    ++mispredicts_;
    SLF_OBS_EMIT(trace_, obs::EventKind::Flush, obs::Track::Recovery,
                 branch.seq, branch.pc, 0, branch.actual_next_pc,
                 obs::FlushDetail::Branch);

    // Capture restore state before the squash invalidates references.
    const std::uint64_t redirect_pc = branch.actual_next_pc;
    const bool on_cp = branch.on_correct_path;
    const std::uint64_t cp_index = branch.cp_index;
    const std::uint16_t ghist = branch.ghist;
    const bool taken = branch.taken;
    const SeqNum squash_seq = branch.seq + 1;

    const SeqNum squash_to = next_seq_ - 1;
    const std::uint64_t squashed = squashFrom(squash_seq);
    if (squashed > 0) {
        memu_->onPartialFlush(squash_seq, squash_to);
        if (checker_)
            checker_->noteSquash(cycle_, squash_seq, squashed, "branch");
    }

    gshare_.restoreHistory(ghist);
    gshare_.updateHistory(taken);

    fetch_pc_ = redirect_pc;
    // A correct-path branch is in flight, so its record is resident
    // (find panics otherwise); null means the stream ended before it.
    const RetireRecord *arch = on_cp ? stream_.find(cp_index) : nullptr;
    fetch_on_cp_ = arch && redirect_pc == arch->next_pc;
    fetch_cp_index_ = cp_index + 1;
    fetch_halted_ = false;
    fetch_ready_cycle_ = cycle_ + cfg_.mispredict_penalty;
    noteFlush(obs::FlushCause::Branch, squashed, fetch_ready_cycle_);

    clearStallBits();
}

void
OooCore::recoverViolation(const MemIssueOutcome &outcome, bool value_replay)
{
    // Locate the oldest in-flight instruction at or after the squash
    // point; the fetch stage restarts at its PC with its recorded
    // fetch-path state.
    const std::size_t idx = rob_.lowerBound(outcome.squash_from);
    if (idx == rob_.size()) {
        // Violation relative to canceled instructions only: nothing to
        // do (the MDT is conservative about stale state).
        ++spurious_violations_;
        return;
    }

    switch (outcome.dep_kind) {
      case DepKind::True: ++violation_flushes_true_; break;
      case DepKind::Anti: ++violation_flushes_anti_; break;
      case DepKind::Output: ++violation_flushes_output_; break;
    }

#ifndef SLFWD_OBS_EVENTS_OFF
    obs::FlushDetail fd = obs::FlushDetail::ValueReplay;
    if (!value_replay) {
        switch (outcome.dep_kind) {
          case DepKind::True: fd = obs::FlushDetail::DepTrue; break;
          case DepKind::Anti: fd = obs::FlushDetail::DepAnti; break;
          case DepKind::Output: fd = obs::FlushDetail::DepOutput; break;
        }
    }
    SLF_OBS_EMIT(trace_, obs::EventKind::Flush, obs::Track::Recovery,
                 outcome.squash_from, outcome.consumer_pc, 0,
                 outcome.producer_pc, fd);
#else
    (void)value_replay;
#endif

    const DynInst &victim = rob_[idx];
    const std::uint64_t redirect_pc = victim.pc;
    const bool on_cp = victim.on_correct_path;
    const std::uint64_t cp_index = victim.cp_index;
    const std::uint16_t ghist = victim.ghist;
    // Fetch restarts reading the stream at the victim's record; fail
    // here, not later, if it is no longer resident.
    if (on_cp)
        stream_.find(cp_index);

    const SeqNum squash_to = next_seq_ - 1;
    const std::uint64_t squashed = squashFrom(outcome.squash_from);
    if (squashed > 0) {
        memu_->onPartialFlush(outcome.squash_from, squash_to);
        if (checker_) {
            checker_->noteSquash(cycle_, outcome.squash_from, squashed,
                                 "mem-violation");
        }
    }

    gshare_.restoreHistory(ghist);
    fetch_pc_ = redirect_pc;
    fetch_on_cp_ = on_cp;
    fetch_cp_index_ = cp_index;
    fetch_halted_ = false;

    Cycle penalty = cfg_.mispredict_penalty;
    if (cfg_.subsys == MemSubsystem::MdtSfc)
        penalty += cfg_.mdt_violation_extra_penalty;
    fetch_ready_cycle_ = cycle_ + penalty;

    obs::FlushCause cause = obs::FlushCause::ValueReplay;
    if (!value_replay) {
        switch (outcome.dep_kind) {
          case DepKind::True:
            cause = obs::FlushCause::MemDepTrue;
            break;
          case DepKind::Anti:
            cause = obs::FlushCause::MemDepAnti;
            break;
          case DepKind::Output:
            cause = obs::FlushCause::MemDepOutput;
            break;
        }
    }
    noteFlush(cause, squashed, fetch_ready_cycle_);

    clearStallBits();
}

// ---------------------------------------------------------------------
// Retire
// ---------------------------------------------------------------------

void
OooCore::retireStage()
{
    for (unsigned n = 0; n < cfg_.width && rob_.robSize() > 0 && !done_;
         ++n) {
        DynInst &head = rob_.front();
        if (!head.completed)
            break;

        if (head.isLoadInst() && !memu_->retireLoad(head)) {
            // Retirement-time value check failed (value-replay scheme):
            // flush from the load itself and refetch. This is the large
            // recovery penalty the paper attributes to retirement-time
            // disambiguation in big-window processors (Section 4).
            MemIssueOutcome out;
            out.kind = MemIssueOutcome::Kind::Violation;
            out.dep_kind = DepKind::True;
            out.squash_from = head.seq;
            recoverViolation(out, /*value_replay=*/true);
            break;
        }

        const RetireRecord &arch = stream_.retire();
        if (checker_)
            checker_->checkRetirement(head, arch, cycle_);

        if (head.isLoadInst()) {
            ++loads_retired_;
        } else if (head.isStoreInst()) {
            memu_->retireStore(head);
            ++stores_retired_;
            // Compare the bytes that actually committed (the store-FIFO
            // slot drained into memory) against the golden image; the
            // retirement check above only sees the DynInst's own value,
            // not FIFO payload corruption.
            if (checker_)
                checker_->checkCommittedStore(head, mem_, cycle_);
        } else if (isControl(head.si.op)) {
            ++branches_retired_;
        }

        if (head.has_produced_tag) {
            readyTag(head.produced_tag);
            memdep_.releaseTag(head.produced_tag);
        }
        if (head.dst_preg != kInvalidPhysReg && head.old_dst_preg != 0)
            preg_free_.push_back(head.old_dst_preg);

        const bool was_halt = head.si.op == Op::HALT;
        ++insts_retired_;
        last_retire_cycle_ = cycle_;
        SLF_OBS_EMIT(trace_, obs::EventKind::Retire, obs::Track::Retire,
                     head.seq, head.pc, head.addr, head.result, 0);
        finalizeLifetime(head, /*squashed=*/false);
        rob_.pop_front();

        if (was_halt || insts_retired_.value() >= cfg_.max_insts) {
            halted_cleanly_ = was_halt;
            done_ = true;
        }
    }
}

// ---------------------------------------------------------------------
// Complete
// ---------------------------------------------------------------------

void
OooCore::completeInst(DynInst &inst)
{
    inst.completed = true;
    inst.complete_cycle = cycle_;
    writebackDst(inst);

    if (inst.isCondBranch()) {
        gshare_.train(inst.pc, inst.ghist, inst.taken);
        if (inst.mispredicted)
            recoverBranchMispredict(inst);
    }
}

void
OooCore::completeStage()
{
    // Gather events due this cycle, process in sequence order for
    // determinism, and drop events for squashed instructions.
    due_.clear();
    for (std::size_t i = 0; i < completions_.size();) {
        if (completions_[i].due <= cycle_) {
            due_.emplace_back(completions_[i].seq, completions_[i].inst);
            completions_[i] = completions_.back();
            completions_.pop_back();
        } else {
            ++i;
        }
    }
    std::sort(due_.begin(), due_.end(),
              [](const auto &a, const auto &b) { return a.first < b.first; });

    for (const auto &[seq, inst] : due_) {
        // Slot recycled (pop invalidates the resident seq) or already
        // completed: the instruction this event was for is gone.
        if (inst->seq != seq || inst->completed)
            continue;
        completeInst(*inst);
    }
}

// ---------------------------------------------------------------------
// Issue
// ---------------------------------------------------------------------

bool
OooCore::executeAtIssue(DynInst &inst)
{
    const Op op = inst.si.op;
    const std::uint64_t v1 =
        readsSrc1(op) ? preg_val_[inst.src1_preg] : 0;
    const std::uint64_t v2 =
        readsSrc2(op) ? preg_val_[inst.src2_preg] : 0;

    if (isBranch(op)) {
        inst.taken = branchTaken(op, v1, v2);
        inst.actual_next_pc =
            inst.taken ? inst.si.branchTarget : inst.pc + 1;
        inst.mispredicted = inst.actual_next_pc != inst.predicted_next_pc;
        scheduleCompletion(inst, cfg_.alu_latency);
        return true;
    }

    if (isLoad(op) || isStore(op)) {
        inst.addr = v1 + static_cast<std::uint64_t>(inst.si.imm);
        inst.size = memAccessSize(op);
        const bool at_head = !rob_.empty() && rob_.front().seq == inst.seq;

        MemIssueOutcome out;
        inst.mem_probe_cycle = cycle_;
        {
            obs::ScopedTimer t(profiler_, obs::ProfSection::MemProbe);
            if (isLoad(op)) {
                out = memu_->issueLoad(inst, at_head);
            } else {
                const unsigned bits = inst.size * 8;
                inst.store_value =
                    bits >= 64 ? v2
                               : (v2 & ((std::uint64_t{1} << bits) - 1));
                out = memu_->issueStore(inst, at_head);
            }
        }

        switch (out.kind) {
          case MemIssueOutcome::Kind::Complete:
            if (isLoad(op))
                inst.result = out.load_value;
            readyProducedTag(inst);
            scheduleCompletion(inst,
                               (isLoad(op) ? cfg_.load_latency
                                           : cfg_.store_latency) +
                                   out.extra_latency);
            return true;

          case MemIssueOutcome::Kind::Replay:
            ++replays_;
            ++inst.replays;
            inst.last_replay_reason =
                static_cast<std::uint8_t>(out.replay_reason);
            SLF_OBS_EMIT(trace_, obs::EventKind::Replay, obs::Track::Issue,
                         inst.seq, inst.pc, inst.addr, inst.replays,
                         static_cast<obs::ReplayDetail>(out.replay_reason));
            if (cfg_.stall_bits)
                inst.stalled = true;
            inst.retry_cycle = cycle_ + cfg_.replay_delay;
            return false;

          case MemIssueOutcome::Kind::Violation:
            if (isStore(op)) {
                // The store itself completes; the flush point is
                // strictly younger.
                inst.result = 0;
                readyProducedTag(inst);
                scheduleCompletion(inst,
                                   cfg_.store_latency + out.extra_latency);
                recoverViolation(out);
                return true;
            }
            // Anti violation: the executing load itself is squashed.
            recoverViolation(out);
            return true;   // no reinsertion: instruction is gone
        }
    }

    // Plain ALU / FP-class instruction.
    inst.result = executeAlu(op, v1, v2, inst.si.imm);
    scheduleCompletion(inst, opLatency(op));
    return true;
}

void
OooCore::issueOne(DynInst &inst, std::size_t slot)
{
    leaveScheduler(inst, slot);
    inst.in_scheduler = false;
    --sched_count_;
    if (inst.stalled && stalled_count_ > 0) {
        --stalled_count_;
        inst.stalled = false;
    }
    inst.issued = true;
    if (inst.ready_cycle == kNoCycle)
        inst.ready_cycle = cycle_;
    inst.issue_cycle = cycle_;
    SLF_OBS_EMIT(trace_, obs::EventKind::Issue, obs::Track::Issue,
                 inst.seq, inst.pc, 0, inst.replays, 0);

    if (!executeAtIssue(inst)) {
        // Replayed: back into the scheduler, in the same ROB slot.
        inst.in_scheduler = true;
        ++sched_count_;
        inst.issued = false;
        if (inst.stalled)
            ++stalled_count_;
        enterScheduler(inst, slot);
    }
}

void
OooCore::issueStage()
{
    const unsigned limit = std::min(cfg_.width, cfg_.num_fus);
    unsigned issued = 0;

    // The ROB head first: it may issue past its stall bit, its replay
    // delay and an unready consumed tag (only its sources must be ready).
    if (rob_.robSize() > 0) {
        DynInst &head = rob_.front();
        if (head.in_scheduler && sourcesReady(head)) {
            issueOne(head, rob_.slotIndex(0));
            ++issued;
        }
    }

    // Then every ready resident oldest-first, found by walking the ready
    // bitmap from head+1 in ring order. The bitmap is read live: a tag
    // readied by an older store issuing mid-walk wakes a younger consumer
    // in time for this same walk, a mid-walk squash clears the bits of
    // everything at or after the squash point, and a replay reinserts
    // at the position just visited.
    for (std::size_t pos = nextReady(1);
         issued < limit && pos < rob_.robSize(); pos = nextReady(pos + 1)) {
        DynInst &inst = rob_[pos];
        if (inst.stalled || cycle_ < inst.retry_cycle)
            continue;
        issueOne(inst, rob_.slotIndex(pos));
        ++issued;
    }
    issued_this_cycle_ = issued;
}

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

void
OooCore::dispatchStage()
{
    bool stalled = false;
    for (unsigned n = 0; n < cfg_.width && rob_.fetchSize() > 0; ++n) {
        DynInst &inst = rob_.fetchFront();
        const Op op = inst.si.op;
        const bool completes_at_dispatch =
            op == Op::NOP || op == Op::HALT || op == Op::JMP;
        const bool has_dst = writesDst(op) && inst.si.dst != 0;
        const bool is_mem = isMem(op);

        // Side-effect-free resource checks first.
        if (rob_.robSize() >= cfg_.rob_entries ||
            (!completes_at_dispatch &&
             sched_count_ >= cfg_.sched_entries) ||
            (has_dst && preg_free_.empty()) ||
            (isLoad(op) && !memu_->canDispatchLoad()) ||
            (isStore(op) && !memu_->canDispatchStore())) {
            stalled = true;
            break;
        }

        // Memory dependence prediction (may stall on tag exhaustion).
        if (is_mem) {
            auto lookup = memdep_.dispatch(inst.pc, isLoad(op), isStore(op));
            if (!lookup) {
                stalled = true;
                break;
            }
            if (lookup->consumed) {
                inst.has_consumed_tag = true;
                inst.consumed_tag = *lookup->consumed;
                inst.consumed_tag_owner = tag_owner_seq_[*lookup->consumed];
            }
            if (lookup->produced) {
                inst.has_produced_tag = true;
                inst.produced_tag = *lookup->produced;
                tag_ready_[*lookup->produced] = 0;
                tag_owner_seq_[*lookup->produced] = inst.seq;
                // Re-owning the tag satisfies every wait on its previous
                // owner (see consumedTagReady).
                wakeWaiters(preg_ready_.size() + *lookup->produced);
            }
        }

        // Commit remaining resources.
        if (isLoad(op)) {
            if (!memu_->dispatchLoad(inst))
                panic("dispatchLoad failed after capacity check");
        } else if (isStore(op)) {
            if (!memu_->dispatchStore(inst))
                panic("dispatchStore failed after capacity check");
        }

        // Rename.
        if (readsSrc1(op))
            inst.src1_preg = rat_[inst.si.src1];
        if (readsSrc2(op))
            inst.src2_preg = rat_[inst.si.src2];
        if (has_dst) {
            inst.dst_arch = inst.si.dst;
            inst.old_dst_preg = rat_[inst.si.dst];
            inst.dst_preg = preg_free_.back();
            preg_free_.pop_back();
            preg_ready_[inst.dst_preg] = 0;
            rat_[inst.si.dst] = inst.dst_preg;
        }

        inst.dispatch_cycle = cycle_;
        if (completes_at_dispatch) {
            inst.completed = true;
            inst.complete_cycle = cycle_;
            if (op == Op::JMP) {
                inst.taken = true;
                inst.actual_next_pc = inst.si.branchTarget;
            } else if (op == Op::HALT) {
                inst.actual_next_pc = inst.pc;
            }
        } else {
            inst.in_scheduler = true;
        }

        rob_.dispatch();
        if (inst.in_scheduler) {
            ++sched_count_;
            enterScheduler(inst, rob_.slotIndex(rob_.robSize() - 1));
        }
    }
    if (stalled)
        ++dispatch_stalls_;
}

// ---------------------------------------------------------------------
// Fetch
// ---------------------------------------------------------------------

void
OooCore::fetchStage()
{
    if (done_ || fetch_halted_ || cycle_ < fetch_ready_cycle_)
        return;
    if (rob_.fetchSize() >= cfg_.fetch_queue_entries)
        return;

    // One I-cache access per fetch group; a miss stalls fetch.
    const Cycle ilat =
        caches_.accessInst(kTextBase + fetch_pc_ * kInstBytes);
    if (ilat > 0) {
        fetch_ready_cycle_ = cycle_ + ilat;
        return;
    }

    unsigned branches = 0;
    for (unsigned i = 0; i < cfg_.width; ++i) {
        if (rob_.fetchSize() >= cfg_.fetch_queue_entries)
            break;
        if (!prog_.validPc(fetch_pc_)) {
            // Ran off the text segment (only reachable on a wrong path);
            // stall until a flush redirects us.
            fetch_halted_ = true;
            break;
        }

        const StaticInst &si = prog_.inst(fetch_pc_);
        if (isControl(si.op) && branches >= cfg_.max_branches_per_fetch)
            break;

        // The architectural record of this instruction while fetch is on
        // the correct path (null once the stream has ended).
        const RetireRecord *arch =
            fetch_on_cp_ ? stream_.find(fetch_cp_index_) : nullptr;
        if (arch && arch->pc != fetch_pc_)
            panic("fetch: correct-path tracking diverged from the stream");

        DynInst &d = rob_.push_back();
        d.seq = next_seq_++;
        d.pc = fetch_pc_;
        d.si = si;
        d.on_correct_path = fetch_on_cp_;
        d.cp_index = fetch_cp_index_;
        d.ghist = gshare_.history();
        d.fetch_cycle = cycle_;

        if (si.op == Op::HALT) {
            d.predicted_next_pc = fetch_pc_;
            SLF_OBS_EMIT(trace_, obs::EventKind::Fetch,
                         obs::Track::Frontend, d.seq, d.pc,
                         0, d.predicted_next_pc, 0);
            if (fetch_on_cp_)
                ++fetch_cp_index_;
            fetch_halted_ = true;
            break;
        }

        std::uint64_t next = fetch_pc_ + 1;
        bool pred_taken = false;
        if (si.op == Op::JMP) {
            ++branches;
            pred_taken = true;
            next = si.branchTarget;
        } else if (isBranch(si.op)) {
            ++branches;
            pred_taken = gshare_.predict(fetch_pc_);
            if (arch) {
                const bool actual = arch->taken;
                if (pred_taken != actual &&
                    oracle_rng_.chance(cfg_.oracle_fix_prob)) {
                    // Figure 4: the oracle turns 80% of would-be
                    // mispredictions into correct predictions.
                    pred_taken = actual;
                    ++oracle_fixes_;
                }
            }
            gshare_.updateHistory(pred_taken);
            next = pred_taken ? si.branchTarget : fetch_pc_ + 1;
        }

        d.predicted_taken = pred_taken;
        d.predicted_next_pc = next;
        SLF_OBS_EMIT(trace_, obs::EventKind::Fetch, obs::Track::Frontend,
                     d.seq, d.pc, 0, d.predicted_next_pc, 0);

        // Path tracking for the fetch oracle.
        if (fetch_on_cp_ && (!arch || next != arch->next_pc))
            fetch_on_cp_ = false;
        ++fetch_cp_index_;
        fetch_pc_ = next;

        if (isControl(si.op) && pred_taken)
            break;   // taken redirect: resume at the target next cycle
    }
}

// ---------------------------------------------------------------------
// Top level
// ---------------------------------------------------------------------

bool
OooCore::tick()
{
    if (done_)
        return false;

    if (trace_)
        trace_->beginCycle(cycle_);

    memu_->setOldestInflight(oldestInflightSeq());

    // Section 2.4.3: clear every stall bit whenever the MDT or SFC
    // evicts an entry.
    const std::uint64_t evictions = memu_->evictionCount();
    if (evictions != last_eviction_count_) {
        last_eviction_count_ = evictions;
        clearStallBits();
    }

    const std::uint64_t retired_before = insts_retired_.value();
    issued_this_cycle_ = 0;
    // Batched host profiling: one timestamp per stage boundary (the
    // read that ends one section starts the next) instead of a
    // ScopedTimer pair per stage.
    obs::StageFrame frame(profiler_);
    retireStage();
    frame.mark(obs::ProfSection::Retire);
    if (!done_) {
        completeStage();
        frame.mark(obs::ProfSection::Complete);
        issueStage();
        frame.mark(obs::ProfSection::SchedWakeup);
        dispatchStage();
        frame.mark(obs::ProfSection::Dispatch);
        fetchStage();
        frame.mark(obs::ProfSection::Fetch);
    }

    classifyCycle(insts_retired_.value() - retired_before);

    if (occ_.enabled()) {
        obs::OccSnapshot snap = occSnapshot();
        snap.set(obs::OccStat::IssuedPerCycle, issued_this_cycle_);
        snap.set(obs::OccStat::RetiredPerCycle,
                 insts_retired_.value() - retired_before);
        occ_.sampleSnapshot(snap);
    }

    ++cycle_;

    if (cfg_.max_cycles && cycle_ >= cfg_.max_cycles)
        done_ = true;

    // Progress watchdogs: both terminate with a structured fatal() so
    // fault campaigns can catch a wedged configuration and keep going.
    if (!done_ && cfg_.watchdog_retire_cycles && rob_.robSize() > 0 &&
        cycle_ - last_retire_cycle_ > cfg_.watchdog_retire_cycles) {
        std::ostringstream oss;
        oss << "no retirement for " << cfg_.watchdog_retire_cycles
            << " cycles";
        fatal(watchdogDump(oss.str()));
    }
    if (!done_ && cfg_.watchdog_max_cycles &&
        cycle_ >= cfg_.watchdog_max_cycles) {
        std::ostringstream oss;
        oss << "cycle cap " << cfg_.watchdog_max_cycles
            << " reached before completion";
        fatal(watchdogDump(oss.str()));
    }
    // Host wall-clock deadline: polled every 8192 cycles so the clock
    // read stays off the per-cycle path. JobTimeout (not plain fatal)
    // lets the campaign layer record the job as Timeout, not Fatal.
    if (!done_ && deadline_at_ns_ && (cycle_ & 0x1fff) == 0) {
        const auto now =
            std::chrono::steady_clock::now().time_since_epoch();
        const auto now_ns = std::uint64_t(
            std::chrono::duration_cast<std::chrono::nanoseconds>(now)
                .count());
        if (now_ns >= deadline_at_ns_) {
            std::ostringstream oss;
            oss << "host deadline of " << cfg_.deadline_ms
                << " ms exceeded";
            throw JobTimeout(watchdogDump(oss.str()));
        }
    }

    // The run drained (HALT retired, nothing in flight): cross-check the
    // whole committed memory image against the golden model once.
    if (done_ && halted_cleanly_ && !final_mem_checked_ && checker_ &&
        rob_.robSize() == 0) {
        final_mem_checked_ = true;
        checker_->checkFinalMemory(mem_, cycle_);
    }

    return !done_;
}

void
OooCore::classifyCycle(std::uint64_t retired_this_cycle)
{
    using C = obs::CpiComponent;

    // Slot accounting (the classic CPI-stack construction): every
    // cycle offers `width` retire slots. Slots that retired an
    // instruction are base work; ALL remaining slots charge the single
    // reason the oldest unretired instruction could not retire. The
    // component sum is therefore exactly width * cycles, and two runs
    // of the same program (identical retired-instruction count, hence
    // identical base) differ only in their stall components — which is
    // what makes an IPC gap between configs fully attributable.
    const std::uint64_t width = cfg_.width;
    const std::uint64_t used = std::min<std::uint64_t>(
        retired_this_cycle, width);
    if (used > 0)
        cpi_.add(C::Base, used);
    const std::uint64_t lost = width - used;
    if (lost == 0)
        return;

    // Wedging: no retirement for more than half the retire-watchdog
    // budget. Split out so a hung configuration's stack doesn't read as
    // an enormous memory-latency component.
    if (cfg_.watchdog_retire_cycles && rob_.robSize() > 0 &&
        cycle_ - last_retire_cycle_ > cfg_.watchdog_retire_cycles / 2) {
        cpi_.add(C::WatchdogStall, lost);
        return;
    }

    if (rob_.robSize() == 0) {
        // Nothing dispatched. If a flush's refetch window is still open,
        // the flush pays; otherwise the frontend starved the core.
        if (cycle_ < flush_penalty_until_ &&
            last_flush_cause_ != obs::FlushCause::kCount) {
            switch (last_flush_cause_) {
              case obs::FlushCause::Branch:
                cpi_.add(C::FlushBranch, lost);
                break;
              case obs::FlushCause::MemDepTrue:
                cpi_.add(C::FlushTrue, lost);
                break;
              case obs::FlushCause::MemDepAnti:
                cpi_.add(C::FlushAnti, lost);
                break;
              case obs::FlushCause::MemDepOutput:
                cpi_.add(C::FlushOutput, lost);
                break;
              case obs::FlushCause::ValueReplay:
                cpi_.add(C::FlushValueReplay, lost);
                break;
              case obs::FlushCause::kCount:
                break;
            }
            blame_.addRefetchCycle(last_flush_cause_);
        } else {
            cpi_.add(C::FetchStarved, lost);
        }
        return;
    }

    // The oldest unretired instruction gates retirement; attribute the
    // empty slots to whatever it is waiting for.
    const DynInst &head = rob_.front();
    if (head.in_scheduler) {
        if (head.replays > 0 && cycle_ < head.retry_cycle) {
            // Serving a memory-unit replay. SFC corrupt/partial are the
            // forwardable cases the SFC could not honor (the paper's
            // SFC-miss-but-forwardable stalls); everything else is a
            // generic replay (set conflict, MDT conflict, dep wait).
            const auto rr =
                static_cast<ReplayReason>(head.last_replay_reason);
            if (rr == ReplayReason::SfcCorrupt ||
                rr == ReplayReason::SfcPartial) {
                cpi_.add(C::SfcMissForwardable, lost);
            } else {
                cpi_.add(C::Replay, lost);
            }
        } else {
            // Selectable but not issued: issue-bandwidth / window
            // refill pressure.
            cpi_.add(C::SchedulerFull, lost);
        }
        return;
    }
    if (head.issued && !head.completed) {
        // In flight in a functional unit; memory time is its own
        // component, plain FU latency is exec_latency.
        cpi_.add(head.isMemInst() ? C::MemLatency : C::ExecLatency,
                 lost);
        return;
    }
    // Completed but not retired this cycle (completes after the retire
    // stage ran; retires next cycle): commit-pipeline latency.
    cpi_.add(C::ExecLatency, lost);
}

obs::OccSnapshot
OooCore::occSnapshot() const
{
    obs::OccSnapshot snap;
    snap.set(obs::OccStat::Rob, rob_.robSize(), cfg_.rob_entries);
    snap.set(obs::OccStat::Sched, sched_count_, cfg_.sched_entries);
    snap.set(obs::OccStat::FetchQ, rob_.fetchSize(),
             cfg_.fetch_queue_entries);
    memu_->snapshotOccupancy(snap);
    return snap;
}

std::string
OooCore::watchdogDump(const std::string &reason) const
{
    std::ostringstream oss;
    oss << "OooCore watchdog: " << reason << " at cycle " << cycle_
        << " (retired " << insts_retired_.value() << ")";
    if (rob_.robSize() > 0) {
        oss << "; ROB head seq " << rob_.front().seq << " pc "
            << rob_.front().pc << " (" << disassemble(rob_.front().si)
            << ")";
    }
    // Render the same census the occupancy sampler exports, so the dump
    // in a wedge report can never disagree with the exported stats.
    oss << "; " << occSnapshot().toString()
        << " stalled=" << stalled_count_;
    return oss.str();
}

bool
OooCore::checkInvariants(std::string *why) const
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    if (rob_.robSize() > cfg_.rob_entries)
        return fail("ROB segment exceeds rob_entries");
    if (rob_.fetchSize() > cfg_.fetch_queue_entries)
        return fail("fetch segment exceeds fetch_queue_entries");

    // Sequence order runs across the whole window, through the ROB/fetch
    // boundary; fetch residents have not reached the scheduler.
    std::size_t in_sched = 0, stalled = 0;
    SeqNum prev = 0;
    for (std::size_t i = 0, n = rob_.size(); i < n; ++i) {
        const DynInst &d = rob_[i];
        if (d.seq <= prev) {
            return fail("window sequence numbers not strictly increasing "
                        "at position " + std::to_string(i));
        }
        if (d.seq == kInvalidSeqNum)
            return fail("window resident carries the invalid-seq sentinel");
        prev = d.seq;
        if (i >= rob_.robSize()) {
            const std::size_t slot = rob_.slotIndex(i);
            if (d.in_scheduler || d.issued || d.completed || d.stalled)
                return fail("fetch-segment resident has scheduler state");
            if (waits_[slot] != 0 || isReady(slot))
                return fail("fetch-segment resident has wait or ready bits");
            continue;
        }
        if (d.in_scheduler) {
            ++in_sched;
            if (d.completed)
                return fail("completed instruction still in scheduler");
            if (d.stalled)
                ++stalled;
        } else if (d.stalled) {
            return fail("stall bit set outside the scheduler");
        }
    }
    if (in_sched != sched_count_)
        return fail("scheduler census disagrees with sched_count_");
    if (stalled != stalled_count_)
        return fail("stall-bit census disagrees with stalled_count_");

    // Scheduler index: recompute every resident's waits and ready bit by
    // brute force from the scoreboards, and require the stored ones to
    // match; no slot outside the window may hold a wait or a ready bit.
    std::size_t wait_nodes = 0;
    for (std::size_t off = 0, cap = rob_.capacity(); off < cap; ++off) {
        const std::size_t slot = rob_.slotIndex(off);
        std::uint8_t want = 0;
        bool ready = false;
        if (off < rob_.robSize() && rob_[off].in_scheduler) {
            want = pendingWaits(rob_[off]);
            ready = want == 0 && !rob_[off].stalled;
        }
        if (waits_[slot] != want) {
            return fail("wait set of ROB position " + std::to_string(off) +
                        " disagrees with the scoreboards");
        }
        if (isReady(slot) != ready) {
            return fail("ready bit of ROB position " + std::to_string(off) +
                        " disagrees with the scoreboards");
        }
        wait_nodes += std::popcount(want);
    }

    // Every wait is linked exactly once, on the list of the preg or tag
    // it waits for, with consistent back links.
    std::size_t linked = 0;
    for (std::size_t list = 0; list < wait_heads_.size(); ++list) {
        std::uint32_t prev = kNoWaiter;
        for (std::uint32_t node = wait_heads_[list]; node != kNoWaiter;
             prev = node, node = wait_next_[node]) {
            const std::size_t slot = node / kWaitKinds;
            const unsigned kind = node % kWaitKinds;
            if (++linked > wait_nodes || wait_prev_[node] != prev ||
                !(waits_[slot] & (1u << kind)) ||
                waitList(rob_.atSlot(slot), kind) != list) {
                return fail("wakeup list " + std::to_string(list) +
                            " is malformed");
            }
        }
    }
    if (linked != wait_nodes)
        return fail("wakeup lists hold fewer nodes than pending waits");

    // The architectural stream holds every record from the next
    // retirement to the fetch index: each correct-path resident's record
    // (unless the stream ended before it) and, while fetch tracks the
    // correct path, every record up to where it reads next.
    if (fetch_on_cp_ &&
        (fetch_cp_index_ < stream_.retired() ||
         (fetch_cp_index_ > stream_.produced() && !stream_.ended()))) {
        return fail("fetch index outside the resident stream records");
    }
    bool off_path = false;
    for (std::size_t i = 0, n = rob_.size(); i < n; ++i) {
        const DynInst &d = rob_[i];
        if (!d.on_correct_path) {
            off_path = true;
            continue;
        }
        if (off_path)
            return fail("correct-path resident younger than a wrong-path one");
        const RetireRecord *rec = stream_.peek(d.cp_index);
        if (rec ? rec->pc != d.pc
                : d.cp_index < stream_.produced() || !stream_.ended()) {
            return fail("stream record of window position " +
                        std::to_string(i) + " missing or mismatched");
        }
    }
    return true;
}

void
OooCore::run()
{
    while (tick()) {
    }
}

} // namespace slf
