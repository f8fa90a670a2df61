/**
 * @file
 * In-flight (dynamic) instruction state.
 */

#ifndef SLFWD_CPU_DYN_INST_HH_
#define SLFWD_CPU_DYN_INST_HH_

#include <cstdint>

#include "isa/inst.hh"
#include "pred/memdep.hh"
#include "sim/types.hh"

namespace slf
{

struct DynInst
{
    SeqNum seq = kInvalidSeqNum;
    std::uint64_t pc = 0;
    StaticInst si;

    // --- fetch-time state ---------------------------------------------
    /** True while fetch tracks the architectural path. */
    bool on_correct_path = true;
    /** Architectural stream index (ArchStream) while on the correct path. */
    std::uint64_t cp_index = 0;
    /** Gshare global history at fetch (for training and flush repair). */
    std::uint16_t ghist = 0;
    bool predicted_taken = false;
    std::uint64_t predicted_next_pc = 0;

    // --- rename state ---------------------------------------------------
    PhysRegIndex src1_preg = kInvalidPhysReg;
    PhysRegIndex src2_preg = kInvalidPhysReg;
    PhysRegIndex dst_preg = kInvalidPhysReg;
    PhysRegIndex old_dst_preg = kInvalidPhysReg;
    RegIndex dst_arch = 0;

    bool has_consumed_tag = false;
    DepTag consumed_tag = kInvalidDepTag;
    /** Producer seq at tag read time, to ignore recycled tags. */
    SeqNum consumed_tag_owner = kInvalidSeqNum;
    bool has_produced_tag = false;
    DepTag produced_tag = kInvalidDepTag;

    // --- scheduling state -----------------------------------------------
    bool in_scheduler = false;
    bool issued = false;
    bool completed = false;
    /** Replay throttling (Section 2.4.3). */
    bool stalled = false;
    Cycle retry_cycle = 0;
    std::uint32_t replays = 0;

    // --- execution results ------------------------------------------------
    std::uint64_t result = 0;
    bool taken = false;
    std::uint64_t actual_next_pc = 0;
    bool mispredicted = false;

    Addr addr = 0;
    unsigned size = 0;
    std::uint64_t store_value = 0;
    /** True once the instruction registered itself in the MDT. */
    bool mem_registered = false;
    /** True if the instruction completed via the ROB-head bypass. */
    bool head_bypassed = false;
    /** Value-replay schemes: issued past an unresolved older store. */
    bool replay_vulnerable = false;

    // --- pipeline lifetime timestamps -------------------------------------
    // Stamped unconditionally (a store to a resident cache line per
    // milestone); the CPI-stack classifier and the lifetime/Konata
    // export read them. kNoCycle = milestone never reached.
    Cycle fetch_cycle = kNoCycle;
    Cycle dispatch_cycle = kNoCycle;
    /** First cycle the scheduler selected this instruction. */
    Cycle ready_cycle = kNoCycle;
    /** Final (successful) issue cycle; replays push it past ready. */
    Cycle issue_cycle = kNoCycle;
    /** Last memory-unit probe (issue-time disambiguation access). */
    Cycle mem_probe_cycle = kNoCycle;
    Cycle complete_cycle = kNoCycle;
    /** Reason of the most recent replay (ReplayReason, type-erased to
     *  avoid a cpu/mem_unit.hh include cycle). */
    std::uint8_t last_replay_reason = 0;

    bool isLoadInst() const { return isLoad(si.op); }
    bool isStoreInst() const { return isStore(si.op); }
    bool isMemInst() const { return isMem(si.op); }
    bool isCondBranch() const { return isBranch(si.op); }
};

} // namespace slf

#endif // SLFWD_CPU_DYN_INST_HH_
