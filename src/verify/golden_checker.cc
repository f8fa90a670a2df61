#include "golden_checker.hh"

#include <sstream>

#include "isa/inst.hh"
#include "obs/trace_sink.hh"
#include "sim/logging.hh"

namespace slf
{

const char *
checkFailureKindName(CheckFailure::Kind kind)
{
    switch (kind) {
      case CheckFailure::Kind::Pc: return "pc";
      case CheckFailure::Kind::Opcode: return "opcode";
      case CheckFailure::Kind::Result: return "result";
      case CheckFailure::Kind::Address: return "address";
      case CheckFailure::Kind::StoreValue: return "store value";
      case CheckFailure::Kind::Control: return "control flow";
      case CheckFailure::Kind::StoreCommit: return "committed store data";
      case CheckFailure::Kind::FinalMemory: return "final memory image";
    }
    return "?";
}

std::string
CheckFailure::toString() const
{
    std::ostringstream oss;
    oss << "golden-model divergence (" << checkFailureKindName(kind)
        << "): seq " << seq << " pc 0x" << std::hex << pc << std::dec
        << " cycle " << cycle;
    if (!disasm.empty())
        oss << " (" << disasm << ")";
    oss << std::hex << " expected 0x" << expected << " actual 0x" << actual;
    if (addr)
        oss << " addr 0x" << addr;
    oss << std::dec;
    if (!golden_state.empty())
        oss << "\n  golden: " << golden_state;
    if (!squash_history.empty())
        oss << "\n  recent squashes: " << squash_history;
    return oss.str();
}

GoldenChecker::GoldenChecker(const Program &prog, bool abort_on_divergence)
    : abort_on_divergence_(abort_on_divergence)
{
    golden_.mem.loadInitialImage(prog);
}

void
GoldenChecker::noteSquash(Cycle cycle, SeqNum from, std::uint64_t count,
                          const char *reason)
{
    ++stats_[S::SquashesSeen];
    squashes_.push_back(SquashEvent{cycle, from, count, reason});
    if (squashes_.size() > kSquashHistory)
        squashes_.pop_front();
}

std::string
GoldenChecker::squashHistoryString() const
{
    if (squashes_.empty())
        return "(none)";
    std::ostringstream oss;
    bool first = true;
    for (const SquashEvent &s : squashes_) {
        if (!first)
            oss << "; ";
        first = false;
        oss << "cycle " << s.cycle << " " << s.reason << " from seq "
            << s.from << " (" << s.count << " insts)";
    }
    return oss.str();
}

void
GoldenChecker::report(CheckFailure f)
{
    f.golden_state = golden_.toString();
    f.squash_history = squashHistoryString();
    ++stats_[S::Failures];
    SLF_OBS_EMIT(trace_, obs::EventKind::CheckerFail, obs::Track::Verify,
                 f.seq, f.pc, f.addr, f.expected ^ f.actual,
                 static_cast<obs::CheckerDetail>(f.kind));
    if (f.kind == CheckFailure::Kind::StoreCommit)
        ++stats_[S::FailuresStoreCommit];
    if (abort_on_divergence_)
        panic(f.toString());
    if (reports_.size() < kMaxReports)
        reports_.push_back(std::move(f));
}

void
GoldenChecker::checkRetirement(const DynInst &inst, const RetireRecord &g,
                               Cycle cycle)
{
    golden_.apply(g);
    ++stats_[S::RetirementsChecked];

    // Failure reports are built lazily: disassembly and field copies
    // happen only on an actual divergence, keeping the per-retirement
    // happy path to the comparisons alone.
    auto fail = [&](CheckFailure::Kind kind, std::uint64_t expected,
                    std::uint64_t actual, Addr addr) {
        CheckFailure f;
        f.kind = kind;
        f.seq = inst.seq;
        f.pc = inst.pc;
        f.cycle = cycle;
        f.disasm = disassemble(inst.si);
        f.expected = expected;
        f.actual = actual;
        f.addr = addr;
        report(std::move(f));
    };

    if (g.pc != inst.pc) {
        // Different instruction: nothing below is comparable.
        fail(CheckFailure::Kind::Pc, g.pc, inst.pc, 0);
        return;
    }
    if (g.op != inst.si.op) {
        fail(CheckFailure::Kind::Opcode, static_cast<std::uint64_t>(g.op),
             static_cast<std::uint64_t>(inst.si.op), 0);
        return;
    }
    if (g.wrote_reg &&
        (inst.dst_preg == kInvalidPhysReg || inst.result != g.result)) {
        fail(CheckFailure::Kind::Result, g.result, inst.result,
             g.is_mem ? g.addr : 0);
        return;
    }
    if (g.is_mem && (inst.addr != g.addr || inst.size != g.size)) {
        fail(CheckFailure::Kind::Address, g.addr, inst.addr, g.addr);
        return;
    }
    if (g.is_mem && isStore(g.op) && inst.store_value != g.store_value) {
        fail(CheckFailure::Kind::StoreValue, g.store_value,
             inst.store_value, g.addr);
        return;
    }
    if (g.is_control &&
        (inst.taken != g.taken || inst.actual_next_pc != g.next_pc)) {
        fail(CheckFailure::Kind::Control, g.next_pc, inst.actual_next_pc,
             0);
    }
}

void
GoldenChecker::checkCommittedStore(const DynInst &inst,
                                   const MainMemory &mem, Cycle cycle)
{
    const std::uint64_t committed = mem.readBytes(inst.addr, inst.size);
    const std::uint64_t expected =
        golden_.mem.readBytes(inst.addr, inst.size);
    if (committed == expected)
        return;
    CheckFailure f;
    f.kind = CheckFailure::Kind::StoreCommit;
    f.seq = inst.seq;
    f.pc = inst.pc;
    f.cycle = cycle;
    f.disasm = disassemble(inst.si);
    f.expected = expected;
    f.actual = committed;
    f.addr = inst.addr;
    report(std::move(f));
}

void
GoldenChecker::checkFinalMemory(const MainMemory &mem, Cycle cycle)
{
    const auto diff = golden_.mem.firstDifference(mem);
    if (!diff)
        return;
    CheckFailure f;
    f.kind = CheckFailure::Kind::FinalMemory;
    f.cycle = cycle;
    f.addr = *diff;
    f.expected = golden_.mem.read8(*diff);
    f.actual = mem.read8(*diff);
    report(std::move(f));
}

} // namespace slf
