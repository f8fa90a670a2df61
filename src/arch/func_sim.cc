#include "func_sim.hh"

#include <algorithm>
#include <sstream>

#include "sim/logging.hh"

namespace slf
{

void
ArchState::apply(const RetireRecord &rec)
{
    if (halted)
        return;
    if (rec.wrote_reg)
        regs[rec.dst] = rec.result;
    if (rec.is_mem && isStore(rec.op))
        mem.writeBytes(rec.addr, rec.store_value, rec.size);
    pc = rec.next_pc;
    halted = rec.is_halt;
    ++retired;
}

std::string
ArchState::toString(unsigned max_regs) const
{
    std::ostringstream oss;
    oss << "pc=0x" << std::hex << pc << std::dec << " retired=" << retired
        << (halted ? " halted" : "");
    const unsigned n =
        std::min<unsigned>(max_regs, static_cast<unsigned>(regs.size()));
    for (unsigned r = 1; r < n; ++r)
        oss << " r" << r << "=0x" << std::hex << regs[r] << std::dec;
    return oss.str();
}

FuncSim::FuncSim(const Program &prog) : prog_(prog)
{
    st_.mem.loadInitialImage(prog);
}

RetireRecord
FuncSim::step()
{
    RetireRecord rec;
    stepInto(rec);
    return rec;
}

void
FuncSim::stepInto(RetireRecord &rec)
{
    rec = RetireRecord{};  // caller storage may hold a stale record

    if (st_.halted) {
        rec.op = Op::HALT;
        rec.pc = st_.pc;
        rec.next_pc = st_.pc;
        rec.is_halt = true;
        return;
    }

    if (!prog_.validPc(st_.pc))
        fatal("FuncSim: PC out of range: " + std::to_string(st_.pc));

    const StaticInst &inst = prog_.inst(st_.pc);
    rec.pc = st_.pc;
    rec.op = inst.op;
    rec.next_pc = st_.pc + 1;

    const std::uint64_t a = st_.regs[inst.src1];
    const std::uint64_t b = st_.regs[inst.src2];
    const Op op = inst.op;

    if (op == Op::NOP) {
        // nothing
    } else if (op == Op::HALT) {
        rec.is_halt = true;
        rec.next_pc = st_.pc;
        st_.halted = true;
    } else if (isLoad(op)) {
        rec.is_mem = true;
        rec.size = memAccessSize(op);
        rec.addr = a + static_cast<std::uint64_t>(inst.imm);
        rec.result = st_.mem.readBytes(rec.addr, rec.size);
        rec.wrote_reg = inst.dst != 0;
        rec.dst = inst.dst;
        if (inst.dst != 0)
            st_.regs[inst.dst] = rec.result;
    } else if (isStore(op)) {
        rec.is_mem = true;
        rec.size = memAccessSize(op);
        rec.addr = a + static_cast<std::uint64_t>(inst.imm);
        const unsigned bits = rec.size * 8;
        rec.store_value = bits >= 64 ? b
            : (b & ((std::uint64_t{1} << bits) - 1));
        st_.mem.writeBytes(rec.addr, rec.store_value, rec.size);
    } else if (isControl(op)) {
        rec.is_control = true;
        rec.taken = branchTaken(op, a, b);
        rec.next_pc = rec.taken ? inst.branchTarget : st_.pc + 1;
    } else {
        // ALU / FP-class.
        rec.result = executeAlu(op, a, b, inst.imm);
        rec.wrote_reg = inst.dst != 0;
        rec.dst = inst.dst;
        if (inst.dst != 0)
            st_.regs[inst.dst] = rec.result;
    }

    st_.pc = rec.next_pc;
    ++st_.retired;
}

std::size_t
FuncSim::stepBlock(RetireRecord *out, std::size_t max)
{
    std::size_t n = 0;
    while (n < max && !st_.halted)
        stepInto(out[n++]);
    return n;
}

std::vector<RetireRecord>
FuncSim::run(std::uint64_t max_insts)
{
    std::vector<RetireRecord> trace;
    trace.reserve(max_insts);
    while (!st_.halted && trace.size() < max_insts)
        trace.push_back(step());
    return trace;
}

} // namespace slf
