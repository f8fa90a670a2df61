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

[[gnu::always_inline]] inline std::size_t
FuncSim::execute(RetireRecord *out, std::size_t max)
{
    if (st_.halted)
        return 0;

    // Locals for the whole block: a store through `out` may alias any
    // uint64_t of st_, so members would be reloaded after every record.
    const StaticInst *const text = prog_.text().data();
    const std::uint64_t text_size = prog_.size();
    std::uint64_t *const regs = st_.regs.data();
    MainMemory &mem = st_.mem;
    std::uint64_t pc = st_.pc;
    bool halted = false;
    std::size_t n = 0;

    while (n < max && !halted) {
        if (pc >= text_size) {
            st_.pc = pc;
            st_.retired += n;
            fatal("FuncSim: PC out of range: " + std::to_string(pc));
        }
        const StaticInst &inst = text[pc];
        const Op op = inst.op;
        const std::uint64_t a = regs[inst.src1];
        const std::uint64_t b = regs[inst.src2];
        const std::uint64_t ea = a + static_cast<std::uint64_t>(inst.imm);

        // Built in place: a record assembled on the stack and copied
        // out is reloaded in wider chunks than it was stored in, which
        // defeats the host's store-to-load forwarding.
        RetireRecord &rec = out[n];
        rec = RetireRecord{};
        rec.pc = pc;
        rec.op = op;
        std::uint64_t next_pc = pc + 1;

        // r0 stays zero: its record keeps the result but names no
        // destination.
        auto writeDst = [&](std::uint64_t value) {
            rec.result = value;
            if (inst.dst != 0) {
                rec.wrote_reg = true;
                rec.dst = inst.dst;
                regs[inst.dst] = value;
            }
        };
        auto load = [&](unsigned size) {
            rec.is_mem = true;
            rec.size = size;
            rec.addr = ea;
            writeDst(mem.readBytes(ea, size));
        };
        auto store = [&](unsigned size) {
            rec.is_mem = true;
            rec.size = size;
            rec.addr = ea;
            rec.store_value =
                size == 8 ? b : b & ((std::uint64_t{1} << (8 * size)) - 1);
            mem.writeBytes(ea, rec.store_value, size);
        };
        auto branch = [&](bool taken) {
            rec.is_control = true;
            rec.taken = taken;
            if (taken)
                next_pc = inst.branchTarget;
        };

        // One dispatch per instruction. Each case hands executeAlu and
        // branchTaken a constant opcode, so their switches fold away
        // while the semantics stay the ones the timing core uses.
#define SLF_ALU(o) \
  case Op::o: writeDst(executeAlu(Op::o, a, b, inst.imm)); break
#define SLF_BRANCH(o) \
  case Op::o: branch(branchTaken(Op::o, a, b)); break
        switch (op) {
          case Op::NOP: break;
          SLF_ALU(ADD); SLF_ALU(SUB); SLF_ALU(AND); SLF_ALU(OR);
          SLF_ALU(XOR); SLF_ALU(SLT); SLF_ALU(MUL); SLF_ALU(SHL);
          SLF_ALU(SHR); SLF_ALU(ADDI); SLF_ALU(ANDI); SLF_ALU(ORI);
          SLF_ALU(XORI); SLF_ALU(SLTI); SLF_ALU(SHLI); SLF_ALU(SHRI);
          SLF_ALU(MOVI); SLF_ALU(FADD); SLF_ALU(FMUL); SLF_ALU(FDIV);
          case Op::LD1: load(1); break;
          case Op::LD2: load(2); break;
          case Op::LD4: load(4); break;
          case Op::LD8: load(8); break;
          case Op::ST1: store(1); break;
          case Op::ST2: store(2); break;
          case Op::ST4: store(4); break;
          case Op::ST8: store(8); break;
          SLF_BRANCH(BEQ); SLF_BRANCH(BNE); SLF_BRANCH(BLT);
          SLF_BRANCH(BGE); SLF_BRANCH(JMP);
          case Op::HALT:
            rec.is_halt = true;
            next_pc = pc;
            halted = true;
            break;
          default:
            panicNonAluOp(op);
        }
#undef SLF_ALU
#undef SLF_BRANCH

        rec.next_pc = next_pc;
        pc = next_pc;
        ++n;
    }

    st_.pc = pc;
    st_.retired += n;
    st_.halted = halted;
    return n;
}

RetireRecord
FuncSim::step()
{
    // stepBlock(&rec, 1), with the kernel inlined: the lockstep shadow
    // steps every instruction this way, so one call per record matters.
    RetireRecord rec;
    if (execute(&rec, 1) == 0) {
        rec.op = Op::HALT;
        rec.pc = st_.pc;
        rec.next_pc = st_.pc;
        rec.is_halt = true;
    }
    return rec;
}

std::size_t
FuncSim::stepBlock(RetireRecord *out, std::size_t max)
{
    return execute(out, max);
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
