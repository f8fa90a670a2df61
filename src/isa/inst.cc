#include "inst.hh"

#include <sstream>

#include "sim/logging.hh"

namespace slf
{

const char *
opName(Op op)
{
    switch (op) {
      case Op::NOP: return "nop";
      case Op::ADD: return "add";
      case Op::SUB: return "sub";
      case Op::AND: return "and";
      case Op::OR: return "or";
      case Op::XOR: return "xor";
      case Op::SLT: return "slt";
      case Op::MUL: return "mul";
      case Op::SHL: return "shl";
      case Op::SHR: return "shr";
      case Op::ADDI: return "addi";
      case Op::ANDI: return "andi";
      case Op::ORI: return "ori";
      case Op::XORI: return "xori";
      case Op::SLTI: return "slti";
      case Op::SHLI: return "shli";
      case Op::SHRI: return "shri";
      case Op::MOVI: return "movi";
      case Op::FADD: return "fadd";
      case Op::FMUL: return "fmul";
      case Op::FDIV: return "fdiv";
      case Op::LD1: return "ld1";
      case Op::LD2: return "ld2";
      case Op::LD4: return "ld4";
      case Op::LD8: return "ld8";
      case Op::ST1: return "st1";
      case Op::ST2: return "st2";
      case Op::ST4: return "st4";
      case Op::ST8: return "st8";
      case Op::BEQ: return "beq";
      case Op::BNE: return "bne";
      case Op::BLT: return "blt";
      case Op::BGE: return "bge";
      case Op::JMP: return "jmp";
      case Op::HALT: return "halt";
      default: return "???";
    }
}

void
panicNonAluOp(Op op)
{
    panic(std::string("executeAlu: non-ALU opcode ") + opName(op));
}

void
panicNonBranchOp(Op op)
{
    panic(std::string("branchTaken: non-branch opcode ") + opName(op));
}

std::string
disassemble(const StaticInst &inst)
{
    std::ostringstream oss;
    oss << opName(inst.op);
    const Op op = inst.op;
    auto reg = [](RegIndex r) { return "r" + std::to_string(r); };

    if (op == Op::NOP || op == Op::HALT) {
        // mnemonic only
    } else if (op == Op::MOVI) {
        oss << ' ' << reg(inst.dst) << ", " << inst.imm;
    } else if (isLoad(op)) {
        oss << ' ' << reg(inst.dst) << ", " << inst.imm << '('
            << reg(inst.src1) << ')';
    } else if (isStore(op)) {
        oss << ' ' << reg(inst.src2) << ", " << inst.imm << '('
            << reg(inst.src1) << ')';
    } else if (isBranch(op)) {
        oss << ' ' << reg(inst.src1) << ", " << reg(inst.src2) << ", @"
            << inst.branchTarget;
    } else if (op == Op::JMP) {
        oss << " @" << inst.branchTarget;
    } else if (readsSrc2(op)) {
        oss << ' ' << reg(inst.dst) << ", " << reg(inst.src1) << ", "
            << reg(inst.src2);
    } else {
        oss << ' ' << reg(inst.dst) << ", " << reg(inst.src1) << ", "
            << inst.imm;
    }
    return oss.str();
}

} // namespace slf
