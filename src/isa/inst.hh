/**
 * @file
 * Definition of the simulated 64-bit RISC ISA.
 *
 * The ISA is deliberately small but covers everything the paper's memory
 * subsystem exercises: sub-word loads/stores (1/2/4/8 bytes) for the
 * SFC's valid-mask logic, conditional branches for wrong-path execution,
 * and an FP-class opcode group (fixed-point semantics, FP-like latencies)
 * so that specint/specfp workload classes remain meaningful.
 *
 * Programs are sequences of StaticInst; the program counter is an
 * instruction index. Branch targets are absolute instruction indices.
 */

#ifndef SLFWD_ISA_INST_HH_
#define SLFWD_ISA_INST_HH_

#include <cstdint>
#include <string>

#include "sim/types.hh"

namespace slf
{

/** Number of architectural integer registers; r0 is hardwired to zero. */
inline constexpr unsigned kNumArchRegs = 32;

/** Base byte address of the simulated text segment (for the I-cache). */
inline constexpr Addr kTextBase = 0x0000000010000000ull;

/** Bytes per encoded instruction (for I-cache address computation). */
inline constexpr unsigned kInstBytes = 8;

/** Opcodes. Keep kNumOps in sync when extending. */
enum class Op : std::uint8_t
{
    NOP = 0,

    // Integer ALU, register-register.
    ADD, SUB, AND, OR, XOR, SLT, MUL, SHL, SHR,

    // Integer ALU, register-immediate (src2 unused).
    ADDI, ANDI, ORI, XORI, SLTI, SHLI, SHRI, MOVI,

    // FP-class ops (fixed-point semantics, FP latency class).
    FADD, FMUL, FDIV,

    // Loads: dst <- zero_extend(M[src1 + imm], size).
    LD1, LD2, LD4, LD8,

    // Stores: M[src1 + imm] <- low bytes of src2.
    ST1, ST2, ST4, ST8,

    // Control: conditional branches compare src1/src2, target = branchTarget.
    BEQ, BNE, BLT, BGE,
    JMP,        ///< unconditional direct jump

    HALT,       ///< terminate the program

    kNumOps
};

/** @return mnemonic for an opcode ("add", "ld4", ...). */
const char *opName(Op op);

/**
 * A static (decoded) instruction.
 *
 * Fields not used by a given opcode are zero. `imm` is the ALU immediate
 * or the load/store displacement; `branchTarget` is an absolute
 * instruction index.
 */
struct StaticInst
{
    Op op = Op::NOP;
    RegIndex dst = 0;
    RegIndex src1 = 0;
    RegIndex src2 = 0;
    std::int64_t imm = 0;
    std::uint32_t branchTarget = 0;

    friend bool
    operator==(const StaticInst &a, const StaticInst &b)
    {
        return a.op == b.op && a.dst == b.dst && a.src1 == b.src1 &&
               a.src2 == b.src2 && a.imm == b.imm &&
               a.branchTarget == b.branchTarget;
    }
};

/*
 * The helpers below run several times per simulated instruction in
 * every pipeline stage, so they live here, inline, rather than behind
 * a call into inst.cc. The classifiers are range compares over the
 * opcode order; the static_asserts pin every range they rely on.
 */

constexpr bool
opIn(Op op, Op first, Op last)
{
    return op >= first && op <= last;
}

static_assert(Op(unsigned(Op::LD1) + 3) == Op::LD8 &&
              Op(unsigned(Op::LD8) + 1) == Op::ST1 &&
              Op(unsigned(Op::ST1) + 3) == Op::ST8,
              "loads then stores, each in size order 1/2/4/8");
static_assert(Op(unsigned(Op::ST8) + 1) == Op::BEQ &&
              Op(unsigned(Op::BEQ) + 3) == Op::BGE &&
              Op(unsigned(Op::BGE) + 1) == Op::JMP &&
              Op(unsigned(Op::JMP) + 1) == Op::HALT &&
              Op(unsigned(Op::HALT) + 1) == Op::kNumOps,
              "stores, branches, JMP and HALT close the opcode space");
static_assert(unsigned(Op::ADD) == 1 &&
              Op(unsigned(Op::ADD) + 8) == Op::SHR &&
              Op(unsigned(Op::SHR) + 1) == Op::ADDI &&
              Op(unsigned(Op::ADDI) + 7) == Op::MOVI &&
              Op(unsigned(Op::MOVI) + 1) == Op::FADD &&
              Op(unsigned(Op::FADD) + 2) == Op::FDIV &&
              Op(unsigned(Op::FDIV) + 1) == Op::LD1,
              "register-register ALU, immediate ALU, FP class, loads");

constexpr bool isLoad(Op op) { return opIn(op, Op::LD1, Op::LD8); }
constexpr bool isStore(Op op) { return opIn(op, Op::ST1, Op::ST8); }
constexpr bool isMem(Op op) { return opIn(op, Op::LD1, Op::ST8); }
/** Conditional branches only. */
constexpr bool isBranch(Op op) { return opIn(op, Op::BEQ, Op::BGE); }
/** Branches + JMP (not HALT). */
constexpr bool isControl(Op op) { return opIn(op, Op::BEQ, Op::JMP); }
constexpr bool isFpClass(Op op) { return opIn(op, Op::FADD, Op::FDIV); }
constexpr bool isMul(Op op) { return op == Op::MUL; }

/** @return access size in bytes for a load/store opcode; 0 otherwise. */
constexpr unsigned
memAccessSize(Op op)
{
    return isMem(op) ? 1u << ((unsigned(op) - unsigned(Op::LD1)) & 3) : 0;
}

/** @return true if the opcode writes its dst register. */
constexpr bool
writesDst(Op op)
{
    // Everything from ST1 on (stores, control, HALT) writes nothing.
    return op != Op::NOP && op < Op::ST1;
}

/** @return true if the opcode reads src1 / src2. */
constexpr bool
readsSrc1(Op op)
{
    return op != Op::NOP && op != Op::MOVI && op < Op::JMP;
}

constexpr bool
readsSrc2(Op op)
{
    return opIn(op, Op::ADD, Op::SHR) || isFpClass(op) ||
           opIn(op, Op::ST1, Op::BGE);
}

/** Out-of-line panics for executeAlu/branchTaken on a wrong opcode. */
[[noreturn]] void panicNonAluOp(Op op);
[[noreturn]] void panicNonBranchOp(Op op);

/**
 * Pure ALU semantics shared by the functional simulator and the
 * out-of-order core, so the two can never disagree.
 *
 * @param op   ALU or FP-class opcode.
 * @param a    value of src1.
 * @param b    value of src2 (register-register forms).
 * @param imm  immediate (register-immediate forms).
 * @return the 64-bit result.
 */
constexpr std::uint64_t
executeAlu(Op op, std::uint64_t a, std::uint64_t b, std::int64_t imm)
{
    const std::uint64_t uimm = static_cast<std::uint64_t>(imm);
    switch (op) {
      case Op::ADD: return a + b;
      case Op::SUB: return a - b;
      case Op::AND: return a & b;
      case Op::OR: return a | b;
      case Op::XOR: return a ^ b;
      case Op::SLT:
        return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b)
            ? 1 : 0;
      case Op::MUL: return a * b;
      case Op::SHL: return a << (b & 63);
      case Op::SHR: return a >> (b & 63);
      case Op::ADDI: return a + uimm;
      case Op::ANDI: return a & uimm;
      case Op::ORI: return a | uimm;
      case Op::XORI: return a ^ uimm;
      case Op::SLTI:
        return static_cast<std::int64_t>(a) < imm ? 1 : 0;
      case Op::SHLI: return a << (uimm & 63);
      case Op::SHRI: return a >> (uimm & 63);
      case Op::MOVI: return uimm;
      // FP-class ops use fixed-point semantics so the golden model and the
      // timing model agree exactly; only their latency class differs.
      case Op::FADD: return a + b;
      case Op::FMUL: return a * b + 1;
      case Op::FDIV: return b ? a / b : ~std::uint64_t{0};
      default:
        panicNonAluOp(op);
    }
}

/**
 * Branch condition evaluation (signed comparisons for BLT/BGE).
 *
 * @return true if the branch is taken.
 */
constexpr bool
branchTaken(Op op, std::uint64_t a, std::uint64_t b)
{
    switch (op) {
      case Op::BEQ: return a == b;
      case Op::BNE: return a != b;
      case Op::BLT:
        return static_cast<std::int64_t>(a) < static_cast<std::int64_t>(b);
      case Op::BGE:
        return static_cast<std::int64_t>(a) >= static_cast<std::int64_t>(b);
      case Op::JMP: return true;
      default:
        panicNonBranchOp(op);
    }
}

/** Render one instruction as text, e.g. "add r3, r1, r2". */
std::string disassemble(const StaticInst &inst);

} // namespace slf

#endif // SLFWD_ISA_INST_HH_
