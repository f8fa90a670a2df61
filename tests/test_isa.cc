/** @file Unit tests for the ISA definition and shared semantics. */

#include <gtest/gtest.h>

#include <cctype>
#include <cstdint>
#include <iterator>
#include <ostream>
#include <string>

#include "isa/inst.hh"

using namespace slf;

namespace
{

/** Parameter-name generator for the semantics tables: upper-case
 *  mnemonic plus the case index ("ADD_0", "BEQ_0"), so test names do
 *  not depend on how gtest would print the struct (its default dumps
 *  raw bytes, padding included). */
struct CaseName
{
    template <class Case>
    std::string
    operator()(const ::testing::TestParamInfo<Case> &info) const
    {
        std::string name = opName(info.param.op);
        for (char &ch : name)
            ch = char(std::toupper(static_cast<unsigned char>(ch)));
        return name + "_" + std::to_string(info.index);
    }
};

} // namespace

TEST(IsaClassify, LoadsAndStores)
{
    for (Op op : {Op::LD1, Op::LD2, Op::LD4, Op::LD8}) {
        EXPECT_TRUE(isLoad(op));
        EXPECT_FALSE(isStore(op));
        EXPECT_TRUE(isMem(op));
        EXPECT_TRUE(writesDst(op));
    }
    for (Op op : {Op::ST1, Op::ST2, Op::ST4, Op::ST8}) {
        EXPECT_TRUE(isStore(op));
        EXPECT_FALSE(isLoad(op));
        EXPECT_TRUE(isMem(op));
        EXPECT_FALSE(writesDst(op));
    }
}

TEST(IsaClassify, ControlOps)
{
    for (Op op : {Op::BEQ, Op::BNE, Op::BLT, Op::BGE}) {
        EXPECT_TRUE(isBranch(op));
        EXPECT_TRUE(isControl(op));
    }
    EXPECT_FALSE(isBranch(Op::JMP));
    EXPECT_TRUE(isControl(Op::JMP));
    EXPECT_FALSE(isControl(Op::HALT));
    EXPECT_FALSE(isControl(Op::ADD));
}

TEST(IsaClassify, FpClass)
{
    EXPECT_TRUE(isFpClass(Op::FADD));
    EXPECT_TRUE(isFpClass(Op::FMUL));
    EXPECT_TRUE(isFpClass(Op::FDIV));
    EXPECT_FALSE(isFpClass(Op::ADD));
    EXPECT_FALSE(isFpClass(Op::MUL));
}

TEST(IsaClassify, MemAccessSizes)
{
    EXPECT_EQ(memAccessSize(Op::LD1), 1u);
    EXPECT_EQ(memAccessSize(Op::LD2), 2u);
    EXPECT_EQ(memAccessSize(Op::LD4), 4u);
    EXPECT_EQ(memAccessSize(Op::LD8), 8u);
    EXPECT_EQ(memAccessSize(Op::ST1), 1u);
    EXPECT_EQ(memAccessSize(Op::ST8), 8u);
    EXPECT_EQ(memAccessSize(Op::ADD), 0u);
}

TEST(IsaClassify, SourceUsage)
{
    EXPECT_FALSE(readsSrc1(Op::MOVI));
    EXPECT_FALSE(readsSrc2(Op::MOVI));
    EXPECT_TRUE(readsSrc1(Op::ADDI));
    EXPECT_FALSE(readsSrc2(Op::ADDI));
    EXPECT_TRUE(readsSrc2(Op::ADD));
    EXPECT_TRUE(readsSrc2(Op::ST8));   // store data
    EXPECT_TRUE(readsSrc1(Op::LD8));   // base address
    EXPECT_FALSE(readsSrc2(Op::LD8));
    EXPECT_TRUE(readsSrc2(Op::BEQ));
}

struct AluCase
{
    Op op;
    std::uint64_t a, b;
    std::int64_t imm;
    std::uint64_t expect;
};

/** Field-wise, so `--gtest_list_tests` and ctest names never show the
 *  struct's padding bytes. */
void
PrintTo(const AluCase &c, std::ostream *os)
{
    *os << opName(c.op) << "(" << c.a << ", " << c.b << ", " << c.imm
        << ") = " << c.expect;
}

class AluSemantics : public ::testing::TestWithParam<AluCase>
{};

TEST_P(AluSemantics, Matches)
{
    const AluCase &c = GetParam();
    EXPECT_EQ(executeAlu(c.op, c.a, c.b, c.imm), c.expect);
}

INSTANTIATE_TEST_SUITE_P(
    AllOps, AluSemantics,
    ::testing::Values(
        AluCase{Op::ADD, 2, 3, 0, 5},
        AluCase{Op::ADD, ~0ull, 1, 0, 0},            // wraparound
        AluCase{Op::SUB, 3, 5, 0, ~0ull - 1},
        AluCase{Op::AND, 0xff00, 0x0ff0, 0, 0x0f00},
        AluCase{Op::OR, 0xf0, 0x0f, 0, 0xff},
        AluCase{Op::XOR, 0xff, 0x0f, 0, 0xf0},
        AluCase{Op::SLT, ~0ull, 1, 0, 1},            // -1 < 1 signed
        AluCase{Op::SLT, 1, ~0ull, 0, 0},
        AluCase{Op::MUL, 7, 6, 0, 42},
        AluCase{Op::SHL, 1, 63, 0, 1ull << 63},
        AluCase{Op::SHL, 1, 64, 0, 1},               // shift masked to 6 bits
        AluCase{Op::SHR, 1ull << 63, 63, 0, 1},
        AluCase{Op::ADDI, 10, 0, -3, 7},
        AluCase{Op::ANDI, 0xabcd, 0, 0xff, 0xcd},
        AluCase{Op::ORI, 0x0f, 0, 0xf0, 0xff},
        AluCase{Op::XORI, 0xff, 0, 0x0f, 0xf0},
        AluCase{Op::SLTI, 2, 0, 3, 1},
        AluCase{Op::SLTI, 3, 0, 3, 0},
        AluCase{Op::SHLI, 3, 0, 2, 12},
        AluCase{Op::SHRI, 12, 0, 2, 3},
        AluCase{Op::MOVI, 0, 0, -1,
                0xffffffffffffffffull},              // sign-extended imm
        AluCase{Op::FADD, 4, 5, 0, 9},
        AluCase{Op::FMUL, 4, 5, 0, 21},
        AluCase{Op::FDIV, 42, 6, 0, 7},
        AluCase{Op::FDIV, 42, 0, 0, ~0ull}),         // div-by-zero defined
    CaseName());

struct BranchCase
{
    Op op;
    std::uint64_t a, b;
    bool taken;
};

void
PrintTo(const BranchCase &c, std::ostream *os)
{
    *os << opName(c.op) << "(" << c.a << ", " << c.b << ") = "
        << (c.taken ? "taken" : "not taken");
}

class BranchSemantics : public ::testing::TestWithParam<BranchCase>
{};

TEST_P(BranchSemantics, Matches)
{
    const BranchCase &c = GetParam();
    EXPECT_EQ(branchTaken(c.op, c.a, c.b), c.taken);
}

INSTANTIATE_TEST_SUITE_P(
    AllBranches, BranchSemantics,
    ::testing::Values(
        BranchCase{Op::BEQ, 5, 5, true}, BranchCase{Op::BEQ, 5, 6, false},
        BranchCase{Op::BNE, 5, 6, true}, BranchCase{Op::BNE, 5, 5, false},
        BranchCase{Op::BLT, ~0ull, 0, true},     // signed: -1 < 0
        BranchCase{Op::BLT, 0, ~0ull, false},
        BranchCase{Op::BGE, 0, ~0ull, true},
        BranchCase{Op::BGE, ~0ull, 0, false},
        BranchCase{Op::BGE, 3, 3, true},
        BranchCase{Op::JMP, 0, 0, true}),
    CaseName());

TEST(Disassemble, RepresentativeForms)
{
    StaticInst i;
    i.op = Op::ADD;
    i.dst = 3;
    i.src1 = 1;
    i.src2 = 2;
    EXPECT_EQ(disassemble(i), "add r3, r1, r2");

    i = StaticInst{};
    i.op = Op::LD4;
    i.dst = 5;
    i.src1 = 2;
    i.imm = 16;
    EXPECT_EQ(disassemble(i), "ld4 r5, 16(r2)");

    i = StaticInst{};
    i.op = Op::ST8;
    i.src1 = 2;
    i.src2 = 7;
    i.imm = -8;
    EXPECT_EQ(disassemble(i), "st8 r7, -8(r2)");

    i = StaticInst{};
    i.op = Op::BNE;
    i.src1 = 1;
    i.src2 = 0;
    i.branchTarget = 12;
    EXPECT_EQ(disassemble(i), "bne r1, r0, @12");

    i = StaticInst{};
    i.op = Op::MOVI;
    i.dst = 4;
    i.imm = -7;
    EXPECT_EQ(disassemble(i), "movi r4, -7");

    i = StaticInst{};
    i.op = Op::HALT;
    EXPECT_EQ(disassemble(i), "halt");
}

TEST(Disassemble, EveryOpcodeHasAName)
{
    for (unsigned o = 0; o < static_cast<unsigned>(Op::kNumOps); ++o) {
        const char *name = opName(static_cast<Op>(o));
        EXPECT_STRNE(name, "???") << "opcode " << o;
    }
}

// ---------------------------------------------------------------------
// Exhaustive classification table: every opcode against every helper,
// checked against one explicit expected row per opcode.
// ---------------------------------------------------------------------

namespace
{

/** ALU/branch operands for the table's semantics columns: a = -10,
 *  b = 3, imm = -3. */
constexpr std::uint64_t kA = ~std::uint64_t{9};
constexpr std::uint64_t kB = 3;
constexpr std::int64_t kImm = -3;

/** Whether a control op is taken at (kA, kB) and at (kB, kB). */
enum class Br
{
    None,      ///< not a control op: branchTaken panics
    OnLess,    ///< taken at (kA, kB), not at (kB, kB)
    OnEqual,   ///< taken at (kB, kB), not at (kA, kB)
    Always,
};

/** One expected row. `alu` says whether executeAlu is defined for the
 *  opcode (it panics otherwise); `result` is then its value at
 *  (kA, kB, kImm). */
struct OpRow
{
    Op op;
    bool load, store, branch, control, fp, mul;
    unsigned size;
    bool writes, src1, src2;
    bool alu;
    std::uint64_t result;
    Br br;
};

constexpr std::uint64_t
u(std::int64_t v)
{
    return static_cast<std::uint64_t>(v);
}

constexpr bool T = true, F = false;

constexpr OpRow kOpTable[] = {
    //  op      ld st br ct fp mu sz wr s1 s2 alu result, taken
    {Op::NOP,  F, F, F, F, F, F, 0, F, F, F, F, 0u, Br::None},
    {Op::ADD,  F, F, F, F, F, F, 0, T, T, T, T, u(-7), Br::None},
    {Op::SUB,  F, F, F, F, F, F, 0, T, T, T, T, u(-13), Br::None},
    {Op::AND,  F, F, F, F, F, F, 0, T, T, T, T, 2u, Br::None},
    {Op::OR,   F, F, F, F, F, F, 0, T, T, T, T, u(-9), Br::None},
    {Op::XOR,  F, F, F, F, F, F, 0, T, T, T, T, u(-11), Br::None},
    {Op::SLT,  F, F, F, F, F, F, 0, T, T, T, T, 1u, Br::None},
    {Op::MUL,  F, F, F, F, F, T, 0, T, T, T, T, u(-30), Br::None},
    {Op::SHL,  F, F, F, F, F, F, 0, T, T, T, T, u(-80), Br::None},
    {Op::SHR,  F, F, F, F, F, F, 0, T, T, T, T, 0x1ffffffffffffffeull, Br::None},
    {Op::ADDI, F, F, F, F, F, F, 0, T, T, F, T, u(-13), Br::None},
    {Op::ANDI, F, F, F, F, F, F, 0, T, T, F, T, u(-12), Br::None},
    {Op::ORI,  F, F, F, F, F, F, 0, T, T, F, T, u(-1), Br::None},
    {Op::XORI, F, F, F, F, F, F, 0, T, T, F, T, 11u, Br::None},
    {Op::SLTI, F, F, F, F, F, F, 0, T, T, F, T, 1u, Br::None},
    {Op::SHLI, F, F, F, F, F, F, 0, T, T, F, T, 0xc000000000000000ull, Br::None},
    {Op::SHRI, F, F, F, F, F, F, 0, T, T, F, T, 7u, Br::None},
    {Op::MOVI, F, F, F, F, F, F, 0, T, F, F, T, u(-3), Br::None},
    {Op::FADD, F, F, F, F, T, F, 0, T, T, T, T, u(-7), Br::None},
    {Op::FMUL, F, F, F, F, T, F, 0, T, T, T, T, u(-29), Br::None},
    {Op::FDIV, F, F, F, F, T, F, 0, T, T, T, T, 0x5555555555555552ull, Br::None},
    {Op::LD1,  T, F, F, F, F, F, 1, T, T, F, F, 0u, Br::None},
    {Op::LD2,  T, F, F, F, F, F, 2, T, T, F, F, 0u, Br::None},
    {Op::LD4,  T, F, F, F, F, F, 4, T, T, F, F, 0u, Br::None},
    {Op::LD8,  T, F, F, F, F, F, 8, T, T, F, F, 0u, Br::None},
    {Op::ST1,  F, T, F, F, F, F, 1, F, T, T, F, 0u, Br::None},
    {Op::ST2,  F, T, F, F, F, F, 2, F, T, T, F, 0u, Br::None},
    {Op::ST4,  F, T, F, F, F, F, 4, F, T, T, F, 0u, Br::None},
    {Op::ST8,  F, T, F, F, F, F, 8, F, T, T, F, 0u, Br::None},
    {Op::BEQ,  F, F, T, T, F, F, 0, F, T, T, F, 0u, Br::OnEqual},
    {Op::BNE,  F, F, T, T, F, F, 0, F, T, T, F, 0u, Br::OnLess},
    {Op::BLT,  F, F, T, T, F, F, 0, F, T, T, F, 0u, Br::OnLess},
    {Op::BGE,  F, F, T, T, F, F, 0, F, T, T, F, 0u, Br::OnEqual},
    {Op::JMP,  F, F, F, T, F, F, 0, F, F, F, F, 0u, Br::Always},
    {Op::HALT, F, F, F, F, F, F, 0, F, F, F, F, 0u, Br::None},
};

static_assert(std::size(kOpTable) == static_cast<std::size_t>(Op::kNumOps),
              "one expected row per opcode");

} // namespace

TEST(IsaTable, EveryOpcodeMatchesItsExpectedRow)
{
    for (unsigned o = 0; o < static_cast<unsigned>(Op::kNumOps); ++o) {
        const OpRow &row = kOpTable[o];
        const Op op = static_cast<Op>(o);
        ASSERT_EQ(row.op, op) << "table row " << o << " out of order";
        SCOPED_TRACE(opName(op));
        EXPECT_EQ(isLoad(op), row.load);
        EXPECT_EQ(isStore(op), row.store);
        EXPECT_EQ(isMem(op), row.load || row.store);
        EXPECT_EQ(isBranch(op), row.branch);
        EXPECT_EQ(isControl(op), row.control);
        EXPECT_EQ(isFpClass(op), row.fp);
        EXPECT_EQ(isMul(op), row.mul);
        EXPECT_EQ(memAccessSize(op), row.size);
        EXPECT_EQ(writesDst(op), row.writes);
        EXPECT_EQ(readsSrc1(op), row.src1);
        EXPECT_EQ(readsSrc2(op), row.src2);
        if (row.alu) {
            EXPECT_EQ(executeAlu(op, kA, kB, kImm), row.result);
        }
        if (row.br != Br::None) {
            EXPECT_EQ(branchTaken(op, kA, kB),
                      row.br == Br::OnLess || row.br == Br::Always);
            EXPECT_EQ(branchTaken(op, kB, kB),
                      row.br == Br::OnEqual || row.br == Br::Always);
        }
    }
}

TEST(IsaTableDeathTest, NonAluOpcodePanicsWithItsMnemonic)
{
    EXPECT_DEATH(executeAlu(Op::LD8, 1, 2, 3),
                 "panic: executeAlu: non-ALU opcode ld8");
    EXPECT_DEATH(executeAlu(Op::BEQ, 1, 2, 3),
                 "panic: executeAlu: non-ALU opcode beq");
}

TEST(IsaTableDeathTest, NonControlOpcodePanicsWithItsMnemonic)
{
    EXPECT_DEATH(branchTaken(Op::ADD, 1, 2),
                 "panic: branchTaken: non-branch opcode add");
    EXPECT_DEATH(branchTaken(Op::HALT, 1, 2),
                 "panic: branchTaken: non-branch opcode halt");
}
