/** @file Unit tests for the functional golden-model simulator. */

#include <gtest/gtest.h>

#include "arch/arch_stream.hh"
#include "arch/func_sim.hh"
#include "block_step_check.hh"
#include "prog/builder.hh"
#include "sim/logging.hh"
#include "workloads/workloads.hh"

using namespace slf;

namespace
{

Program
singleOpProgram(Op op, std::uint64_t a, std::uint64_t b, std::int64_t imm)
{
    ProgramBuilder pb("single");
    pb.movi(1, static_cast<std::int64_t>(a));
    pb.movi(2, static_cast<std::int64_t>(b));
    StaticInst inst;
    inst.op = op;
    inst.dst = 3;
    inst.src1 = 1;
    inst.src2 = 2;
    inst.imm = imm;
    Program p = pb.build();
    // Insert before the final HALT.
    p.text().insert(p.text().end() - 1, inst);
    return p;
}

} // namespace

TEST(FuncSim, AluOpWritesRegister)
{
    const Program p = singleOpProgram(Op::ADD, 4, 5, 0);
    FuncSim sim(p);
    sim.run(10);
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.readReg(3), 9u);
}

TEST(FuncSim, RegisterZeroStaysZero)
{
    ProgramBuilder b("p");
    b.movi(0, 77);
    b.addi(0, 0, 5);
    const Program prog = b.build();
    FuncSim sim(prog);
    sim.run(10);
    EXPECT_EQ(sim.readReg(0), 0u);
}

TEST(FuncSim, StoreThenLoadRoundTrip)
{
    ProgramBuilder b("p");
    b.movi(1, 0x1000);
    b.movi(2, 0x1122334455667788);
    b.st8(2, 1, 0);
    b.ld8(3, 1, 0);
    const Program prog = b.build();
    FuncSim sim(prog);
    sim.run(10);
    EXPECT_EQ(sim.readReg(3), 0x1122334455667788u);
}

TEST(FuncSim, SubwordStoreTruncates)
{
    ProgramBuilder b("p");
    b.movi(1, 0x1000);
    b.movi(2, static_cast<std::int64_t>(0xdeadbeefcafebabe));
    b.st2(2, 1, 0);
    b.ld8(3, 1, 0);
    const Program prog = b.build();
    FuncSim sim(prog);
    sim.run(10);
    EXPECT_EQ(sim.readReg(3), 0xbabeu);
}

TEST(FuncSim, SubwordLoadZeroExtends)
{
    ProgramBuilder b("p");
    b.poke64(0x1000, 0xffffffffffffffffull);
    b.movi(1, 0x1000);
    b.ld1(3, 1, 0);
    b.ld4(4, 1, 0);
    const Program prog = b.build();
    FuncSim sim(prog);
    sim.run(10);
    EXPECT_EQ(sim.readReg(3), 0xffu);
    EXPECT_EQ(sim.readReg(4), 0xffffffffu);
}

TEST(FuncSim, NegativeDisplacement)
{
    ProgramBuilder b("p");
    b.poke64(0x0ff8, 0x42);
    b.movi(1, 0x1000);
    b.ld8(3, 1, -8);
    const Program prog = b.build();
    FuncSim sim(prog);
    sim.run(10);
    EXPECT_EQ(sim.readReg(3), 0x42u);
}

TEST(FuncSim, UntouchedMemoryReadsZero)
{
    ProgramBuilder b("p");
    b.movi(1, 0x777000);
    b.ld8(3, 1, 0);
    const Program prog = b.build();
    FuncSim sim(prog);
    sim.run(10);
    EXPECT_EQ(sim.readReg(3), 0u);
}

TEST(FuncSim, TakenBranchRedirects)
{
    ProgramBuilder b("p");
    Label skip = b.newLabel();
    b.movi(1, 1);
    b.beq(1, 1, skip);
    b.movi(2, 99);        // skipped
    b.bind(skip);
    b.movi(3, 7);
    const Program prog = b.build();
    FuncSim sim(prog);
    sim.run(10);
    EXPECT_EQ(sim.readReg(2), 0u);
    EXPECT_EQ(sim.readReg(3), 7u);
}

TEST(FuncSim, NotTakenBranchFallsThrough)
{
    ProgramBuilder b("p");
    Label skip = b.newLabel();
    b.movi(1, 1);
    b.bne(1, 1, skip);
    b.movi(2, 99);
    b.bind(skip);
    const Program prog = b.build();
    FuncSim sim(prog);
    sim.run(10);
    EXPECT_EQ(sim.readReg(2), 99u);
}

TEST(FuncSim, LoopExecutesExactIterationCount)
{
    ProgramBuilder b("p");
    b.movi(1, 10);
    b.movi(2, 0);
    Label top = b.newLabel();
    b.bind(top);
    b.addi(2, 2, 1);
    b.addi(1, 1, -1);
    b.bne(1, 0, top);
    const Program prog = b.build();
    FuncSim sim(prog);
    sim.run(1000);
    EXPECT_EQ(sim.readReg(2), 10u);
}

TEST(FuncSim, HaltStopsAndIsIdempotent)
{
    ProgramBuilder b("p");
    b.movi(1, 1);
    const Program prog = b.build();
    FuncSim sim(prog);
    sim.run(100);
    EXPECT_TRUE(sim.halted());
    const std::uint64_t retired = sim.instsRetired();
    const RetireRecord rec = sim.step();
    EXPECT_TRUE(rec.is_halt);
    EXPECT_EQ(sim.instsRetired(), retired);   // no further progress
}

TEST(FuncSim, RetireRecordForStore)
{
    ProgramBuilder b("p");
    b.movi(1, 0x1000);
    b.movi(2, 0xabcd);
    const Program prog = [&] {
        b.st4(2, 1, 4);
        return b.build();
    }();
    FuncSim sim(prog);
    sim.step();
    sim.step();
    const RetireRecord rec = sim.step();
    EXPECT_TRUE(rec.is_mem);
    EXPECT_EQ(rec.addr, 0x1004u);
    EXPECT_EQ(rec.size, 4u);
    EXPECT_EQ(rec.store_value, 0xabcdu);
}

TEST(FuncSim, RetireRecordForBranch)
{
    ProgramBuilder b("p");
    Label t = b.newLabel();
    b.movi(1, 3);
    b.blt(0, 1, t);   // 0 < 3: taken
    b.nop();
    b.bind(t);
    const Program prog = b.build();
    FuncSim sim(prog);
    sim.step();
    const RetireRecord rec = sim.step();
    EXPECT_TRUE(rec.is_control);
    EXPECT_TRUE(rec.taken);
    EXPECT_EQ(rec.next_pc, 3u);
}

TEST(FuncSim, RunHonorsInstructionCap)
{
    ProgramBuilder b("p");
    b.movi(1, 1000000);
    Label top = b.newLabel();
    b.bind(top);
    b.addi(1, 1, -1);
    b.bne(1, 0, top);
    const Program prog = b.build();
    FuncSim sim(prog);
    const auto trace = sim.run(500);
    EXPECT_EQ(trace.size(), 500u);
    EXPECT_FALSE(sim.halted());
}

TEST(FuncSim, MemoryImageLoadedBeforeExecution)
{
    ProgramBuilder b("p");
    b.poke64(0x3000, 1234);
    b.movi(1, 0x3000);
    b.ld8(2, 1, 0);
    const Program prog = b.build();
    FuncSim sim(prog);
    sim.run(10);
    EXPECT_EQ(sim.readReg(2), 1234u);
}

// ---------------------------------------------------------------------
// The block kernel: one interpreter behind step() and stepBlock().
// ---------------------------------------------------------------------

TEST(FuncSim, BlockSizesGiveIdenticalRecordsOnEveryAnalog)
{
    for (const WorkloadInfo &w : spec2000Analogs())
        expectBlockSizesAgree(w.make(WorkloadParams{}), 100'000, w.name);
}

TEST(FuncSim, HaltInTheMiddleOfABlockEndsIt)
{
    ProgramBuilder b("p");
    b.movi(1, 5);
    b.addi(2, 1, 1);
    const Program prog = b.build();   // movi, addi, halt
    FuncSim sim(prog);
    RetireRecord out[8];
    ASSERT_EQ(sim.stepBlock(out, 8), 3u);
    EXPECT_TRUE(sim.halted());
    EXPECT_EQ(sim.instsRetired(), 3u);
    EXPECT_EQ(sim.pc(), 2u);

    RetireRecord halt;
    halt.pc = 2;
    halt.op = Op::HALT;
    halt.next_pc = 2;
    halt.is_halt = true;
    EXPECT_TRUE(out[2] == halt) << "HALT's record: next_pc = pc, rest 0";
    EXPECT_FALSE(out[1].is_halt);

    // Past HALT: stepBlock retires nothing, step() retires HALT again.
    EXPECT_EQ(sim.stepBlock(out, 8), 0u);
    EXPECT_TRUE(sim.step() == halt);
    EXPECT_TRUE(sim.step() == halt);
    EXPECT_EQ(sim.instsRetired(), 3u);
}

TEST(FuncSim, RegisterZeroDestinationKeepsTheResultButNamesNoRegister)
{
    ProgramBuilder b("p");
    b.poke64(0x2000, 0x1122334455667788ull);
    b.movi(1, 0x2000);
    b.ld8(0, 1, 0);        // load into r0
    b.addi(0, 1, 7);       // immediate ALU into r0
    b.add(0, 1, 1);        // register ALU into r0
    const Program prog = b.build();
    FuncSim sim(prog);
    sim.step();

    const RetireRecord ld = sim.step();
    EXPECT_TRUE(ld.is_mem);
    EXPECT_EQ(ld.result, 0x1122334455667788ull);
    EXPECT_FALSE(ld.wrote_reg);
    EXPECT_EQ(ld.dst, 0u);

    for (const std::uint64_t want : {0x2007ull, 0x4000ull}) {
        const RetireRecord alu = sim.step();
        EXPECT_EQ(alu.result, want);
        EXPECT_FALSE(alu.wrote_reg);
        EXPECT_EQ(alu.dst, 0u);
    }
    EXPECT_EQ(sim.readReg(0), 0u);
}

TEST(FuncSim, PcOutOfRangeIsFatalAndCountsOnlyRetiredRecords)
{
    Program prog("no_halt", WorkloadClass::Int);
    prog.text().assign(3, StaticInst{});   // three NOPs, no HALT
    FuncSim sim(prog);
    RetireRecord out[8];
    try {
        sim.stepBlock(out, 8);
        FAIL() << "running off the text segment must be fatal";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "FuncSim: PC out of range: 3");
    }
    EXPECT_EQ(sim.instsRetired(), 3u);
    EXPECT_EQ(sim.pc(), 3u);
    EXPECT_FALSE(sim.halted());
    EXPECT_THROW(sim.step(), FatalError);
    EXPECT_EQ(sim.instsRetired(), 3u);
}

// ---------------------------------------------------------------------
// ArchStream: the functional stream one timing run reads ahead of and
// consumes at retire.
// ---------------------------------------------------------------------

TEST(ArchStream, RecordsMatchAFuncSimRunAndEndAtHalt)
{
    const Program p = singleOpProgram(Op::ADD, 4, 5, 0);
    FuncSim ref(p);
    const std::vector<RetireRecord> want = ref.run(100);
    ASSERT_EQ(want.size(), 4u);   // movi, movi, add, halt

    ArchStream stream(p, 100, 2);
    EXPECT_EQ(stream.capacity(), 2u);
    for (std::uint64_t i = 0; i < want.size(); ++i) {
        const RetireRecord *r = stream.find(i);
        ASSERT_NE(r, nullptr) << "record " << i;
        EXPECT_EQ(r->pc, want[i].pc);
        EXPECT_EQ(r->next_pc, want[i].next_pc);
        EXPECT_EQ(r->result, want[i].result);
        EXPECT_EQ(stream.retire().pc, want[i].pc);
    }
    EXPECT_TRUE(stream.ended());
    EXPECT_EQ(stream.find(4), nullptr) << "no record past HALT";
    // Retiring past HALT yields HALT records, as FuncSim::step does.
    const RetireRecord &past = stream.retire();
    EXPECT_TRUE(past.is_halt);
    EXPECT_EQ(past.pc, want.back().pc);
}

TEST(ArchStream, LimitEndsTheStreamAndReadsStayResident)
{
    const Program p = singleOpProgram(Op::ADD, 4, 5, 0);
    ArchStream stream(p, 2, 4);
    ASSERT_NE(stream.find(1), nullptr);
    EXPECT_EQ(stream.find(2), nullptr) << "record past the limit";
    EXPECT_TRUE(stream.ended());
    EXPECT_EQ(stream.peek(0), stream.find(0));
    stream.retire();
    EXPECT_EQ(stream.retired(), 1u);
    EXPECT_EQ(stream.peek(0), nullptr);
    EXPECT_NE(stream.peek(1), nullptr);
}

TEST(ArchStreamDeathTest, ReadsOutsideTheResidentWindowPanic)
{
    const Program p = singleOpProgram(Op::ADD, 4, 5, 0);
    ArchStream stream(p, 100, 2);
    stream.retire();
    EXPECT_DEATH(stream.find(0), "panic: ArchStream: record 0 is no longer "
                                 "resident");
    EXPECT_DEATH(stream.find(3), "panic: ArchStream: record 3 is past the "
                                 "ring");
}

TEST(ArchState, ApplyingRecordsRebuildsTheFuncSimState)
{
    const Program p = singleOpProgram(Op::ADD, 4, 5, 0);
    FuncSim sim(p);
    ArchState st;
    st.mem.loadInitialImage(p);
    while (!sim.halted())
        st.apply(sim.step());
    st.apply(sim.step());   // past HALT: no effect
    EXPECT_EQ(st.toString(), sim.state().toString());
    EXPECT_EQ(st.regs[3], 9u);
    EXPECT_EQ(st.retired, 4u);
    EXPECT_TRUE(st.halted);
}
