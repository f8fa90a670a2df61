/**
 * @file
 * Shared check for the functional simulator's block kernel: stepping a
 * program in blocks of any size retires exactly the records, and leaves
 * exactly the state, that stepping it one record at a time does.
 */

#ifndef SLFWD_TESTS_BLOCK_STEP_CHECK_HH_
#define SLFWD_TESTS_BLOCK_STEP_CHECK_HH_

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "arch/func_sim.hh"

namespace slf
{

/**
 * Run @p prog for at most @p limit records with step(), then with
 * stepBlock() at block sizes 1, 7 and 256, and expect every record and
 * the final registers, PC, retire count and memory to be identical.
 */
inline void
expectBlockSizesAgree(const Program &prog, std::uint64_t limit,
                      const std::string &what)
{
    FuncSim ref(prog);
    std::vector<RetireRecord> want;
    while (!ref.halted() && want.size() < limit)
        want.push_back(ref.step());

    for (const std::size_t block : {1u, 7u, 256u}) {
        FuncSim sim(prog);
        std::vector<RetireRecord> got(want.size());
        std::size_t n = 0;
        while (n < got.size()) {
            const std::size_t k = sim.stepBlock(
                got.data() + n, std::min(block, got.size() - n));
            if (k == 0)
                break;
            n += k;
        }
        ASSERT_EQ(n, want.size()) << what << " block " << block;
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_TRUE(got[i] == want[i])
                << what << " block " << block << ": record " << i
                << " (pc " << want[i].pc << ") differs";
        EXPECT_EQ(sim.state().regs, ref.state().regs) << what;
        EXPECT_EQ(sim.pc(), ref.pc()) << what;
        EXPECT_EQ(sim.instsRetired(), ref.instsRetired()) << what;
        EXPECT_EQ(sim.halted(), ref.halted()) << what;
        EXPECT_FALSE(sim.memory().firstDifference(ref.memory()))
            << what << " block " << block << ": memory differs";
    }
}

} // namespace slf

#endif // SLFWD_TESTS_BLOCK_STEP_CHECK_HH_
