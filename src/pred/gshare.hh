/**
 * @file
 * Gshare conditional branch predictor with the paper's oracle filter.
 *
 * Figure 4: "8Kbit Gshare + 80% mispredicts turned to correct predictions
 * by an oracle". The oracle lives in the fetch stage (which, in an
 * execution-driven simulator, can consult the architectural path); this
 * class only supplies the raw gshare prediction, speculative history
 * management, and training.
 */

#ifndef SLFWD_PRED_GSHARE_HH_
#define SLFWD_PRED_GSHARE_HH_

#include <cstdint>
#include <vector>

#include "sim/types.hh"

namespace slf
{

class GsharePredictor
{
  public:
    /**
     * @param table_bits  total predictor budget in bits (two-bit
     *                    counters); 8192 bits -> 4096 counters.
     * @param history_bits global-history length.
     */
    explicit GsharePredictor(unsigned table_bits = 8192,
                             unsigned history_bits = 12);

    /** Raw prediction for the branch at @p pc with current history. */
    bool predict(std::uint64_t pc) const;

    /**
     * Speculatively shift @p taken into the global history (done at
     * fetch time with the *predicted* outcome).
     */
    void updateHistory(bool taken);

    /** Current speculative history (checkpointed per instruction). */
    std::uint16_t history() const { return history_; }

    /** Restore history after a flush. */
    void restoreHistory(std::uint16_t h) { history_ = h; }

    /**
     * Train the two-bit counter for the branch at @p pc that was fetched
     * with history @p h and resolved @p taken.
     */
    void train(std::uint64_t pc, std::uint16_t h, bool taken);

  private:
    std::uint64_t index(std::uint64_t pc, std::uint16_t h) const;

    std::vector<std::uint8_t> counters_;  ///< 2-bit saturating
    std::uint64_t mask_;
    std::uint16_t history_ = 0;
    std::uint16_t history_mask_;
};

} // namespace slf

#endif // SLFWD_PRED_GSHARE_HH_
