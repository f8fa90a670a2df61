#include "func_batch.hh"

#include <algorithm>
#include <memory>
#include <vector>

#include "arch/func_sim.hh"
#include "isa/inst.hh"
#include "mem/cache.hh"

namespace slf
{

namespace
{

/** Records per stepBlock call (batches end early only at HALT). */
constexpr std::size_t kBlockSize = 256;
/** Bimodal predictor entries (2-bit counters, PC-indexed). */
constexpr std::size_t kBimodalEntries = 4096;

} // namespace

SimResult
runFuncBatch(const CoreConfig &cfg, const Program &prog)
{
    const unsigned width = std::max(1u, cfg.width);

    FuncSim sim(prog);
    // Validation shadow: an independent FuncSim, stepped one record at
    // a time in lockstep with the batch path, every record compared
    // field by field. The screening backend's timing is approximate by
    // design, but its architectural state must not be — this is the
    // screening analogue of the timing core's golden check.
    std::unique_ptr<FuncSim> golden;
    if (cfg.validate)
        golden = std::make_unique<FuncSim>(prog);

    CacheHierarchy caches(cfg.l1i, cfg.l1d, cfg.l2);
    std::vector<std::uint8_t> bimodal(kBimodalEntries, 1);

    SimResult r;
    r.workload = prog.name();
    r.cls = prog.workloadClass();

    std::uint64_t mem_stall = 0;
    RetireRecord block[kBlockSize];
    while (r.insts < cfg.max_insts && !sim.halted()) {
        const std::size_t room = static_cast<std::size_t>(
            std::min<std::uint64_t>(kBlockSize,
                                    cfg.max_insts - r.insts));
        const std::size_t n = sim.stepBlock(block, room);
        if (n == 0)
            break;
        for (std::size_t i = 0; i < n; ++i) {
            const RetireRecord &rec = block[i];
            if (golden) {
                ++r.check_retirements;
                if (golden->step() != rec)
                    ++r.check_failures;
            }
            ++r.insts;
            if (rec.is_mem) {
                if (isLoad(rec.op)) {
                    ++r.loads_retired;
                    mem_stall += caches.accessData(rec.addr);
                } else {
                    ++r.stores_retired;
                }
            } else if (rec.is_control) {
                ++r.branches_retired;
                std::uint8_t &ctr =
                    bimodal[rec.pc & (kBimodalEntries - 1)];
                if ((ctr >= 2) != rec.taken)
                    ++r.mispredicts;
                if (rec.taken)
                    ctr = std::min<std::uint8_t>(3, ctr + 1);
                else if (ctr)
                    --ctr;
            }
        }
    }

    if (golden) {
        r.checker_enabled = true;
        r.checker_clean = r.check_failures == 0;
    }

    // Deterministic oracle scaling: the timing core fixes each
    // mispredict with probability oracle_fix_prob; the screening model
    // takes the expectation instead of drawing (no RNG, so a screening
    // point is a pure function of the program).
    r.oracle_fixes = static_cast<std::uint64_t>(
        double(r.mispredicts) * cfg.oracle_fix_prob);
    const std::uint64_t surviving = r.mispredicts - r.oracle_fixes;
    const std::uint64_t flush_stall =
        surviving * std::uint64_t(cfg.mispredict_penalty);

    const std::uint64_t ideal = (r.insts + width - 1) / width;
    r.cycles = ideal + mem_stall + flush_stall;
    r.ipc = r.cycles ? double(r.insts) / double(r.cycles) : 0.0;

    // Synthesized retire-slot accounting with the timing classifier's
    // identity intact: components sum to width x cycles and base ==
    // retired insts. The ideal term's width-rounding slack is charged
    // to fetch_starved.
    using C = obs::CpiComponent;
    r.cpi.add(C::Base, r.insts);
    r.cpi.add(C::MemLatency, mem_stall * width);
    r.cpi.add(C::FlushBranch, flush_stall * width);
    r.cpi.add(C::FetchStarved, ideal * width - r.insts);

    if (surviving) {
        r.blame.restoreRecord(obs::FlushCause::Branch,
                              obs::BlameRecord{surviving, 0,
                                               flush_stall});
    }
    return r;
}

double
screeningStallFrac(const SimResult &r)
{
    const double slots = double(r.cpi.total());
    if (slots <= 0.0)
        return 0.0;
    return 1.0 - double(r.insts) / slots;
}

} // namespace slf
