/**
 * @file
 * SFC / MDT / LSQ kernel timing: each distinct program's load/store
 * stream, taken from FuncSim in program order, replayed through the
 * structures' public APIs at the workload's preset geometry. An
 * in-order window of (LQ, SQ) memory operations stays in flight, so
 * the structures hold a realistic population while they are probed.
 */

#include <cstdio>
#include <deque>
#include <set>

#include "arch/func_sim.hh"
#include "bench.hh"
#include "core/mdt.hh"
#include "core/sfc.hh"
#include "cpu/config_preset.hh"
#include "isa/inst.hh"
#include "lsq/lsq.hh"
#include "mem/main_memory.hh"
#include "prog/asm_parser.hh"

namespace perfbench
{

namespace
{

struct MemOp
{
    Addr addr = 0;
    unsigned size = 0;
    bool store = false;
    std::uint64_t value = 0;  ///< stored value, or the value loaded
    std::uint64_t pc = 0;
};

std::vector<MemOp>
memStream(const Program &prog)
{
    std::vector<MemOp> ops;
    FuncSim sim(prog);
    std::vector<RetireRecord> block(4096);
    while (std::size_t n = sim.stepBlock(block.data(), block.size())) {
        for (std::size_t i = 0; i < n; ++i) {
            const RetireRecord &r = block[i];
            if (!r.is_mem)
                continue;
            const bool st = isStore(r.op);
            ops.push_back({r.addr, r.size, st,
                           st ? r.store_value : r.result, r.pc});
        }
    }
    return ops;
}

/**
 * Walk @p ops with an in-order window of at most @p lq loads and @p sq
 * stores in flight; calls exec(op, seq) as each op issues and
 * retire(op, seq) as it leaves the window, oldest first.
 */
template <typename Exec, typename Retire>
void
windowed(const std::vector<MemOp> &ops, std::size_t lq, std::size_t sq,
         Exec exec, Retire retire)
{
    std::deque<SeqNum> window;
    std::size_t loads = 0, stores = 0;
    auto retireHead = [&] {
        const SeqNum seq = window.front();
        window.pop_front();
        const MemOp &op = ops[seq - 1];
        (op.store ? stores : loads) -= 1;
        retire(op, seq);
    };
    for (SeqNum seq = 1; seq <= ops.size(); ++seq) {
        const MemOp &op = ops[seq - 1];
        while (op.store ? stores >= sq : loads >= lq)
            retireHead();
        (op.store ? stores : loads) += 1;
        window.push_back(seq);
        exec(op, seq);
    }
    while (!window.empty())
        retireHead();
}

template <typename Fn>
double
bestNs(int reps, Fn fn)
{
    std::int64_t best = -1;
    for (int r = 0; r < reps; ++r) {
        const std::int64_t t0 = nowNs();
        fn();
        const std::int64_t dt = nowNs() - t0;
        if (best < 0 || dt < best)
            best = dt;
    }
    return double(best);
}

std::uint64_t sink_ = 0;  ///< keeps probe results observable

} // namespace

ReplayTimes
replayStructures(const Workload &w)
{
    const CoreConfig mc = presetByName(w.mdtSfcPreset());
    const CoreConfig lc = presetByName(w.lsqPreset());
    const std::size_t lq = lc.lsq.lq_entries, sq = lc.lsq.sq_entries;
    constexpr int kReps = 3;

    ReplayTimes t;
    double sfc_ns = 0, mdt_ns = 0, lsq_ns = 0;
    std::set<std::string> seen;
    for (const JobSpec &spec : w.campaign().jobs()) {
        if (!seen.insert(spec.workload).second)
            continue;
        const Program prog = spec.make_prog();
        const std::vector<MemOp> ops = memStream(prog);
        t.ops += ops.size();

        sfc_ns += bestNs(kReps, [&] {
            Sfc sfc(mc.sfc);
            windowed(
                ops, lq, sq,
                [&](const MemOp &op, SeqNum seq) {
                    if (op.store)
                        sink_ += unsigned(
                            sfc.storeWrite(op.addr, op.size, op.value, seq));
                    else
                        sink_ += sfc.loadRead(op.addr, op.size).value;
                },
                [&](const MemOp &op, SeqNum seq) {
                    sfc.setOldestInflight(seq + 1);
                    if (op.store)
                        sfc.retireStore(op.addr, op.size, seq);
                });
        });

        mdt_ns += bestNs(kReps, [&] {
            Mdt mdt(mc.mdt);
            windowed(
                ops, lq, sq,
                [&](const MemOp &op, SeqNum seq) {
                    const MdtAccess a =
                        op.store
                            ? mdt.accessStore(op.addr, op.size, seq, op.pc)
                            : mdt.accessLoad(op.addr, op.size, seq, op.pc);
                    sink_ += unsigned(a.status);
                },
                [&](const MemOp &op, SeqNum seq) {
                    mdt.setOldestInflight(seq + 1);
                    if (op.store)
                        sink_ += mdt.retireStore(op.addr, op.size, seq);
                    else
                        mdt.retireLoad(op.addr, op.size, seq);
                });
        });

        lsq_ns += bestNs(kReps, [&] {
            MainMemory mem;
            mem.loadInitialImage(prog);
            Lsq lsq(lc.lsq, [&mem](Addr a) { return mem.read8(a); });
            windowed(
                ops, lq, sq,
                [&](const MemOp &op, SeqNum seq) {
                    if (op.store) {
                        lsq.dispatchStore(seq, op.pc);
                        sink_ += lsq.executeStore(seq, op.addr, op.size,
                                                  op.value)
                                     .has_value();
                    } else {
                        lsq.dispatchLoad(seq, op.pc);
                        sink_ += lsq.executeLoad(seq, op.addr, op.size)
                                     .forward_mask;
                        lsq.loadCompleted(seq, op.value);
                    }
                },
                [&](const MemOp &op, SeqNum seq) {
                    if (op.store) {
                        const Lsq::StoreData d = lsq.retireStore(seq);
                        mem.writeBytes(d.addr, d.value, d.size);
                    } else {
                        lsq.retireLoad(seq);
                    }
                });
        });
    }
    if (t.ops) {
        t.sfc_ns_per_op = sfc_ns / double(t.ops);
        t.mdt_ns_per_op = mdt_ns / double(t.ops);
        t.lsq_ns_per_op = lsq_ns / double(t.ops);
    }
    return t;
}

std::string
programsDigest(const Workload &w)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::set<std::string> seen;
    for (const JobSpec &spec : w.campaign().jobs()) {
        if (!seen.insert(spec.workload).second)
            continue;
        for (char c : disassembleAsm(spec.make_prog())) {
            h ^= static_cast<unsigned char>(c);
            h *= 0x100000001b3ull;
        }
    }
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

} // namespace perfbench
