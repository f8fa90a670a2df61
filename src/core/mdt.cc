#include "mdt.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace slf
{

Mdt::Mdt(const MdtParams &params)
    : params_(params)
{
    if (params.sets == 0 || (params.sets & (params.sets - 1)) != 0)
        fatal("Mdt: set count must be a nonzero power of two");
    if (params.assoc == 0)
        fatal("Mdt: associativity must be nonzero");
    if (params.granularity == 0 ||
        (params.granularity & (params.granularity - 1)) != 0) {
        fatal("Mdt: granularity must be a nonzero power of two");
    }
    entries_.resize(params.sets * params.assoc);
}

std::uint64_t
Mdt::setIndex(std::uint64_t block) const
{
    // The paper's simple hash: low-order address bits select the set.
    return block & (params_.sets - 1);
}

std::uint64_t
Mdt::firstBlock(Addr addr) const
{
    return addr / params_.granularity;
}

std::uint64_t
Mdt::lastBlock(Addr addr, unsigned size) const
{
    return (addr + (size ? size - 1 : 0)) / params_.granularity;
}

void
Mdt::freeEntry(Entry &e)
{
    // Callers only free valid entries (scavengeSet and injectEviction
    // both check e.valid first).
    --valid_count_;
    e = Entry{};
    ++evictions_;
}

void
Mdt::scavengeSet(std::uint64_t set)
{
    Entry *base = &entries_[set * params_.assoc];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Entry &e = base[w];
        if (!e.valid)
            continue;
        // A way is dead when every recorded sequence number predates the
        // oldest in-flight instruction: no live instruction can ever
        // match it at retirement, and no live instruction can trip a
        // violation against it (live sequence numbers are all larger).
        const bool load_dead = !e.load_valid || e.load_seq < oldest_inflight_;
        const bool store_dead =
            !e.store_valid || e.store_seq < oldest_inflight_;
        const bool any_state = e.load_valid || e.store_valid;
        if (any_state && load_dead && store_dead) {
            ++stats_[S::ScavengedEntries];
            freeEntry(e);
        }
    }
}

bool
Mdt::injectEviction(Rng &rng)
{
    const std::size_t n = entries_.size();
    const std::size_t start = rng.below(n);
    for (std::size_t i = 0; i < n; ++i) {
        Entry &e = entries_[(start + i) % n];
        if (e.valid) {
            freeEntry(e);
            return true;
        }
    }
    return false;
}

Mdt::Entry *
Mdt::find(std::uint64_t block)
{
    const std::uint64_t set = setIndex(block);
    Entry *base = &entries_[set * params_.assoc];
    if (!params_.tagged) {
        // Untagged MDT: all blocks mapping to a set share way 0.
        return base[0].valid ? &base[0] : nullptr;
    }
    for (unsigned w = 0; w < params_.assoc; ++w)
        if (base[w].valid && base[w].block == block)
            return &base[w];
    return nullptr;
}

Mdt::Entry *
Mdt::findOrAlloc(std::uint64_t block)
{
    const std::uint64_t set = setIndex(block);
    Entry *base = &entries_[set * params_.assoc];

    if (!params_.tagged) {
        Entry &e = base[0];
        if (!e.valid) {
            e.valid = true;
            e.block = block;
            ++valid_count_;
        }
        return &e;
    }

    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].block == block)
            return &base[w];
    }
    for (int attempt = 0; attempt < 2; ++attempt) {
        for (unsigned w = 0; w < params_.assoc; ++w) {
            if (!base[w].valid) {
                base[w].valid = true;
                base[w].block = block;
                ++valid_count_;
                return &base[w];
            }
        }
        if (attempt == 0)
            scavengeSet(set);
    }
    return nullptr;   // set conflict
}

MdtAccess
Mdt::loadOneBlock(std::uint64_t block, SeqNum seq, std::uint64_t pc)
{
    MdtAccess result;
    Entry *e = findOrAlloc(block);
    if (!e) {
        ++stats_[S::SetConflicts];
        result.status = MdtAccess::Status::Conflict;
        return result;
    }

    // Anti-dependence check: a later store has already completed.
    if (e->store_valid && seq < e->store_seq) {
        ++stats_[S::ViolationsAnti];
        result.status = MdtAccess::Status::Violation;
        result.kind = DepKind::Anti;
        // "The pipeline flushes the load and all subsequent
        // instructions": the executing load is the producer.
        result.squash_from = seq;
        result.producer_pc = pc;
        result.consumer_pc = e->store_pc;
        return result;
    }

    if (!e->load_valid || seq > e->load_seq) {
        e->load_valid = true;
        e->load_seq = seq;
        e->load_pc = pc;
    }
    ++e->completed_loads;
    return result;
}

MdtAccess
Mdt::storeOneBlock(std::uint64_t block, SeqNum seq, std::uint64_t pc)
{
    MdtAccess result;
    Entry *e = findOrAlloc(block);
    if (!e) {
        ++stats_[S::SetConflicts];
        result.status = MdtAccess::Status::Conflict;
        return result;
    }

    // A completing store compares against both fields of the entry.
    const bool true_viol = e->load_valid && seq < e->load_seq;
    const bool output_viol = e->store_valid && seq < e->store_seq;

    if (true_viol) {
        ++stats_[S::ViolationsTrue];
        result.status = MdtAccess::Status::Violation;
        result.kind = DepKind::True;
        result.producer_pc = pc;
        result.consumer_pc = e->load_pc;
        if (params_.optimized_true_recovery && e->completed_loads == 1) {
            // Exactly one completed, unretired load: it must be the
            // latest (and only) conflicting one, so flush from the load
            // itself instead of from the completing store (Sec. 2.4.1).
            ++stats_[S::OptimizedTrueRecoveries];
            result.squash_from = e->load_seq;
        } else {
            result.squash_from = seq + 1;
        }
    }

    if (output_viol) {
        ++stats_[S::ViolationsOutput];
        if (true_viol) {
            // Both fire: one recovery (the older squash point wins), but
            // both dependence arcs must reach the predictor.
            result.squash_from = std::min(result.squash_from, seq + 1);
            result.has_secondary = true;
            result.kind2 = DepKind::Output;
            result.producer2_pc = pc;
            result.consumer2_pc = e->store_pc;
        } else {
            result.status = MdtAccess::Status::Violation;
            result.kind = DepKind::Output;
            // Flush all instructions subsequent to the (earlier)
            // completing store; the later store is the consumer.
            result.squash_from = seq + 1;
            result.producer_pc = pc;
            result.consumer_pc = e->store_pc;
        }
        return result;
    }
    if (true_viol)
        return result;

    e->store_valid = true;
    e->store_seq = seq;
    e->store_pc = pc;
    return result;
}

MdtAccess
Mdt::accessLoad(Addr addr, unsigned size, SeqNum seq, std::uint64_t pc)
{
    ++stats_[S::Accesses];
    const std::uint64_t first = firstBlock(addr);
    const std::uint64_t last = lastBlock(addr, size);
    for (std::uint64_t b = first; b <= last; ++b) {
        MdtAccess r = loadOneBlock(b, seq, pc);
        if (r.status != MdtAccess::Status::Ok)
            return r;
    }
    return MdtAccess{};
}

MdtAccess
Mdt::accessStore(Addr addr, unsigned size, SeqNum seq, std::uint64_t pc)
{
    ++stats_[S::Accesses];
    const std::uint64_t first = firstBlock(addr);
    const std::uint64_t last = lastBlock(addr, size);
    for (std::uint64_t b = first; b <= last; ++b) {
        MdtAccess r = storeOneBlock(b, seq, pc);
        if (r.status != MdtAccess::Status::Ok)
            return r;
    }
    return MdtAccess{};
}

void
Mdt::retireLoad(Addr addr, unsigned size, SeqNum seq)
{
    const std::uint64_t first = firstBlock(addr);
    const std::uint64_t last = lastBlock(addr, size);
    for (std::uint64_t b = first; b <= last; ++b) {
        Entry *e = find(b);
        if (!e)
            continue;
        if (e->completed_loads > 0)
            --e->completed_loads;
        if (e->load_valid && e->load_seq == seq) {
            e->load_valid = false;
            if (!e->store_valid)
                freeEntry(*e);
        }
    }
}

bool
Mdt::retireStore(Addr addr, unsigned size, SeqNum seq)
{
    const std::uint64_t first = firstBlock(addr);
    const std::uint64_t last = lastBlock(addr, size);
    bool was_latest = true;
    for (std::uint64_t b = first; b <= last; ++b) {
        Entry *e = find(b);
        if (!e) {
            // No entry: the store bypassed the MDT (ROB-head bypass) or
            // the entry was scavenged. Treat as latest so the SFC does
            // not pin a dead entry.
            continue;
        }
        if (e->store_valid && e->store_seq == seq) {
            e->store_valid = false;
            if (!e->load_valid)
                freeEntry(*e);
        } else {
            was_latest = false;
        }
    }
    return was_latest;
}

void
Mdt::reset()
{
    for (auto &e : entries_)
        e = Entry{};
    valid_count_ = 0;
}

} // namespace slf
