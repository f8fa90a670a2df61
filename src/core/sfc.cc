#include "sfc.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace slf
{

Sfc::Sfc(const SfcParams &params)
    : params_(params)
{
    if (params.sets == 0 || (params.sets & (params.sets - 1)) != 0)
        fatal("Sfc: set count must be a nonzero power of two");
    if (params.assoc == 0)
        fatal("Sfc: associativity must be nonzero");
    entries_.resize(params.sets * params.assoc);
}

std::uint64_t
Sfc::setIndex(std::uint64_t word) const
{
    // Low-order address bits, as in the paper (Section 3.2 discusses the
    // conflict pathologies this simple hash creates).
    return word & (params_.sets - 1);
}

void
Sfc::freeEntry(Entry &e)
{
    // Callers only free valid entries (find() hits and the scavenger's
    // e.valid check).
    --valid_count_;
    e = Entry{};
    ++evictions_;
}

void
Sfc::scavengeSet(std::uint64_t set)
{
    Entry *base = &entries_[set * params_.assoc];
    for (unsigned w = 0; w < params_.assoc; ++w) {
        Entry &e = base[w];
        // Dead entry: its youngest writer predates the oldest in-flight
        // instruction, so every store that wrote it has committed or was
        // squashed; the cache hierarchy is authoritative again.
        if (e.valid && e.last_store_seq < oldest_inflight_)
            freeEntry(e);
    }
}

Sfc::Entry *
Sfc::find(std::uint64_t word)
{
    Entry *base = &entries_[setIndex(word) * params_.assoc];
    for (unsigned w = 0; w < params_.assoc; ++w)
        if (base[w].valid && base[w].word == word)
            return &base[w];
    return nullptr;
}

Sfc::Entry *
Sfc::findOrAlloc(std::uint64_t word)
{
    const std::uint64_t set = setIndex(word);
    Entry *base = &entries_[set * params_.assoc];

    for (unsigned w = 0; w < params_.assoc; ++w) {
        if (base[w].valid && base[w].word == word)
            return &base[w];
    }
    for (int attempt = 0; attempt < 2; ++attempt) {
        for (unsigned w = 0; w < params_.assoc; ++w) {
            if (!base[w].valid) {
                Entry &e = base[w];
                e.valid = true;
                ++valid_count_;
                e.word = word;
                e.data.fill(0);
                e.valid_mask = 0;
                e.corrupt_mask = 0;
                e.last_store_seq = kInvalidSeqNum;
                // Reset the oldest-writer bound too: a fresh allocation
                // must not inherit a stale first_store_seq, or the
                // flush-endpoint check would test canceled-writer ranges
                // against a seq from a previous occupant of the slot.
                e.first_store_seq = kInvalidSeqNum;
                return &e;
            }
        }
        if (attempt == 0)
            scavengeSet(set);
    }
    return nullptr;
}

SfcStoreResult
Sfc::storeWrite(Addr addr, unsigned size, std::uint64_t value, SeqNum seq)
{
    ++stats_[S::StoreWrites];
    // A store may straddle two aligned words; both must be writable.
    // One table probe per word, not per byte.
    for (unsigned i = 0; i < size;) {
        const Addr byte_addr = addr + i;
        Entry *e = findOrAlloc(byte_addr / kSfcWordBytes);
        if (!e) {
            ++stats_[S::SetConflicts];
            return SfcStoreResult::Conflict;
        }
        const unsigned off0 = byte_addr % kSfcWordBytes;
        const unsigned span =
            std::min(size - i, kSfcWordBytes - off0);
        for (unsigned k = 0; k < span; ++k) {
            e->data[off0 + k] =
                static_cast<std::uint8_t>(value >> (8 * (i + k)));
        }
        const std::uint8_t bits =
            static_cast<std::uint8_t>(((1u << span) - 1u) << off0);
        e->valid_mask |= bits;
        e->corrupt_mask &= static_cast<std::uint8_t>(~bits);
        if (e->last_store_seq == kInvalidSeqNum || seq > e->last_store_seq)
            e->last_store_seq = seq;
        if (e->first_store_seq == kInvalidSeqNum || seq < e->first_store_seq)
            e->first_store_seq = seq;
        i += span;
    }
    return SfcStoreResult::Ok;
}

SfcLoadResult
Sfc::loadRead(Addr addr, unsigned size)
{
    ++stats_[S::LoadReads];
    SfcLoadResult result;
    bool any_valid = false;
    bool all_valid = true;
    bool any_corrupt = false;

    // One table probe per touched word, not per byte.
    for (unsigned i = 0; i < size;) {
        const Addr byte_addr = addr + i;
        const std::uint64_t word = byte_addr / kSfcWordBytes;
        const unsigned off0 = byte_addr % kSfcWordBytes;
        const unsigned span =
            std::min(size - i, kSfcWordBytes - off0);
        Entry *e = find(word);
        if (e && (e->corrupt_mask || e->valid_mask) &&
            e->last_store_seq < oldest_inflight_) {
            // Opportunistically reclaim dead entries hit by loads so that
            // replaying loads eventually make progress (Section 2.3's
            // example: the corrupt entry clears once its writers drain).
            scavengeSet(setIndex(word));
            e = find(word);
        }
        if (!e) {
            all_valid = false;
            i += span;
            continue;
        }
        const std::uint8_t span_bits =
            static_cast<std::uint8_t>(((1u << span) - 1u) << off0);
        if (e->corrupt_mask & span_bits)
            any_corrupt = true;
        if (params_.use_flush_endpoints && e->valid_mask &&
            writersMaybeCanceled(e->first_store_seq, e->last_store_seq)) {
            // Flush-endpoint mode: any of the entry's writers may have
            // been canceled by a recorded flush; refuse to forward.
            any_corrupt = true;
        }
        for (unsigned k = 0; k < span; ++k) {
            const unsigned off = off0 + k;
            if (e->valid_mask & (1u << off)) {
                any_valid = true;
                result.value |= std::uint64_t{e->data[off]}
                                << (8 * (i + k));
                result.valid_mask |=
                    static_cast<std::uint8_t>(1u << (i + k));
            } else {
                all_valid = false;
            }
        }
        i += span;
    }

    if (any_corrupt) {
        ++stats_[S::CorruptHits];
        result.status = SfcLoadResult::Status::Corrupt;
    } else if (any_valid && all_valid) {
        ++stats_[S::FullMatches];
        result.status = SfcLoadResult::Status::Full;
    } else if (any_valid) {
        result.status = SfcLoadResult::Status::Partial;
    } else {
        result.status = SfcLoadResult::Status::Miss;
    }
    return result;
}

void
Sfc::retireStore(Addr addr, unsigned size, SeqNum seq)
{
    for (unsigned i = 0; i < size; ++i) {
        const std::uint64_t word = (addr + i) / kSfcWordBytes;
        Entry *e = find(word);
        if (e && e->last_store_seq == seq)
            freeEntry(*e);
        // Skip the remaining bytes of this word.
        const Addr word_end = (word + 1) * kSfcWordBytes;
        if (word_end > addr + i + 1)
            i += static_cast<unsigned>(word_end - (addr + i) - 1);
    }
}

void
Sfc::markCorrupt(Addr addr, unsigned size)
{
    for (unsigned i = 0; i < size;) {
        const Addr byte_addr = addr + i;
        const unsigned off0 = byte_addr % kSfcWordBytes;
        const unsigned span =
            std::min(size - i, kSfcWordBytes - off0);
        if (Entry *e = find(byte_addr / kSfcWordBytes)) {
            e->corrupt_mask |= static_cast<std::uint8_t>(
                ((1u << span) - 1u) << off0);
        }
        i += span;
    }
}

bool
Sfc::writersMaybeCanceled(SeqNum a, SeqNum b) const
{
    for (const FlushRange &r : flush_ranges_)
        if (a <= r.to && r.from <= b)
            return true;
    return false;
}

void
Sfc::expireFlushRanges()
{
    std::erase_if(flush_ranges_, [this](const FlushRange &r) {
        // Once the oldest in-flight instruction passes the range, every
        // entry whose writers fall inside it is dead and will be
        // scavenged; the range itself is no longer needed.
        return r.to < oldest_inflight_;
    });
}

void
Sfc::partialFlush(SeqNum from, SeqNum to)
{
    ++stats_[S::PartialFlushes];
    if (params_.use_flush_endpoints) {
        expireFlushRanges();
        if (flush_ranges_.size() >= params_.max_flush_ranges) {
            // Overflow: merge everything into one conservative range.
            FlushRange merged = flush_ranges_.front();
            for (const FlushRange &r : flush_ranges_) {
                merged.from = std::min(merged.from, r.from);
                merged.to = std::max(merged.to, r.to);
            }
            merged.from = std::min(merged.from, from);
            merged.to = std::max(merged.to, to);
            flush_ranges_.clear();
            flush_ranges_.push_back(merged);
        } else {
            flush_ranges_.push_back(FlushRange{from, to});
        }
        return;
    }
    for (auto &e : entries_) {
        if (e.valid)
            e.corrupt_mask |= e.valid_mask;
    }
}

void
Sfc::fullFlush()
{
    for (auto &e : entries_)
        e = Entry{};
    flush_ranges_.clear();
    valid_count_ = 0;
}

bool
Sfc::injectCorruptMask(Rng &rng)
{
    const std::size_t n = entries_.size();
    const std::size_t start = rng.below(n);
    for (std::size_t i = 0; i < n; ++i) {
        Entry &e = entries_[(start + i) % n];
        if (e.valid && e.valid_mask) {
            e.corrupt_mask |= e.valid_mask;
            return true;
        }
    }
    return false;
}

bool
Sfc::injectDataClobber(Rng &rng, std::uint8_t xor_byte)
{
    const std::size_t n = entries_.size();
    const std::size_t start = rng.below(n);
    for (std::size_t i = 0; i < n; ++i) {
        Entry &e = entries_[(start + i) % n];
        if (!e.valid || !e.valid_mask)
            continue;
        // Pick a random in-flight byte of this word.
        unsigned offsets[kSfcWordBytes];
        unsigned count = 0;
        for (unsigned off = 0; off < kSfcWordBytes; ++off)
            if (e.valid_mask & (1u << off))
                offsets[count++] = off;
        const unsigned off = offsets[rng.below(count)];
        e.data[off] ^= static_cast<std::uint8_t>(xor_byte | 1);
        e.corrupt_mask |= static_cast<std::uint8_t>(1u << off);
        return true;
    }
    return false;
}

} // namespace slf
