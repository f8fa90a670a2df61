#include "order_index.hh"

#include <algorithm>
#include <array>
#include <bit>

#include "sim/logging.hh"

namespace slf
{

namespace
{

/** Bit b of the index set = byte b of the value all ones. */
constexpr std::array<std::uint64_t, 256> kByteMasks = [] {
    std::array<std::uint64_t, 256> t{};
    for (unsigned m = 0; m < 256; ++m)
        for (unsigned b = 0; b < 8; ++b)
            if (m & (1u << b))
                t[m] |= std::uint64_t{0xff} << (8 * b);
    return t;
}();

} // namespace

/** Where an access at (addr, size) falls: its first word, its offset
 *  in that word and its byte mask there and in the next word. */
struct OrderIndex::Span
{
    Addr word;
    unsigned off;
    std::uint8_t mask[2];
    unsigned words;   ///< 2 when the access straddles a word boundary

    Span(Addr addr, unsigned size)
        : word(addr >> 3), off(static_cast<unsigned>(addr & 7))
    {
        const unsigned bytes = (1u << size) - 1;
        mask[0] = static_cast<std::uint8_t>(bytes << off);
        mask[1] = static_cast<std::uint8_t>(bytes >> (8 - off));
        words = off + size > 8 ? 2 : 1;
    }

    /** @p value's bytes at their offsets in word k. */
    std::uint64_t
    data(unsigned k, std::uint64_t value) const
    {
        const std::uint64_t placed =
            k == 0 ? value << (8 * off) : value >> (8 * (8 - off));
        return placed & kByteMasks[mask[k]];
    }
};

// ---------------------------------------------------------------------
// Queue
// ---------------------------------------------------------------------

OrderIndex::Queue::Queue(std::size_t entries)
    : capacity(entries),
      ring(std::bit_ceil(std::max<std::size_t>(entries, 1))),
      ring_mask(static_cast<std::uint32_t>(ring.size() - 1)),
      nodes(2 * ring.size()),
      first_sentinel(static_cast<std::uint32_t>(nodes.size())),
      slot_of(std::bit_ceil(std::max<std::size_t>(8 * entries, 1024)), 0)
{
    const std::size_t buckets =
        std::bit_ceil(std::max<std::size_t>(2 * entries, 2));
    bucket_mask = static_cast<std::uint32_t>(buckets - 1);
    bucket_bits = static_cast<unsigned>(std::countr_zero(buckets));
    links.resize(nodes.size() + buckets);
    for (std::uint32_t id = first_sentinel; id < links.size(); ++id)
        links[id] = Link{kInvalidSeqNum, id, id};
}

std::uint32_t
OrderIndex::Queue::slot(std::size_t i) const
{
    return static_cast<std::uint32_t>(head + i) & ring_mask;
}

std::uint32_t
OrderIndex::Queue::sentinel(Addr word) const
{
    // Neighbouring words get neighbouring buckets; folding in the high
    // bits spreads large power-of-two strides.
    return first_sentinel +
           (static_cast<std::uint32_t>(word ^ (word >> bucket_bits)) &
            bucket_mask);
}

bool
OrderIndex::Queue::push(SeqNum seq, std::uint64_t pc)
{
    if (count == capacity)
        return false;
    if (count && ring[slot(count - 1)].seq >= seq)
        panic("OrderIndex: sequence numbers must increase");
    const std::uint32_t s = slot(count);
    ring[s] = Entry{};
    ring[s].seq = seq;
    ring[s].pc = pc;
    slot_of[seq & (slot_of.size() - 1)] = s;
    last = s;
    ++count;
    return true;
}

std::uint32_t
OrderIndex::Queue::find(SeqNum seq)
{
    const auto live = [&](std::uint32_t s) {
        return ((s - head) & ring_mask) < count && ring[s].seq == seq;
    };
    if (live(last))
        return last;
    if (const std::uint32_t s = slot_of[seq & (slot_of.size() - 1)];
        live(s)) {
        return last = s;
    }
    // The ring is in seq order: binary search over positions.
    std::size_t lo = 0, hi = count;
    while (lo < hi) {
        const std::size_t mid = (lo + hi) / 2;
        if (ring[slot(mid)].seq < seq)
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo < count && ring[slot(lo)].seq == seq ? slot(lo) : kNil;
}

void
OrderIndex::Queue::link(std::uint32_t s, const Span &span)
{
    Entry &e = ring[s];
    e.nodes = static_cast<std::uint8_t>(span.words);
    for (unsigned k = 0; k < span.words; ++k) {
        const std::uint32_t id = 2 * s + k;
        Node &n = nodes[id];
        n.word = span.word + k;
        n.mask = span.mask[k];
        n.data = span.data(k, e.value);

        // Insert in seq order, searching from the young end; the
        // sentinel's seq is older than every entry's.
        const std::uint32_t sent = sentinel(n.word);
        std::uint32_t after = links[sent].prev;
        while (links[after].seq > e.seq)
            after = links[after].prev;
        links[id] = Link{e.seq, after, links[after].next};
        links[links[id].next].prev = id;
        links[after].next = id;
    }
}

void
OrderIndex::Queue::unlink(std::uint32_t s)
{
    Entry &e = ring[s];
    for (unsigned k = 0; k < e.nodes; ++k) {
        const Link &l = links[2 * s + k];
        links[l.prev].next = l.next;
        links[l.next].prev = l.prev;
    }
    e.nodes = 0;
}

std::uint32_t
OrderIndex::Queue::firstYounger(std::uint32_t sent, SeqNum seq) const
{
    std::uint32_t first = sent;
    for (std::uint32_t id = links[sent].prev; links[id].seq > seq;
         id = links[id].prev) {
        first = id;
    }
    return first;
}

void
OrderIndex::Queue::popFront()
{
    unlink(slot(0));
    head = slot(1);
    --count;
}

void
OrderIndex::Queue::popBack()
{
    unlink(slot(count - 1));
    --count;
}

// ---------------------------------------------------------------------
// OrderIndex
// ---------------------------------------------------------------------

OrderIndex::OrderIndex(std::size_t lq_entries, std::size_t sq_entries,
                       MemReader read_committed)
    : read_committed_(std::move(read_committed)), loads_(lq_entries),
      stores_(sq_entries)
{
    if (lq_entries == 0 || sq_entries == 0)
        fatal("OrderIndex: queue sizes must be nonzero");
    if (!read_committed_)
        fatal("OrderIndex: committed-memory reader required");
}

bool
OrderIndex::dispatchLoad(SeqNum seq, std::uint64_t pc)
{
    return loads_.push(seq, pc);
}

bool
OrderIndex::dispatchStore(SeqNum seq, std::uint64_t pc)
{
    return stores_.push(seq, pc);
}

OrderIndex::Forward
OrderIndex::forward(SeqNum seq, const Span &span) const
{
    std::uint8_t got[2] = {0, 0};
    std::uint64_t data[2] = {0, 0};
    for (unsigned k = 0; k < span.words; ++k) {
        const Addr word = span.word + k;
        const std::uint8_t need = span.mask[k];
        // Youngest first, so the first store to supply a byte wins.
        const std::uint32_t sent = stores_.sentinel(word);
        for (std::uint32_t id = stores_.links[sent].prev;
             id != sent && got[k] != need; id = stores_.links[id].prev) {
            const Node &n = stores_.nodes[id];
            if (stores_.links[id].seq >= seq || n.word != word)
                continue;
            const std::uint8_t fresh = n.mask & need & ~got[k];
            data[k] |= n.data & kByteMasks[fresh];
            got[k] |= fresh;
        }
    }
    Forward f;
    f.mask = static_cast<std::uint8_t>(got[0] >> span.off);
    f.value = data[0] >> (8 * span.off);
    if (span.words == 2) {
        f.mask |= static_cast<std::uint8_t>(got[1] << (8 - span.off));
        f.value |= data[1] << (8 * (8 - span.off));
    }
    return f;
}

OrderIndex::Forward
OrderIndex::executeLoad(SeqNum seq, Addr addr, unsigned size)
{
    const std::uint32_t s = loads_.find(seq);
    if (s == kNil)
        panic("OrderIndex::executeLoad: load not dispatched");
    Entry &e = loads_.ring[s];
    loads_.unlink(s);
    e.addr = addr;
    e.size = size;
    // Listed now, checked by stores once completed. A load that never
    // executed covers no byte and is never checked.
    const Span span(addr, size);
    if (size)
        loads_.link(s, span);
    return forward(seq, span);
}

bool
OrderIndex::unresolvedStoreBefore(SeqNum seq) const
{
    // The ring is in seq order: stop at the first store not older.
    for (std::size_t i = 0; i < stores_.count; ++i) {
        const Entry &e = stores_.ring[stores_.slot(i)];
        if (e.seq >= seq)
            return false;
        if (!e.executed)
            return true;
    }
    return false;
}

void
OrderIndex::completeLoad(SeqNum seq, std::uint64_t value)
{
    const std::uint32_t s = loads_.find(seq);
    if (s == kNil)
        panic("OrderIndex::completeLoad: load not dispatched");
    Entry &e = loads_.ring[s];
    e.completed = true;
    e.value = value;
}

std::uint64_t
OrderIndex::expectedValue(const Entry &load) const
{
    const Forward f = forward(load.seq, Span(load.addr, load.size));
    std::uint64_t value = 0;
    for (unsigned i = 0; i < load.size; ++i) {
        const std::uint64_t byte =
            (f.mask >> i) & 1 ? (f.value >> (8 * i)) & 0xff
                              : read_committed_(load.addr + i);
        value |= byte << (8 * i);
    }
    return value;
}

OrderIndex::StoreCheck
OrderIndex::executeStore(SeqNum seq, Addr addr, unsigned size,
                         std::uint64_t value)
{
    const std::uint32_t s = stores_.find(seq);
    if (s == kNil)
        panic("OrderIndex::executeStore: store not dispatched");
    Entry &e = stores_.ring[s];
    stores_.unlink(s);
    e.executed = true;
    e.addr = addr;
    e.size = size;
    e.value = value;
    const Span span(addr, size);
    stores_.link(s, span);

    StoreCheck check;
    check.store_pc = e.pc;

    // Merge the younger loads of the (one or two) word lists in seq
    // order. A load that straddles both words is met twice in a row;
    // it is checked once.
    const Addr last_word = span.word + span.words - 1;
    const std::uint32_t s0 = loads_.sentinel(span.word);
    const std::uint32_t s1 = loads_.sentinel(last_word);
    std::uint32_t cur[2] = {loads_.firstYounger(s0, seq),
                            s1 == s0 ? s1 : loads_.firstYounger(s1, seq)};
    const auto done = [this](std::uint32_t c) {
        return loads_.isSentinel(c);
    };
    SeqNum visited = kInvalidSeqNum;
    for (;;) {
        for (std::uint32_t &c : cur) {
            while (!done(c) && loads_.nodes[c].word != span.word &&
                   loads_.nodes[c].word != last_word) {
                c = loads_.links[c].next;
            }
        }
        if (done(cur[0]) && done(cur[1]))
            break;
        const unsigned k =
            done(cur[1]) ? 0
            : done(cur[0]) ? 1
            : loads_.links[cur[1]].seq < loads_.links[cur[0]].seq ? 1 : 0;
        const std::uint32_t id = cur[k];
        cur[k] = loads_.links[id].next;
        if (loads_.links[id].seq == visited)
            continue;
        visited = loads_.links[id].seq;

        const Entry &ld = loads_.ring[id / 2];
        if (!ld.completed ||
            !(ld.addr < addr + size && addr < ld.addr + ld.size)) {
            continue;
        }
        check.overlapped = true;
        if (expectedValue(ld) != ld.value) {
            check.load_seq = ld.seq;
            check.load_pc = ld.pc;
            break;
        }
    }
    return check;
}

void
OrderIndex::retireLoad(SeqNum seq)
{
    if (!loads_.count || loads_.ring[loads_.head].seq != seq)
        panic("OrderIndex::retireLoad: head mismatch");
    loads_.popFront();
}

OrderIndex::StoreData
OrderIndex::retireStore(SeqNum seq)
{
    if (!stores_.count || stores_.ring[stores_.head].seq != seq)
        panic("OrderIndex::retireStore: head mismatch");
    const Entry &e = stores_.ring[stores_.head];
    if (!e.executed)
        panic("OrderIndex::retireStore: store retired before executing");
    const StoreData data{e.addr, e.size, e.value};
    stores_.popFront();
    return data;
}

void
OrderIndex::squashFrom(SeqNum seq)
{
    for (Queue *q : {&loads_, &stores_}) {
        while (q->count && q->ring[q->slot(q->count - 1)].seq >= seq)
            q->popBack();
    }
}

} // namespace slf
