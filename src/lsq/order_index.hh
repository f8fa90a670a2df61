/**
 * @file
 * Memory-ordering index: the in-flight loads and stores of a load/store
 * queue, in program (sequence-number) order, indexed by 8-byte word.
 *
 * It answers the two questions an age-ordered LSQ asks, without
 * searching the whole queue:
 *  - which older executed store supplies each byte of a load
 *    (executeLoad: the youngest older store per byte), and
 *  - which younger completed loads a store's arrival proves wrong
 *    (executeStore: value-based, so a silent store never fires).
 *
 * Each queue is a ring of entries sized at construction. A seq is
 * found through the last slot used or a table of ring slots indexed by
 * the seq's low bits, each checked against the entry; on a miss (two
 * in-flight seqs sharing low bits) by a binary search over the ring,
 * which is in seq order. Every executed store and every executed load
 * (checked by stores once it completes) also sits, through one list
 * node per word it touches (two for an access that straddles a word
 * boundary), in a seq-ordered doubly linked list per word. Lists are
 * kept in a power-of-two table of buckets hashed by word; a bucket
 * shared by two words holds both, and walks skip the other word's nodes
 * by their word tag. Each list is circular through a sentinel, so
 * linking and unlinking never branch. Nothing is allocated after
 * construction.
 *
 * The index keeps no statistics: the modelled CAM activity of the
 * associative queue is the caller's to count (see Lsq).
 */

#ifndef SLFWD_LSQ_ORDER_INDEX_HH_
#define SLFWD_LSQ_ORDER_INDEX_HH_

#include <cstdint>
#include <functional>
#include <vector>

#include "sim/types.hh"

namespace slf
{

class OrderIndex
{
  public:
    /** Reads one byte of *committed* memory (for value-based checks). */
    using MemReader = std::function<std::uint8_t(Addr)>;

    /** Bytes an executing load takes from older stores. */
    struct Forward
    {
        /** Bit i set = byte i of the request comes from a store. */
        std::uint8_t mask = 0;
        /** Forwarded bytes (others zero). */
        std::uint64_t value = 0;
    };

    /** What an executing store finds among younger completed loads. */
    struct StoreCheck
    {
        /** Some younger completed load overlaps the store. */
        bool overlapped = false;
        /** The oldest such load whose value is now wrong, or
         *  kInvalidSeqNum when there is none. */
        SeqNum load_seq = kInvalidSeqNum;
        std::uint64_t load_pc = 0;
        std::uint64_t store_pc = 0;
    };

    /** A retiring store's data, for commitment to memory. */
    struct StoreData
    {
        Addr addr;
        unsigned size;
        std::uint64_t value;
    };

    OrderIndex(std::size_t lq_entries, std::size_t sq_entries,
               MemReader read_committed);

    /** @return false when the load (store) queue is full. Sequence
     *  numbers must increase within each queue. */
    bool dispatchLoad(SeqNum seq, std::uint64_t pc);
    bool dispatchStore(SeqNum seq, std::uint64_t pc);

    /** A load executes: per byte, the youngest older executed store. */
    Forward executeLoad(SeqNum seq, Addr addr, unsigned size);

    /** A load obtained @p value; it is checked by later stores. */
    void completeLoad(SeqNum seq, std::uint64_t value);

    /**
     * A store executes with its data. Visits the younger completed loads
     * of the words it touches, oldest first, and stops at the first
     * whose value differs from what older stores over committed memory
     * now compose.
     */
    StoreCheck executeStore(SeqNum seq, Addr addr, unsigned size,
                            std::uint64_t value);

    /** Retire the oldest load / store (it must be @p seq). */
    void retireLoad(SeqNum seq);
    StoreData retireStore(SeqNum seq);

    /** Drop every entry with seq >= @p seq. */
    void squashFrom(SeqNum seq);

    std::size_t loadCount() const { return loads_.count; }
    std::size_t storeCount() const { return stores_.count; }

  private:
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** Where an access falls in the word or two it touches. */
    struct Span;

    struct Entry
    {
        SeqNum seq = kInvalidSeqNum;
        std::uint64_t pc = 0;
        Addr addr = 0;
        /** Store data, or the value a completed load obtained. */
        std::uint64_t value = 0;
        unsigned size = 0;
        bool executed = false;    ///< stores
        bool completed = false;   ///< loads
        /** List nodes in use: 0 (unlisted), 1, or 2 (straddles). */
        std::uint8_t nodes = 0;
    };

    /** An entry's footprint in one word. */
    struct Node
    {
        Addr word = 0;
        /** A store's bytes at their offsets in the word. */
        std::uint64_t data = 0;
        /** Bit b set = a store covers byte b of the word. */
        std::uint8_t mask = 0;
    };

    /** A node's place in its list; walks read only these. */
    struct Link
    {
        /** The entry's seq; kInvalidSeqNum, older than every entry, in
         *  a sentinel. */
        SeqNum seq = kInvalidSeqNum;
        std::uint32_t prev = 0;
        std::uint32_t next = 0;
    };

    /**
     * One queue: a ring of entries and its word lists. Node 2*slot + k
     * is the k-th word of the entry in that ring slot. Links past the
     * nodes are one sentinel per bucket, closing the bucket's circular
     * list: its next is the oldest node, its prev the youngest.
     */
    struct Queue
    {
        explicit Queue(std::size_t entries);

        std::size_t capacity;
        /** A power of two of slots, at least capacity. */
        std::vector<Entry> ring;
        std::uint32_t ring_mask;
        std::vector<Node> nodes;
        std::vector<Link> links;
        std::uint32_t first_sentinel;
        std::uint32_t bucket_mask;
        unsigned bucket_bits;
        /** Ring slot last given to a seq, by its low bits; find()
         *  checks the hint and falls back to a search. */
        std::vector<std::uint32_t> slot_of;
        std::size_t head = 0;
        std::size_t count = 0;
        /** Slot of the last entry found or pushed (a load completes
         *  right after it executes). */
        std::uint32_t last = 0;

        /** Ring slot of the @p i-th oldest entry. */
        std::uint32_t slot(std::size_t i) const;
        /** The sentinel of @p word's bucket. */
        std::uint32_t sentinel(Addr word) const;
        bool
        isSentinel(std::uint32_t id) const
        {
            return id >= first_sentinel;
        }
        bool push(SeqNum seq, std::uint64_t pc);
        /** @return the slot holding @p seq, or kNil. */
        std::uint32_t find(SeqNum seq);
        /** List the entry in @p slot, whose access is @p span, under
         *  each word it touches. */
        void link(std::uint32_t slot, const Span &span);
        void unlink(std::uint32_t slot);
        /** The oldest node younger than @p seq in the bucket of
         *  sentinel @p sent, or @p sent when there is none. */
        std::uint32_t firstYounger(std::uint32_t sent, SeqNum seq) const;
        /** Unlist and drop the oldest / the youngest entry. */
        void popFront();
        void popBack();
    };

    /** Per word of the access @p span: the youngest store older than
     *  @p seq supplies each byte. */
    Forward forward(SeqNum seq, const Span &span) const;

    /** The value a completed load should hold now. */
    std::uint64_t expectedValue(const Entry &load) const;

    MemReader read_committed_;
    Queue loads_;
    Queue stores_;
};

} // namespace slf

#endif // SLFWD_LSQ_ORDER_INDEX_HH_
