/**
 * @file
 * Per-cycle capacity pool: models a resource with N identical slots
 * per cycle (memory ports, functional units). Unlike a next-free-time
 * vector, booking a far-future cycle never blocks earlier idle
 * cycles, so bursty late-ready requests don't falsely starve
 * early-ready ones.
 *
 * Storage is a window of per-cycle booking counts, a power-of-two
 * ring covering [base, base + size) with base a multiple of 64, plus
 * per-64-cycle-block bitmaps: "every cycle full", so a search jumps a
 * long fully booked span 4096 cycles per bitmap word, and "some cycle
 * booked", so slides touch only booked blocks. Held cycles below the
 * window spill to an ordered map. When a booking lands past the
 * window's top, the window first slides over its empty prefix; if
 * that is not enough, a dense window (at least one held cycle in
 * sixteen, where two count bytes per cycle cost less than a map node
 * per held cycle) doubles, and a sparse one slides on, spilling its
 * oldest held cycles. The base only ever moves forward and the ring
 * is re-indexed, never shifted.
 *
 * Forget rule: once 65,536 distinct cycles hold bookings, every
 * cycle below ready - 16384 is dropped (window and spill alike). The
 * check is O(1) when nothing lies below that floor.
 */

#ifndef MESA_UTIL_SLOT_POOL_HH
#define MESA_UTIL_SLOT_POOL_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <vector>

namespace mesa
{

/** A resource with fixed per-cycle capacity. */
class SlotPool
{
  public:
    /** Largest supported capacity (counts are 16-bit). */
    static constexpr unsigned MaxCapacity = UINT16_MAX;

    /** @throws FatalError when @p capacity exceeds MaxCapacity. */
    explicit SlotPool(unsigned capacity);

    /**
     * Book one slot at the first cycle >= ready with spare capacity.
     * @return the booked cycle.
     */
    uint64_t
    acquire(uint64_t ready)
    {
        uint64_t cycle = ready;
        if (cycle < base_) {
            cycle = firstFreeSpilled(cycle);
            if (cycle < base_) {
                bookSpilled(cycle);
                maybePrune(ready);
                return cycle;
            }
        }
        cycle = firstFreeInWindow(cycle);
        if (cycle >= top())
            makeRoom(cycle);
        Count &count = counts_[cycle & mask()];
        if (count++ == 0) {
            ++held_;
            if (cycle < low_)
                low_ = cycle;
            setBit(used_blocks_, cycle);
        }
        if (count == full_)
            markIfBlockFull(cycle);
        maybePrune(ready);
        return cycle;
    }

    unsigned capacity() const { return capacity_; }

    void reset();

  private:
    using Count = uint16_t;

    static constexpr uint64_t BlockCycles = 64;
    static constexpr size_t MinWindow = 4096; ///< One bitmap word.
    static constexpr size_t PruneAt = 65536;
    static constexpr uint64_t GuardBand = 16384;

    uint64_t top() const { return base_ + counts_.size(); }
    uint64_t mask() const { return counts_.size() - 1; }

    /** Bit of @p cycle's 64-cycle block in a per-block bitmap. */
    bool
    testBit(const std::vector<uint64_t> &bits, uint64_t cycle) const
    {
        const uint64_t b = (cycle & mask()) / BlockCycles;
        return (bits[b / 64] >> (b % 64)) & 1;
    }

    void
    setBit(std::vector<uint64_t> &bits, uint64_t cycle)
    {
        const uint64_t b = (cycle & mask()) / BlockCycles;
        bits[b / 64] |= uint64_t(1) << (b % 64);
    }

    void
    clearBit(std::vector<uint64_t> &bits, uint64_t cycle)
    {
        const uint64_t b = (cycle & mask()) / BlockCycles;
        bits[b / 64] &= ~(uint64_t(1) << (b % 64));
    }

    /** First cycle >= @p cycle (which is >= base) not fully booked. */
    uint64_t
    firstFreeInWindow(uint64_t cycle) const
    {
        if (cycle >= top() || counts_[cycle & mask()] < full_)
            return cycle;
        return scanWindow(cycle);
    }

    uint64_t scanWindow(uint64_t cycle) const;
    uint64_t findBlock(const std::vector<uint64_t> &bits, uint64_t cycle,
                       bool set) const;
    template <typename Fn>
    void forEachUsedBlock(uint64_t from, uint64_t to, Fn fn) const;
    void clearBlock(uint64_t cycle);
    uint64_t firstFreeSpilled(uint64_t cycle) const;
    void bookSpilled(uint64_t cycle);
    void markIfBlockFull(uint64_t cycle);
    void makeRoom(uint64_t cycle);
    uint64_t lowestHeldInWindow();
    void advanceBase(uint64_t new_base);
    void grow();

    void
    maybePrune(uint64_t ready)
    {
        if (held_ >= PruneAt)
            prune(ready);
    }

    void prune(uint64_t ready);

    unsigned capacity_;
    Count full_; ///< Bookings that fill a cycle: max(1, capacity).

    std::vector<Count> counts_;         ///< Ring, indexed by cycle & mask.
    /** Per 64-cycle block: every cycle full / some cycle ever booked
     *  since the block was last cleared. */
    std::vector<uint64_t> full_blocks_;
    std::vector<uint64_t> used_blocks_;
    uint64_t base_ = 0;                 ///< Window start, 64-aligned.
    /** Every window cycle in [base_, low_) holds no booking. */
    uint64_t low_ = 0;
    std::map<uint64_t, Count> spill_; ///< Held cycles below base_.
    size_t held_ = 0;                 ///< Distinct cycles with bookings.
};

} // namespace mesa

#endif // MESA_UTIL_SLOT_POOL_HH
