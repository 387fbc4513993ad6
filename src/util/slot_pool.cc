#include "util/slot_pool.hh"

#include <algorithm>
#include <bit>
#include <iterator>

#include "util/logging.hh"

namespace mesa
{

namespace
{

constexpr uint64_t
alignDown(uint64_t cycle)
{
    return cycle & ~uint64_t(63);
}

constexpr uint64_t
alignUp(uint64_t cycle)
{
    return alignDown(cycle + 63);
}

} // namespace

SlotPool::SlotPool(unsigned capacity)
    : capacity_(capacity), full_(Count(std::max(1u, capacity)))
{
    // A zero capacity behaves as one, as it always has: the first
    // booking fills its cycle.
    if (capacity > MaxCapacity)
        fatal("SlotPool: capacity ", capacity, " exceeds ", MaxCapacity);
    reset();
}

void
SlotPool::reset()
{
    // assign() keeps a grown buffer; shrink_to_fit() hands it back.
    counts_.assign(MinWindow, 0);
    counts_.shrink_to_fit();
    full_blocks_.assign(MinWindow / BlockCycles / 64, 0);
    full_blocks_.shrink_to_fit();
    used_blocks_.assign(MinWindow / BlockCycles / 64, 0);
    used_blocks_.shrink_to_fit();
    base_ = 0;
    low_ = 0;
    spill_.clear();
    held_ = 0;
}

uint64_t
SlotPool::findBlock(const std::vector<uint64_t> &bits, uint64_t cycle,
                    bool set) const
{
    // Ring blocks wrap at word boundaries (the window is a multiple
    // of 4096 cycles), so a word's bits above the window's top belong
    // to its bottom: a hit there is clamped to top().
    const uint64_t end = top();
    while (cycle < end) {
        const uint64_t b = (cycle & mask()) / BlockCycles;
        const uint64_t word = (set ? bits[b / 64] : ~bits[b / 64]) >> (b % 64);
        if (word)
            return std::min(end, cycle + std::countr_zero(word) * BlockCycles);
        cycle += (64 - b % 64) * BlockCycles;
    }
    return end;
}

template <typename Fn>
void
SlotPool::forEachUsedBlock(uint64_t from, uint64_t to, Fn fn) const
{
    to = std::min(to, top());
    for (uint64_t c = findBlock(used_blocks_, from, true); c < to;
         c = findBlock(used_blocks_, c + BlockCycles, true))
        fn(c);
}

void
SlotPool::clearBlock(uint64_t cycle)
{
    std::fill_n(counts_.begin() + ptrdiff_t(cycle & mask()), BlockCycles, 0);
    clearBit(full_blocks_, cycle);
    clearBit(used_blocks_, cycle);
}

uint64_t
SlotPool::scanWindow(uint64_t cycle) const
{
    const uint64_t end = top();
    while (cycle < end) {
        const uint64_t block_end = alignDown(cycle) + BlockCycles;
        if (!testBit(full_blocks_, cycle)) {
            for (; cycle < block_end; ++cycle)
                if (counts_[cycle & mask()] < full_)
                    return cycle;
        }
        cycle = findBlock(full_blocks_, block_end, false);
    }
    return end;
}

uint64_t
SlotPool::firstFreeSpilled(uint64_t cycle) const
{
    auto it = spill_.lower_bound(cycle);
    while (cycle < base_ && it != spill_.end() && it->first == cycle &&
           it->second >= full_) {
        ++cycle;
        ++it;
    }
    return cycle;
}

void
SlotPool::bookSpilled(uint64_t cycle)
{
    const auto [it, inserted] = spill_.try_emplace(cycle, 0);
    if (inserted)
        ++held_;
    ++it->second;
}

void
SlotPool::markIfBlockFull(uint64_t cycle)
{
    const uint64_t first = alignDown(cycle & mask());
    for (uint64_t i = first; i < first + BlockCycles; ++i)
        if (counts_[i] < full_)
            return;
    setBit(full_blocks_, cycle);
}

uint64_t
SlotPool::lowestHeldInWindow()
{
    const uint64_t end = top();
    while (low_ < end && counts_[low_ & mask()] == 0) {
        ++low_;
        if (low_ % BlockCycles == 0)
            low_ = findBlock(used_blocks_, low_, true);
    }
    return low_;
}

void
SlotPool::makeRoom(uint64_t cycle)
{
    // Smallest base whose window reaches the cycle.
    const uint64_t need = alignUp(cycle + 1 - counts_.size());
    advanceBase(std::min(alignDown(lowestHeldInWindow()), need));
    if (cycle < top())
        return;
    const size_t in_window = held_ - spill_.size();
    if (in_window * 16 >= counts_.size() &&
        cycle < base_ + 2 * counts_.size()) {
        grow();
        return;
    }
    // Sparse: slide on, spilling held cycles below the new base. They
    // all lie above every spilled key, so each insert is at the end.
    forEachUsedBlock(base_, need, [&](uint64_t block) {
        for (uint64_t c = block; c < block + BlockCycles; ++c)
            if (const Count n = counts_[c & mask()])
                spill_.emplace_hint(spill_.end(), c, n);
    });
    advanceBase(need);
}

void
SlotPool::advanceBase(uint64_t new_base)
{
    // Callers have spilled or dropped every booking below new_base.
    forEachUsedBlock(base_, new_base,
                     [this](uint64_t block) { clearBlock(block); });
    base_ = new_base;
    low_ = std::max(low_, new_base);
}

void
SlotPool::grow()
{
    const uint64_t size = counts_.size() * 2;
    std::vector<Count> counts(size);
    std::vector<uint64_t> full_blocks(size / BlockCycles / 64);
    std::vector<uint64_t> used_blocks(size / BlockCycles / 64);
    for (uint64_t c = base_; c < top(); c += BlockCycles) {
        std::copy_n(counts_.begin() + ptrdiff_t(c & mask()), BlockCycles,
                    counts.begin() + ptrdiff_t(c & (size - 1)));
        const uint64_t b = (c & (size - 1)) / BlockCycles;
        const uint64_t bit = uint64_t(1) << (b % 64);
        if (testBit(full_blocks_, c))
            full_blocks[b / 64] |= bit;
        if (testBit(used_blocks_, c))
            used_blocks[b / 64] |= bit;
    }
    counts_.swap(counts);
    full_blocks_.swap(full_blocks);
    used_blocks_.swap(used_blocks);
}

void
SlotPool::prune(uint64_t ready)
{
    // Requests are approximately monotone; bookkeeping far behind the
    // current horizon can be dropped. The guard band keeps occasional
    // out-of-order requests accurate.
    const uint64_t floor = ready > GuardBand ? ready - GuardBand : 0;
    const uint64_t lowest =
        spill_.empty() ? lowestHeldInWindow() : spill_.begin()->first;
    if (lowest >= floor)
        return;
    const auto keep = spill_.lower_bound(floor);
    held_ -= size_t(std::distance(spill_.begin(), keep));
    spill_.erase(spill_.begin(), keep);

    const uint64_t cut = std::min(floor, top());
    if (cut <= base_)
        return;
    forEachUsedBlock(base_, cut, [&](uint64_t block) {
        for (uint64_t c = block; c < std::min(block + BlockCycles, cut); ++c)
            held_ -= counts_[c & mask()] != 0;
    });
    advanceBase(alignDown(cut));
    if (base_ < cut) {
        // The block holding the floor is only partly dropped.
        for (uint64_t c = base_; c < cut; ++c)
            counts_[c & mask()] = 0;
        clearBit(full_blocks_, base_);
        low_ = std::max(low_, cut);
    }
}

} // namespace mesa
