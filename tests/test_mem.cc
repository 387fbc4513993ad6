/**
 * @file
 * Memory-system tests: main memory, set-associative caches, the
 * two-level hierarchy with AMAT counters, and the accelerator-side
 * load/store unit (ordering, forwarding, invalidation, ports).
 */

#include <gtest/gtest.h>

#include <cstring>
#include <utility>
#include <vector>

#include "fault/checkpoint.hh"
#include "mem/cache.hh"
#include "mem/lsq.hh"
#include "mem/memory.hh"
#include "util/logging.hh"
#include "util/stats_registry.hh"

namespace
{

using namespace mesa;
using namespace mesa::mem;
using riscv::Op;

/** Fixed-seed xorshift64 for reproducible random traces. */
uint64_t
nextRandom(uint64_t &x)
{
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return x;
}

TEST(MainMemory, ReadWriteWidths)
{
    MainMemory m;
    m.write32(0x1000, 0xDEADBEEF);
    EXPECT_EQ(m.read32(0x1000), 0xDEADBEEFu);
    EXPECT_EQ(m.read16(0x1000), 0xBEEFu);
    EXPECT_EQ(m.read16(0x1002), 0xDEADu);
    EXPECT_EQ(m.read8(0x1003), 0xDEu);

    m.write8(0x1001, 0x42);
    EXPECT_EQ(m.read32(0x1000), 0xDEAD42EFu);

    // Unaligned access.
    m.write32(0x2002, 0x11223344);
    EXPECT_EQ(m.read32(0x2002), 0x11223344u);

    // Cross-page access.
    m.write32(0x2FFE, 0xAABBCCDD);
    EXPECT_EQ(m.read32(0x2FFE), 0xAABBCCDDu);

    // Untouched memory reads zero.
    EXPECT_EQ(m.read32(0x999000), 0u);
}

TEST(MainMemory, FloatAccessAndSnapshot)
{
    MainMemory m;
    m.writeFloat(0x3000, 3.25f);
    EXPECT_FLOAT_EQ(m.readFloat(0x3000), 3.25f);

    auto snap = m.snapshot();
    EXPECT_EQ(snap.size(), m.residentPages());
    m.writeFloat(0x3000, 9.5f);
    // Snapshot is a deep copy.
    MainMemory m2;
    EXPECT_FLOAT_EQ(m.readFloat(0x3000), 9.5f);
    const auto &page = snap.at(0x3000 >> 12);
    float old;
    std::memcpy(&old, page.data(), 4);
    EXPECT_FLOAT_EQ(old, 3.25f);
}

TEST(MainMemory, WriteBlockMatchesBytewiseWrites)
{
    // Spans: page-aligned whole page, unaligned start within a page,
    // unaligned start crossing one and then two page boundaries, a
    // span ending exactly on a boundary, and an empty span.
    struct Span
    {
        uint32_t addr;
        size_t len;
    };
    const Span spans[] = {{0x10000, 4096}, {0x20123, 100},
                          {0x30ffd, 9},    {0x40f00, 2 * 4096 + 77},
                          {0x50f80, 128},  {0x60010, 0}};
    uint64_t x = 0x853c49e6748fea9bull;
    for (const Span &span : spans) {
        std::vector<uint8_t> data(span.len);
        for (auto &b : data)
            b = uint8_t(nextRandom(x));

        MainMemory block, bytewise;
        // Resident pages first, so generations have a before value.
        const uint32_t first_page = span.addr >> MainMemory::PageShift;
        const uint32_t last_page =
            uint32_t((span.addr + span.len + 4095) >> MainMemory::PageShift);
        std::vector<uint64_t> before;
        for (uint32_t pn = first_page; pn <= last_page; ++pn) {
            block.write32(pn << MainMemory::PageShift, 0xA5A5A5A5u);
            bytewise.write32(pn << MainMemory::PageShift, 0xA5A5A5A5u);
            before.push_back(*block.pageGenPtr(pn << MainMemory::PageShift));
        }

        block.writeBlock(span.addr, data.data(), data.size());
        for (size_t i = 0; i < data.size(); ++i)
            bytewise.write8(span.addr + uint32_t(i), data[i]);

        EXPECT_EQ(block.snapshot(), bytewise.snapshot())
            << "span at " << span.addr << " len " << span.len;
        for (uint32_t pn = first_page; pn <= last_page; ++pn) {
            const uint64_t addr = uint64_t(pn) << MainMemory::PageShift;
            const bool touched = span.len > 0 && addr < span.addr + span.len &&
                                 addr + MainMemory::PageSize > span.addr;
            const uint64_t gen = *block.pageGenPtr(uint32_t(addr));
            if (touched)
                EXPECT_GT(gen, before[pn - first_page]) << "page " << pn;
            else
                EXPECT_EQ(gen, before[pn - first_page]) << "page " << pn;
        }
    }
}

TEST(MainMemory, CheckpointRoundTripIsByteExact)
{
    MainMemory m;
    uint64_t x = 0xda942042e4dd58b5ull;
    std::vector<uint8_t> image(3 * 4096 + 513);
    for (auto &b : image)
        b = uint8_t(nextRandom(x));
    m.writeBlock(0x7ff00, image.data(), image.size());
    m.write32(0x400000, 0x12345678u);
    riscv::ArchState state;
    state.pc = 0x1000;
    state.x[5] = 42;
    state.f[3] = 0x3f800000u;
    const auto ckpt = fault::Checkpoint::capture(state, m);
    const auto golden = m.snapshot();

    // Scribble: overwrite bytes, touch a fresh page, clobber state.
    riscv::ArchState live = state;
    live.pc = 0xdead;
    live.x[5] = 0;
    for (uint32_t a = 0x7ff00; a < 0x82000; a += 7)
        m.write8(a, uint8_t(a));
    m.write32(0x900000, 0xffffffffu);

    ckpt.restore(live, m);
    EXPECT_EQ(live, state);
    EXPECT_EQ(m.snapshot(), golden);
    EXPECT_EQ(m.residentPages(), golden.size());
    std::vector<uint8_t> back(image.size());
    for (size_t i = 0; i < back.size(); ++i)
        back[i] = m.read8(0x7ff00 + uint32_t(i));
    EXPECT_EQ(back, image);
}

TEST(Cache, HitsAndMisses)
{
    CacheParams p{1024, 2, 64, 1};
    Cache c("t", p);
    EXPECT_FALSE(c.access(0x0, false)); // cold miss
    EXPECT_TRUE(c.access(0x0, false));
    EXPECT_TRUE(c.access(0x3C, false)); // same line
    EXPECT_FALSE(c.access(0x40, false));
    EXPECT_EQ(c.misses(), 2u);
    EXPECT_EQ(c.hits(), 2u);
}

TEST(Cache, LruEviction)
{
    // 2-way, 64B lines, 2 sets -> way capacity 2 per set.
    CacheParams p{256, 2, 64, 1};
    Cache c("t", p);
    ASSERT_EQ(c.numSets(), 2u);
    // Three lines mapping to set 0: 0x000, 0x080, 0x100.
    c.access(0x000, false);
    c.access(0x080, false);
    c.access(0x000, false); // touch 0x000 -> 0x080 becomes LRU
    c.access(0x100, false); // evicts 0x080
    EXPECT_TRUE(c.probe(0x000));
    EXPECT_FALSE(c.probe(0x080));
    EXPECT_TRUE(c.probe(0x100));
}

TEST(Cache, DirtyWritebacks)
{
    CacheParams p{128, 1, 64, 1}; // direct-mapped, 2 sets
    Cache c("t", p);
    c.access(0x000, true);  // dirty
    c.access(0x080, false); // evicts dirty 0x000 -> writeback
    EXPECT_EQ(c.writebacks(), 1u);
    c.access(0x100, false); // evicts clean 0x080 -> no writeback
    EXPECT_EQ(c.writebacks(), 1u);
}

TEST(Cache, BadGeometryRejected)
{
    EXPECT_THROW((Cache("t", CacheParams{100, 3, 48, 1})),
                 mesa::FatalError);
    EXPECT_THROW((Cache("t", CacheParams{1024, 0, 64, 1})),
                 mesa::FatalError);
}

/**
 * The nested-vector true-LRU cache the flat line array replaced: one
 * vector of ways per set. Kept as the reference for hit, miss, and
 * writeback counts.
 */
class NestedLruCache
{
  public:
    explicit NestedLruCache(const CacheParams &p)
        : line_bytes_(p.line_bytes),
          sets_(p.size_bytes / p.line_bytes / p.assoc,
                std::vector<Way>(p.assoc))
    {
    }

    void
    access(uint32_t addr, bool write)
    {
        const uint32_t line = addr / uint32_t(line_bytes_);
        auto &set = sets_[line % sets_.size()];
        const uint32_t tag = line / uint32_t(sets_.size());
        ++clock_;
        for (auto &way : set) {
            if (way.valid && way.tag == tag) {
                way.lru = clock_;
                way.dirty = way.dirty || write;
                ++hits;
                return;
            }
        }
        ++misses;
        Way *victim = &set[0];
        for (auto &way : set) {
            if (!way.valid) {
                victim = &way;
                break;
            }
            if (way.lru < victim->lru)
                victim = &way;
        }
        if (victim->valid && victim->dirty)
            ++writebacks;
        *victim = Way{tag, true, write, clock_};
    }

    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t writebacks = 0;

  private:
    struct Way
    {
        uint32_t tag = 0;
        bool valid = false;
        bool dirty = false;
        uint64_t lru = 0;
    };

    size_t line_bytes_;
    std::vector<std::vector<Way>> sets_;
    uint64_t clock_ = 0;
};

TEST(Cache, FlatLinesMatchNestedLruReference)
{
    for (const size_t assoc : {1u, 4u, 8u}) {
        const CacheParams p{8 * 1024, assoc, 64, 1};
        Cache cache("t", p);
        NestedLruCache reference(p);
        uint64_t x = 0x2545f4914f6cdd1dull + assoc;
        for (int i = 0; i < 200'000; ++i) {
            // A hot 16 KB region (twice the cache) plus cold strays,
            // a third of them writes: hits, conflict misses, and
            // dirty evictions all occur.
            const uint64_t r = nextRandom(x);
            const uint32_t addr = (r & 3) ? uint32_t(r >> 8) % 16384
                                          : uint32_t(r >> 16);
            const bool write = (r >> 4) % 3 == 0;
            cache.access(addr, write);
            reference.access(addr, write);
        }
        EXPECT_EQ(cache.hits(), reference.hits) << assoc << "-way";
        EXPECT_EQ(cache.misses(), reference.misses) << assoc << "-way";
        EXPECT_EQ(cache.writebacks(), reference.writebacks)
            << assoc << "-way";
        EXPECT_GT(reference.writebacks, 0u);
        EXPECT_GT(reference.hits, 0u);
    }
}

TEST(Cache, FlushInvalidatesEveryLine)
{
    Cache c("t", CacheParams{1024, 4, 64, 1});
    for (uint32_t a = 0; a < 1024; a += 64)
        c.access(a, true);
    c.flush();
    for (uint32_t a = 0; a < 1024; a += 64)
        EXPECT_FALSE(c.probe(a));
}

TEST(Hierarchy, LatencyComposition)
{
    HierarchyParams p;
    p.l1 = {1024, 2, 64, 2};
    p.l2 = {16384, 4, 64, 10};
    p.dram_latency = 100;
    MemHierarchy h(p);

    // Cold: L1 miss + L2 miss + DRAM.
    EXPECT_EQ(h.accessLatency(0x0, false), 2u + 10u + 100u);
    // Warm: L1 hit.
    EXPECT_EQ(h.accessLatency(0x0, false), 2u);
    EXPECT_EQ(h.dramAccesses(), 1u);
    EXPECT_GT(h.amat(), 0.0);
}

TEST(Hierarchy, SharedL2)
{
    HierarchyParams p;
    Cache shared("l2", p.l2);
    MemHierarchy a(p, &shared);
    MemHierarchy b(p, &shared);

    a.accessLatency(0x5000, false); // a warms the shared L2
    // b misses its own L1 but hits the shared L2.
    const uint32_t lat = b.accessLatency(0x5000, false);
    EXPECT_EQ(lat, p.l1.hit_latency + p.l2.hit_latency);
    EXPECT_EQ(b.dramAccesses(), 0u);
}

TEST(Hierarchy, SharedL2ReportsSharedCounters)
{
    HierarchyParams p;
    p.l2 = {16384, 4, 64, 10};
    Cache shared("l2", p.l2);
    MemHierarchy a(p, &shared);
    MemHierarchy b(p, &shared);
    EXPECT_EQ(&a.l2(), &shared);
    EXPECT_EQ(&std::as_const(b).l2(), &shared);

    a.accessLatency(0x5000, true); // L2 miss
    b.accessLatency(0x5000, false); // L2 hit
    b.accessLatency(0x9000, false); // L2 miss
    EXPECT_EQ(shared.hits(), 1u);
    EXPECT_EQ(shared.misses(), 2u);

    StatsRegistry registry;
    b.registerStats(registry, "core1.");
    EXPECT_EQ(registry.value("core1.l2.hits"), 1.0);
    EXPECT_EQ(registry.value("core1.l2.misses"), 2.0);
    EXPECT_EQ(registry.value("core1.l1.misses"), 2.0);
}

TEST(Hierarchy, NextLinePrefetcherHelpsStreams)
{
    HierarchyParams with;
    with.next_line_prefetch = true;
    HierarchyParams without;
    MemHierarchy hp(with), hn(without);

    uint64_t cyc_with = 0, cyc_without = 0;
    for (uint32_t i = 0; i < 4096; i += 4) {
        cyc_with += hp.accessLatency(0x40000 + i, false);
        cyc_without += hn.accessLatency(0x40000 + i, false);
    }
    EXPECT_LT(cyc_with, cyc_without)
        << "forward stream should hit prefetched lines";
    // The prefetcher fetches each next line exactly once: DRAM
    // traffic must not blow up.
    EXPECT_LE(hp.dramAccesses(), hn.dramAccesses() + 2);
}

TEST(Hierarchy, PrefetchWarmsWithoutAmatNoise)
{
    HierarchyParams p;
    MemHierarchy h(p);
    h.prefetch(0x8000);
    EXPECT_EQ(h.accesses(), 0u); // AMAT untouched
    EXPECT_EQ(h.accessLatency(0x8000, false), p.l1.hit_latency);
}

// ---------------------------------------------------------------------
// Load/store unit.
// ---------------------------------------------------------------------

struct LsuFixture : ::testing::Test
{
    MainMemory memory;
    MemHierarchy hierarchy;
    PortPool ports{2};
    LoadStoreUnit lsu{memory, hierarchy, ports};
};

TEST_F(LsuFixture, StoreLoadForwardingSameIteration)
{
    lsu.beginIteration();
    lsu.store(1, 0x1000, 42, Op::Sw, 10);
    const LoadResult r = lsu.load(2, 0x1000, Op::Lw, 5);
    EXPECT_TRUE(r.forwarded);
    EXPECT_EQ(r.value, 42u);
    // Forwarded one broadcast cycle after the store data (cycle 10).
    EXPECT_EQ(r.done_cycle, 11u);
    EXPECT_TRUE(r.invalidated); // load was ready before the store
    EXPECT_EQ(lsu.forwards(), 1u);
}

TEST_F(LsuFixture, OlderLoadDoesNotForwardFromYoungerStore)
{
    lsu.beginIteration();
    lsu.store(5, 0x1000, 42, Op::Sw, 0);
    const LoadResult r = lsu.load(3, 0x1000, Op::Lw, 0);
    EXPECT_FALSE(r.forwarded);
    EXPECT_EQ(r.value, 0u); // memory value, not the younger store's
}

TEST_F(LsuFixture, CommitInProgramOrder)
{
    lsu.beginIteration();
    // Two stores to the same address, issued out of order.
    lsu.store(7, 0x2000, 7, Op::Sw, 50);
    lsu.store(3, 0x2000, 3, Op::Sw, 90); // older but later-ready
    lsu.commitStores();
    // Program order: seq 3 then seq 7 -> final value is 7.
    EXPECT_EQ(memory.read32(0x2000), 7u);
}

TEST_F(LsuFixture, PeekAppliesOlderStores)
{
    lsu.beginIteration();
    memory.write32(0x3000, 0x11111111);
    lsu.store(2, 0x3000, 0xAABBCCDD, Op::Sw, 0);
    lsu.store(4, 0x3001, 0xEE, Op::Sb, 0);
    EXPECT_EQ(lsu.peek(3, 0x3000, Op::Lw), 0xAABBCCDDu);
    EXPECT_EQ(lsu.peek(5, 0x3000, Op::Lw), 0xAABBEEDDu);
    EXPECT_EQ(lsu.peek(1, 0x3000, Op::Lw), 0x11111111u);
}

TEST_F(LsuFixture, PartialWidthOverlapInvalidates)
{
    lsu.beginIteration();
    lsu.store(1, 0x4000, 0xFF, Op::Sb, 20);
    const LoadResult r = lsu.load(2, 0x4000, Op::Lw, 0);
    EXPECT_FALSE(r.forwarded);
    EXPECT_TRUE(r.invalidated);
    EXPECT_EQ(r.value & 0xFFu, 0xFFu);
    EXPECT_GE(r.done_cycle, 20u);
}

TEST_F(LsuFixture, PortContentionSerializes)
{
    lsu.beginIteration();
    // Four loads all ready at cycle 0 with 2 ports: issue cycles must
    // spread (0, 0, 1, 1).
    uint64_t max_done = 0;
    for (unsigned i = 0; i < 4; ++i) {
        const LoadResult r =
            lsu.load(i, 0x5000 + 64 * i, Op::Lw, 0);
        max_done = std::max(max_done, r.done_cycle);
    }
    // A single access takes hierarchy latency L; with serialization
    // the last one finishes at >= 1 + L.
    MemHierarchy fresh;
    const uint32_t single = fresh.accessLatency(0x9000, false);
    EXPECT_GE(max_done, 1u + single);
}

TEST_F(LsuFixture, AmatCountersPerEntry)
{
    lsu.beginIteration();
    lsu.load(0, 0x6000, Op::Lw, 0);
    lsu.load(0, 0x6000, Op::Lw, 100); // second, now a cache hit
    EXPECT_GT(lsu.entryAmat(0), 0.0);
    EXPECT_GT(lsu.overallAmat(), 0.0);
    lsu.resetStats();
    EXPECT_EQ(lsu.loads(), 0u);
    EXPECT_EQ(lsu.entryAmat(0), 0.0);
}

/**
 * Brute-force model of the load/store unit: the store buffer is a
 * plain list walked whole for every load, and timing comes from its
 * own copy of the ports and hierarchy, driven by the same accesses.
 */
struct LsuReference
{
    struct Store
    {
        unsigned seq;
        uint32_t addr;
        uint32_t value;
        Op op;
        uint64_t ready;
    };

    MainMemory memory;
    MemHierarchy hierarchy;
    PortPool ports{2};
    std::vector<Store> buffer;
    uint64_t forwards = 0;
    uint64_t invalidations = 0;

    static unsigned
    width(Op op)
    {
        return op == Op::Sb ? 1 : op == Op::Sh ? 2 : 4;
    }

    uint32_t
    peek(unsigned seq, uint32_t addr, Op op) const
    {
        // Each byte of the access: memory, then every older store in
        // push order overwriting it.
        uint32_t raw = 0;
        for (unsigned b = 0; b < 4; ++b) {
            const uint32_t a = addr + b;
            uint8_t byte = memory.read8(a);
            for (const Store &st : buffer)
                if (st.seq < seq && a >= st.addr &&
                    a < st.addr + width(st.op))
                    byte = uint8_t(st.value >> (8 * (a - st.addr)));
            raw |= uint32_t(byte) << (8 * b);
        }
        switch (op) {
          case Op::Lb: return uint32_t(int32_t(int8_t(raw)));
          case Op::Lbu: return raw & 0xFF;
          case Op::Lh: return uint32_t(int32_t(int16_t(raw)));
          case Op::Lhu: return raw & 0xFFFF;
          default: return raw;
        }
    }

    LoadResult
    load(unsigned seq, uint32_t addr, Op op, uint64_t ready)
    {
        const Store *hit = nullptr;
        for (const Store &st : buffer)
            if (st.addr == addr && st.seq < seq)
                hit = &st; // the last pushed match wins
        LoadResult r;
        if (hit && (op == Op::Lw || op == Op::Flw) &&
            (hit->op == Op::Sw || hit->op == Op::Fsw)) {
            ++forwards;
            r.value = hit->value;
            r.forwarded = true;
            r.invalidated = ready < hit->ready;
            invalidations += r.invalidated;
            r.done_cycle = std::max(ready, hit->ready) + 1;
            return r;
        }
        if (hit) {
            ++invalidations;
            r.invalidated = true;
            ready = std::max(ready, hit->ready);
        }
        r.value = peek(seq, addr, op);
        const uint64_t issue = ports.acquire(ready);
        r.done_cycle = issue + hierarchy.accessLatency(addr, false);
        return r;
    }

    uint64_t
    commit()
    {
        std::vector<Store> order = buffer;
        std::stable_sort(order.begin(), order.end(),
                         [](const Store &a, const Store &b) {
                             return a.seq < b.seq;
                         });
        uint64_t last = 0, prev = 0;
        for (const Store &st : order) {
            const uint64_t issue = ports.acquire(std::max(st.ready, prev));
            const uint32_t lat = hierarchy.accessLatency(st.addr, true);
            for (unsigned b = 0; b < width(st.op); ++b)
                memory.write8(st.addr + b, uint8_t(st.value >> (8 * b)));
            prev = issue + 1;
            last = std::max(last, issue + lat);
        }
        buffer.clear();
        return last;
    }
};

TEST_F(LsuFixture, MatchesBruteForceReference)
{
    LsuReference ref;
    uint64_t rng = 0x9E3779B97F4A7C15ull;
    const Op load_ops[] = {Op::Lb, Op::Lbu, Op::Lh, Op::Lhu, Op::Lw,
                           Op::Flw};
    const Op store_ops[] = {Op::Sb, Op::Sh, Op::Sw, Op::Fsw};
    uint64_t clock = 0;
    size_t forwarded = 0, invalidated = 0, out_of_order = 0;
    for (int iter = 0; iter < 4000; ++iter) {
        // A loop body: up to 12 entries with distinct seqs, pushed in
        // program order on most iterations and shuffled on the rest.
        const unsigned n = 1 + unsigned(nextRandom(rng) % 12);
        std::vector<unsigned> seqs(n);
        for (unsigned k = 0; k < n; ++k)
            seqs[k] = 3 * k + unsigned(nextRandom(rng) % 3);
        if (nextRandom(rng) % 4 == 0) {
            for (unsigned k = n; k > 1; --k)
                std::swap(seqs[k - 1], seqs[nextRandom(rng) % k]);
            ++out_of_order;
        }
        for (unsigned seq : seqs) {
            const uint64_t r = nextRandom(rng);
            // A 16-byte window makes repeated and overlapping
            // addresses common.
            const uint64_t ready = clock + (r >> 40) % 24;
            if (r % 2 == 0) {
                const Op op = store_ops[(r >> 8) % 4];
                const unsigned w = LsuReference::width(op);
                const uint32_t addr =
                    0x8000 + uint32_t((r >> 16) % (16 / w)) * w;
                const uint32_t value = uint32_t(nextRandom(rng));
                lsu.store(seq, addr, value, op, ready);
                ref.buffer.push_back({seq, addr, value, op, ready});
            } else {
                const Op op = load_ops[(r >> 8) % 6];
                const unsigned w = op == Op::Lb || op == Op::Lbu   ? 1
                                   : op == Op::Lh || op == Op::Lhu ? 2
                                                                   : 4;
                const uint32_t addr =
                    0x8000 + uint32_t((r >> 16) % (16 / w)) * w;
                ASSERT_EQ(lsu.peek(seq, addr, op), ref.peek(seq, addr, op));
                const LoadResult got = lsu.load(seq, addr, op, ready);
                const LoadResult want = ref.load(seq, addr, op, ready);
                ASSERT_EQ(got.value, want.value) << "iteration " << iter;
                ASSERT_EQ(got.done_cycle, want.done_cycle);
                ASSERT_EQ(got.forwarded, want.forwarded);
                ASSERT_EQ(got.invalidated, want.invalidated);
                forwarded += got.forwarded;
                invalidated += got.invalidated;
            }
        }
        ASSERT_EQ(lsu.commitStores(), ref.commit()) << "iteration " << iter;
        for (uint32_t a = 0x8000; a < 0x8010; a += 4)
            ASSERT_EQ(memory.read32(a), ref.memory.read32(a));
        clock += 8 + nextRandom(rng) % 16;
    }
    EXPECT_EQ(lsu.forwards(), ref.forwards);
    EXPECT_EQ(lsu.invalidations(), ref.invalidations);
    // The trace exercised every path it is meant to cover.
    EXPECT_GT(forwarded, 100u);
    EXPECT_GT(invalidated, forwarded);
    EXPECT_GT(out_of_order, 500u);
}

TEST(PortPool, IdealWhenHuge)
{
    PortPool pool(64);
    for (int i = 0; i < 64; ++i)
        EXPECT_EQ(pool.acquire(0), 0u);
    EXPECT_EQ(pool.acquire(0), 1u);
    pool.reset();
    EXPECT_EQ(pool.acquire(0), 0u);
}

} // namespace
