/**
 * @file
 * Execution-plan tests for the accelerator device loop. configure()
 * resolves each slot's routes, PE key and op class once, and run()
 * resolves the installed fault plane into per-(instance, slot) masks;
 * these tests pin that the resolved loop behaves exactly like the
 * on-the-fly resolution it replaced:
 *  - golden digests (every AccelRunResult field, the final ArchState,
 *    a memory CRC and the measured node/edge latencies) for every
 *    suite kernel at M-128 under six fault planes, captured from the
 *    on-the-fly implementation;
 *  - invalidation: faults installed or cleared between configure()
 *    and run(), reconfiguring under an installed plane, and the
 *    stuck-branch latch across profiling epochs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <map>

#include "helpers.hh"
#include "util/crc32.hh"
#include "workloads/suite.hh"

using namespace mesa;
using namespace mesa::test;
using accel::FaultPlane;
using workloads::Kernel;

namespace
{

core::MesaParams
planParams()
{
    core::MesaParams p;
    p.accel = accel::AccelParams::m128();
    p.accel.watchdog_cycles = 30'000; // bounds the hang plane
    p.fault.enabled = false;          // raw device behaviour
    return p;
}

/** An emulator parked at the kernel's loop entry, plus its memory. */
struct Parked
{
    mem::MainMemory memory;
    std::unique_ptr<core::MesaController> mesa;
    std::unique_ptr<riscv::Emulator> emu;
};

std::unique_ptr<Parked>
park(const Kernel &kernel, const core::MesaParams &params)
{
    auto run = std::make_unique<Parked>();
    kernel.init_data(run->memory);
    cpu::loadProgram(run->memory, kernel.program);
    run->mesa =
        std::make_unique<core::MesaController>(params, run->memory);
    run->emu = std::make_unique<riscv::Emulator>(run->memory);
    run->emu->reset(kernel.program.base_pc);
    kernel.fullRange()(run->emu->state());
    advanceToLoop(*run->emu, kernel);
    return run;
}

void
addResult(Crc32 &crc, const accel::AccelRunResult &r)
{
    for (uint64_t v :
         {r.cycles, r.iterations, uint64_t(r.completed), r.pe_busy_cycles,
          r.fp_busy_cycles, r.disabled_ops, r.noc_transfers,
          r.local_transfers, r.loads, r.stores, r.store_load_forwards,
          r.load_invalidations, r.dram_accesses, r.pes_used, r.pes_total,
          uint64_t(r.watchdog_tripped), r.faults_fired})
        crc.add64(v);
}

void
addState(Crc32 &crc, const riscv::ArchState &s)
{
    for (uint32_t v : s.x)
        crc.add32(v);
    for (uint32_t v : s.f)
        crc.add32(v);
    crc.add32(s.pc);
}

void
addMemory(Crc32 &crc, const mem::MainMemory &memory)
{
    const auto snap = memory.snapshot();
    std::vector<uint32_t> pages;
    for (const auto &[page, data] : snap)
        pages.push_back(page);
    std::sort(pages.begin(), pages.end());
    for (uint32_t page : pages) {
        crc.add32(page);
        const auto &data = snap.at(page);
        crc.addBytes(data.data(), data.size());
    }
}

void
addLatencies(Crc32 &crc, const accel::Accelerator &dev)
{
    const size_t n = dev.config().slots.size();
    crc.add64(n);
    for (size_t i = 0; i < n; ++i) {
        const auto id = dfg::NodeId(i);
        crc.add64(std::bit_cast<uint64_t>(dev.measuredNodeLatency(id)));
        crc.add64(std::bit_cast<uint64_t>(dev.measuredEdgeLatency(id, 0)));
        crc.add64(std::bit_cast<uint64_t>(dev.measuredEdgeLatency(id, 1)));
    }
}

enum Plane
{
    NoFault,
    StuckPe,
    DeadLink,
    Transient,
    Hang,
    Mixed,
    NumPlanes
};

const char *const plane_names[NumPlanes] = {
    "none", "stuck_pe", "dead_link", "transient", "hang", "mixed"};

/**
 * Defects aimed at the resources a fault-free configuration of the
 * kernel actually uses: the middle mapped slot's PE, and the first
 * mapped src1 edge.
 */
FaultPlane
makePlane(Plane kind, const accel::AcceleratorConfig &config)
{
    ic::Coord pe;
    const size_t n = config.slots.size();
    for (size_t k = 0; k < n && !pe.valid(); ++k)
        pe = config.slots[(n / 2 + k) % n].pos;
    ic::Coord from, to;
    for (const accel::PeSlot &s : config.slots) {
        if (s.src1 != dfg::NoNode && s.pos.valid() &&
            config.slots[size_t(s.src1)].pos.valid()) {
            from = config.slots[size_t(s.src1)].pos;
            to = s.pos;
            break;
        }
    }
    FaultPlane plane;
    switch (kind) {
      case StuckPe:
        plane.stuck_pes.push_back({pe, 0x4});
        break;
      case DeadLink:
        plane.dead_links.push_back({from, to, 0x1});
        break;
      case Transient:
        plane.transients.push_back({n / 2, 3, 0x100});
        break;
      case Hang:
        plane.stuck_branches.push_back({5});
        break;
      case Mixed:
        // Two stuck-at masks that cancel on one PE, a live one on
        // another, plus a link fault and an upset.
        plane.stuck_pes.push_back({pe, 0x20});
        plane.stuck_pes.push_back({pe, 0x20});
        plane.stuck_pes.push_back({config.slots[0].pos, 0x2});
        plane.dead_links.push_back({from, to, 0x8});
        plane.transients.push_back({0, 2, 0x1});
        break;
      default:
        break;
    }
    return plane;
}

/** Offload the kernel's loop once under @p kind and digest it. */
uint32_t
planeDigest(const Kernel &kernel, Plane kind,
            const accel::AcceleratorConfig *probe)
{
    auto run = park(kernel, planParams());
    if (kind != NoFault)
        run->mesa->accelerator().injectFaults(makePlane(kind, *probe));
    const auto os = run->mesa->offloadLoop(
        kernel.loopBody(), run->emu->state(), kernel.parallel);
    Crc32 crc;
    crc.add32(os.has_value());
    if (os) {
        addResult(crc, os->accel);
        crc.add64(os->accel_iterations);
        addLatencies(crc, run->mesa->accelerator());
    }
    addState(crc, run->emu->state());
    addMemory(crc, run->memory);
    return crc.value();
}

/**
 * Digests captured from the on-the-fly device loop (per-slot route,
 * PE-key and fault resolution every iteration) before the execution
 * plan replaced it: kernel -> {none, stuck_pe, dead_link, transient,
 * hang, mixed}.
 */
const std::map<std::string, std::array<uint32_t, NumPlanes>> golden = {
  {"backprop", {0x73d0e77bu, 0x900fba0eu, 0x42a32e1cu, 0x2a571335u, 0x9e74cc94u, 0xbc78694du}},
  {"bfs", {0xea1dfef5u, 0x36c955e5u, 0x81c59a92u, 0xffe904efu, 0x2e5e63e9u, 0x2f9e46ccu}},
  {"b+tree", {0x75353544u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u, 0x00000000u}},
  {"cfd", {0xcb1a2cd6u, 0x22e1b73eu, 0xe3f3b7b2u, 0x006e2cfcu, 0x7aac105eu, 0xb21e05e8u}},
  {"gaussian", {0x9a893d89u, 0x5cab3ad5u, 0xac1eabe7u, 0x2c52d8ccu, 0xda3d3ab7u, 0x66171e1au}},
  {"heartwall", {0x849dcc4bu, 0x2ffce9c1u, 0x2ed50b55u, 0x9fb7925bu, 0xf461001du, 0x438a0677u}},
  {"hotspot", {0x409cbb7eu, 0x423538bfu, 0x6e587864u, 0x60a93696u, 0x7bf513deu, 0xe49a8ab3u}},
  {"hotspot3D", {0x5ff60756u, 0x87c4254cu, 0xf4465e73u, 0x31f386ddu, 0xf21d2f67u, 0x8b008febu}},
  {"kmeans", {0x1573bbdeu, 0x15851222u, 0x7e8c102du, 0x251f7113u, 0x7be64300u, 0x52d29053u}},
  {"lavaMD", {0xd10f1b35u, 0x5618c37du, 0x6eb77e21u, 0xf1b05654u, 0x1321a995u, 0xd2409d06u}},
  {"leukocyte", {0x79529cdau, 0x232f0e9bu, 0xd9f9cae4u, 0x4c11475cu, 0xa5e65660u, 0x75db4085u}},
  {"lud", {0xceb98d5cu, 0xd8ea3cceu, 0xe3af884fu, 0xfe14c16cu, 0x4d0c756fu, 0x1ceed069u}},
  {"nn", {0xd232cbafu, 0xb606af87u, 0x02318100u, 0x391ac9f3u, 0xccd160c6u, 0x5f080a3cu}},
  {"pathfinder", {0x8d5d7fc0u, 0x102302c9u, 0xb8f41745u, 0x13e1525du, 0xfe6cd708u, 0xec6ced89u}},
  {"srad", {0x96a4682fu, 0xf3a31324u, 0xd720ba87u, 0xc81d23ebu, 0x9cb2b3ffu, 0xaae2a0afu}},
  {"streamcluster", {0x34974f50u, 0x08f2c540u, 0x94180621u, 0x8b34ef05u, 0x06ebce87u, 0x01f39f06u}},
};

} // namespace

TEST(ExecutionPlan, GoldenDigestsMatchOnTheFlyResolution)
{
    for (const auto &entry : workloads::suiteRegistry()) {
        const Kernel kernel = workloads::buildEntry(entry, {128});
        // The fault-free configuration picks the faulty resources.
        auto probe = park(kernel, planParams());
        probe->mesa->offloadLoop(kernel.loopBody(), probe->emu->state(),
                                 kernel.parallel);
        const accel::AcceleratorConfig config =
            probe->mesa->accelerator().configured()
                ? probe->mesa->accelerator().config()
                : accel::AcceleratorConfig{};
        std::array<uint32_t, NumPlanes> got{};
        for (int p = 0; p < NumPlanes; ++p) {
            if (p != NoFault && config.slots.empty())
                continue; // never offloads: no plane to aim
            got[size_t(p)] = planeDigest(kernel, Plane(p), &config);
        }
        auto it = golden.find(entry.name);
        if (it == golden.end()) {
            ADD_FAILURE() << "no golden digests for " << entry.name;
            continue;
        }
        for (int p = 0; p < NumPlanes; ++p)
            EXPECT_EQ(got[size_t(p)], it->second[size_t(p)])
                << entry.name << " under " << plane_names[p] << ": 0x"
                << std::hex << got[size_t(p)];
    }
}

namespace
{

/** A configuration of @p kernel's loop as the controller builds it. */
accel::AcceleratorConfig
buildConfig(const Kernel &kernel, bool tiling)
{
    core::MesaParams params = planParams();
    params.iterative_optimization = false;
    params.enable_tiling = tiling;
    auto run = park(kernel, params);
    run->mesa->offloadLoop(kernel.loopBody(), run->emu->state(),
                           kernel.parallel);
    EXPECT_TRUE(run->mesa->accelerator().configured());
    return run->mesa->accelerator().config();
}

/** A bare device on a kernel image parked at its loop entry. */
struct Device
{
    std::unique_ptr<Parked> image;
    std::unique_ptr<accel::Accelerator> dev;
    riscv::ArchState state;

    explicit Device(const Kernel &kernel)
        : image(park(kernel, planParams())),
          dev(std::make_unique<accel::Accelerator>(
              accel::AccelParams::m128(), image->memory)),
          state(image->emu->state())
    {}

    /** Run and digest the outcome (result, state, memory). */
    uint32_t
    run(uint64_t max_iterations = ~uint64_t(0), uint64_t budget = 30'000)
    {
        last = dev->run(state, max_iterations, budget);
        Crc32 crc;
        addResult(crc, last);
        addState(crc, state);
        addMemory(crc, image->memory);
        return crc.value();
    }

    accel::AccelRunResult last;
};

} // namespace

TEST(ExecutionPlan, FaultsInstalledAfterConfigureApplyToTheNextRun)
{
    const Kernel kernel = workloads::kernelByName("nn", {128});
    const auto config = buildConfig(kernel, false);
    const FaultPlane plane = makePlane(Mixed, config);

    Device before(kernel);
    before.dev->injectFaults(plane);
    before.dev->configure(config);
    const uint32_t want = before.run();
    ASSERT_GT(before.last.faults_fired, 0u);

    Device after(kernel);
    after.dev->configure(config);
    after.dev->injectFaults(plane);
    EXPECT_EQ(after.run(), want);
    EXPECT_EQ(after.last.faults_fired, before.last.faults_fired);
}

TEST(ExecutionPlan, FaultsClearedAfterConfigureLeaveTheRunClean)
{
    const Kernel kernel = workloads::kernelByName("nn", {128});
    const auto config = buildConfig(kernel, false);

    Device clean(kernel);
    clean.dev->configure(config);
    const uint32_t want = clean.run();
    EXPECT_EQ(clean.last.faults_fired, 0u);

    Device cleared(kernel);
    cleared.dev->injectFaults(makePlane(Mixed, config));
    cleared.dev->configure(config);
    cleared.dev->clearFaults();
    EXPECT_EQ(cleared.run(), want);
    EXPECT_EQ(cleared.last.faults_fired, 0u);

    // Clearing between two runs of one configuration takes effect too:
    // the second run's faults count only what it fired itself.
    Device twice(kernel);
    twice.dev->injectFaults(makePlane(Mixed, config));
    twice.dev->configure(config);
    twice.run(8);
    EXPECT_GT(twice.last.faults_fired, 0u);
    twice.dev->clearFaults();
    twice.run();
    EXPECT_EQ(twice.last.faults_fired, 0u);
}

TEST(ExecutionPlan, ReconfigureUnderAnInstalledPlaneRebuildsThePlan)
{
    const Kernel kernel = workloads::kernelByName("nn", {128});
    const auto plain = buildConfig(kernel, false);
    const auto tiled = buildConfig(kernel, true);
    ASSERT_GT(tiled.instances.size(), plain.instances.size());
    const FaultPlane plane = makePlane(Mixed, plain);

    Device fresh(kernel);
    fresh.dev->injectFaults(plane);
    fresh.dev->configure(plain);
    const uint32_t want = fresh.run();
    ASSERT_GT(fresh.last.faults_fired, 0u);

    // The tiled plan (more instances, other routes) must not leak into
    // the plain one configured after it under the same plane.
    Device reconf(kernel);
    reconf.dev->injectFaults(plane);
    reconf.dev->configure(tiled);
    reconf.dev->configure(plain);
    EXPECT_EQ(reconf.run(), want);

    // Functional outcome after a tiled run on another image: the
    // plain configuration still sees exactly the fresh device's
    // faults (timing differs: the hierarchy is warm).
    Device warm(kernel);
    warm.dev->injectFaults(plane);
    warm.dev->configure(tiled);
    Device other(kernel);
    warm.dev->rebindMemory(other.image->memory);
    warm.dev->configure(tiled);
    auto other_state = other.state;
    warm.dev->run(other_state);
    warm.dev->rebindMemory(warm.image->memory);
    warm.dev->configure(plain);
    warm.run();
    EXPECT_EQ(warm.last.faults_fired, fresh.last.faults_fired);
    EXPECT_EQ(warm.last.iterations, fresh.last.iterations);
    EXPECT_EQ(warm.state, fresh.state);
    EXPECT_TRUE(sameMemory(warm.image->memory.snapshot(),
                           fresh.image->memory.snapshot()));
}

TEST(ExecutionPlan, StuckBranchLatchHoldsAcrossEpochs)
{
    const Kernel kernel = workloads::kernelByName("nn", {128});
    const auto config = buildConfig(kernel, false);
    FaultPlane plane;
    plane.stuck_branches.push_back({2});

    Device d(kernel);
    d.dev->injectFaults(plane);
    d.dev->configure(config);
    // Epoch 1: the loop tries to exit past iteration 2, the line
    // sticks and latches, and the watchdog cuts the hang.
    d.run(~uint64_t(0), 20'000);
    EXPECT_TRUE(d.last.watchdog_tripped);
    EXPECT_FALSE(d.last.completed);
    ASSERT_EQ(d.dev->faultPlane().stuck_branches.size(), 1u);
    EXPECT_EQ(d.dev->faultPlane().stuck_branches[0].from_iteration, 0u);

    // Epoch 2, after a reconfigure: the latched line pins the closing
    // branch from the first iteration, so the hang persists.
    d.dev->configure(config);
    d.run(~uint64_t(0), 20'000);
    EXPECT_TRUE(d.last.watchdog_tripped);
    EXPECT_GT(d.last.iterations, 0u);
    EXPECT_GT(d.last.faults_fired, 0u);

    // Short epochs (max_iterations) keep the latch too.
    d.run(4, 20'000);
    EXPECT_EQ(d.last.iterations, 4u);
    EXPECT_FALSE(d.last.completed);

    // Clearing the plane cures it: the overrun loop exits at entry.
    d.dev->clearFaults();
    d.run(~uint64_t(0), 20'000);
    EXPECT_TRUE(d.last.completed);
    EXPECT_FALSE(d.last.watchdog_tripped);
    EXPECT_EQ(d.last.faults_fired, 0u);
}
