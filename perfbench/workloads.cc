#include "workloads.hh"

#include <algorithm>
#include <numeric>

#include "cpu/system.hh"
#include "fault/campaign.hh"
#include "fault/checkpoint.hh"
#include "fault/injector.hh"
#include "mesa/controller.hh"
#include "prof/profile.hh"
#include "riscv/emulator.hh"
#include "service/backend.hh"
#include "service/service.hh"
#include "service/traffic.hh"
#include "util/logging.hh"
#include "util/parallel.hh"
#include "util/rng.hh"
#include "util/stats_registry.hh"
#include "workloads/kernel.hh"
#include "workloads/suite.hh"

#include "spans.hh"

namespace perfbench
{

using namespace mesa;

namespace
{

/** `mesa_run --scale` of the run workload. */
constexpr uint64_t kRunScale = 8192;

/** `mesa_faultsim --scale` default and the per-job injection count:
 *  ten injections give every fault kind twice. */
constexpr uint64_t kCampaignScale = 128;
constexpr int kCampaignInjections = 10;
constexpr int kCampaignThreads = 2;

/** Every kParallelSample-th traced campaign job is rerun at one
 *  thread to measure parallel.speedup. */
constexpr size_t kParallelSample = 4;

/** Per-pass seed: pass p of seed s draws from an independent stream. */
uint64_t
passSeed(uint64_t seed, uint64_t pass)
{
    return SplitMix64(seed).fork(pass + 1).next();
}

/** FNV-1a accumulator for content digests. */
struct Fnv
{
    uint64_t h = 0xcbf29ce484222325ull;
    void
    add(uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xff;
            h *= 0x100000001b3ull;
        }
    }
    void
    add(const std::string &s)
    {
        for (char c : s) {
            h ^= uint64_t(uint8_t(c));
            h *= 0x100000001b3ull;
        }
        add(s.size());
    }
};

/** Step bound the fault campaign gives a kernel's golden run. */
uint64_t
stepBound(const workloads::Kernel &kernel)
{
    return 4 * kernel.iterations * kernel.program.words.size() +
           1'000'000;
}

/** Golden reference: the kernel start-to-halt on the emulator. */
struct Golden
{
    riscv::ArchState state;
    fault::MemSnapshot memory;
    uint64_t instructions = 0;
    bool halted = false;
};

Golden
runGolden(const workloads::Kernel &kernel)
{
    mem::MainMemory memory;
    kernel.init_data(memory);
    cpu::loadProgram(memory, kernel.program);
    riscv::Emulator emu(memory);
    emu.reset(kernel.program.base_pc);
    kernel.fullRange()(emu.state());
    {
        Scope s("riscv.golden");
        emu.run(stepBound(kernel));
    }
    Golden g;
    g.state = emu.state();
    g.memory = memory.snapshot();
    g.instructions = emu.instret();
    g.halted = emu.halted();
    return g;
}

/** Step the emulator to the hot loop's first instruction. */
void
advanceToLoop(riscv::Emulator &emu, const workloads::Kernel &kernel)
{
    for (uint64_t steps = 0; !emu.halted() &&
                             emu.state().pc != kernel.loop_start &&
                             steps < 1'000'000;
         ++steps)
        emu.step();
}

// ---------------------------------------------------------------- run

/**
 * `mesa_run --checked --accel M-128 --scale 8192 --kernel K` per job:
 * the 16-core baseline, the single-core baseline, and a checked
 * transparent MESA run, over every suite kernel in a seeded order.
 */
class RunWorkload : public Workload
{
  public:
    void
    setUp(uint64_t seed, uint64_t pass) override
    {
        kernels_ = workloads::selectKernels({}, {kRunScale});
        goldens_.clear();
        for (const auto &k : kernels_)
            goldens_.push_back(runGolden(k));
        order_.resize(kernels_.size());
        std::iota(order_.begin(), order_.end(), size_t(0));
        SplitMix64 rng(passSeed(seed, pass));
        for (size_t i = order_.size(); i > 1; --i)
            std::swap(order_[i - 1], order_[rng.below(i)]);
    }

    void
    runPass(Tally &tally, bool traced) override
    {
        counts_ = {};
        for (size_t ki : order_)
            runJob(kernels_[ki], goldens_[ki], tally, traced);
    }

    Counts simCounts() const override { return counts_; }

    uint64_t
    contentDigest() const override
    {
        Fnv f;
        for (size_t ki : order_)
            f.add(kernels_[ki].name);
        return f.h;
    }

    void
    layerMetrics(size_t since, Metrics &out) const override
    {
        const SpanLog &log = spanLog();
        const double single = log.totalMs("cpu.runSingleCore", since);
        const double multi = log.totalMs("cpu.runMulticore", since);
        const double jobs = log.totalMs("run.job", since);
        out["cpu.single_ms"] =
            median(log.durationsMs("cpu.runSingleCore", since));
        out["cpu.multicore_ms"] =
            median(log.durationsMs("cpu.runMulticore", since));
        out["cpu.ns_per_sim_instr"] =
            baseline_instructions_
                ? (single + multi) * 1e6 / double(baseline_instructions_)
                : 0.0;
        out["mesa.transparent_ms"] =
            median(log.durationsMs("mesa.runTransparent", since));
        out["riscv.golden_ms"] =
            median(log.durationsMs("riscv.golden", since));
        const double golden_ms = log.totalMs("riscv.golden", since);
        out["riscv.mips"] = golden_ms > 0.0
                                ? double(golden_instructions_) /
                                      (golden_ms * 1e3)
                                : 0.0;
        out["run.cpu_share"] = jobs > 0.0 ? (single + multi) / jobs : 0.0;
    }

  private:
    void
    runJob(const workloads::Kernel &kernel, const Golden &golden,
           Tally &tally, bool traced)
    {
        const uint64_t job = ++jobs_;
        const Clock::time_point t0 = Clock::now();
        mem::MainMemory mesa_memory;
        StatsRegistry stats;
        core::TransparentRunResult mesa_run;
        cpu::RunResult multi, single;
        {
            Scope span("run.job", job);
            {
                mem::MainMemory memory;
                {
                    Scope s("workloads.image");
                    kernel.init_data(memory);
                    cpu::loadProgram(memory, kernel.program);
                }
                cpu::MulticoreParams params;
                params.num_cores = 16;
                const auto threads =
                    kernel.parallel
                        ? kernel.chunks(params.num_cores)
                        : std::vector<cpu::ThreadInit>{
                              kernel.fullRange()};
                Scope s("cpu.runMulticore");
                multi = cpu::runMulticore(params, memory, kernel.program,
                                          threads);
            }
            {
                mem::MainMemory memory;
                {
                    Scope s("workloads.image");
                    kernel.init_data(memory);
                    cpu::loadProgram(memory, kernel.program);
                }
                Scope s("cpu.runSingleCore");
                single = cpu::runSingleCore(cpu::defaultCore(), {},
                                            memory, kernel.program,
                                            kernel.fullRange());
            }
            {
                Scope s("workloads.image");
                kernel.init_data(mesa_memory);
            }
            core::MesaParams params;
            params.accel = accel::AccelParams::m128();
            params.fault.enabled = true;
            params.fault.checked_mode = true;
            params.fault.seed = 1;
            core::MesaController mesa(params, mesa_memory);
            mesa.attachStats(&stats);
            mesa.accelerator().hierarchy().registerStats(stats,
                                                         "accel.mem.");
            {
                Scope s("mesa.runTransparent");
                mesa_run = mesa.runTransparent(
                    kernel.program, kernel.fullRange(), kernel.parallel);
            }
            mesa.attachStats(nullptr);
            stats.materialize();
        }
        const double ms = msSince(t0);

        const bool ok =
            golden.halted && mesa_run.halted &&
            mesa_run.final_state == golden.state &&
            fault::memorySnapshotsEqual(mesa_memory.snapshot(),
                                        golden.memory) &&
            stats.value("mesa.fault.mismatches") == 0.0;
        tally.job_ms.push_back(ms);
        tally.busy_ms += ms;
        ++tally.attempted;
        tally.failed += ok ? 0 : 1;

        counts_["sim.run.single_cycles"] += single.cycles;
        counts_["sim.run.multicore_cycles"] += multi.cycles;
        counts_["sim.run.mesa_cycles"] += mesa_run.total_cycles;
        counts_["sim.run.offloads"] += mesa_run.offloads.size();
        counts_["sim.run.accel_iterations"] +=
            mesa_run.acceleratedIterations();
        counts_["sim.run.cpu_instructions"] +=
            single.instructions + multi.instructions;
        if (traced) {
            baseline_instructions_ +=
                single.instructions + multi.instructions;
            // One job per kernel per pass, so this sums the pass's
            // riscv.golden spans' instructions.
            golden_instructions_ += golden.instructions;
        }
    }

    std::vector<workloads::Kernel> kernels_;
    std::vector<Golden> goldens_;
    std::vector<size_t> order_;
    Counts counts_;
    uint64_t jobs_ = 0;
    uint64_t baseline_instructions_ = 0;
    uint64_t golden_instructions_ = 0;
};

// -------------------------------------------------------------- serve

/**
 * `mesa_serve` defaults (Poisson arrivals, 64 tenants, 2 direct-mode
 * backends, M-128, 32-256-iteration jobs over the full roster); the
 * traffic seed advances on every pass, and each completed service job
 * is one benchmark job.
 */
class ServeWorkload : public Workload
{
  public:
    void
    setUp(uint64_t seed, uint64_t pass) override
    {
        params_ = service::ServiceParams{};
        params_.traffic.seed = passSeed(seed, pass);
        Scope s("service.openLoopArrivals");
        arrivals_ =
            service::TrafficGenerator(params_.traffic).openLoopArrivals();
    }

    void
    runPass(Tally &tally, bool traced) override
    {
        std::vector<Clock::time_point> stamps;
        stamps.reserve(arrivals_.size());
        service::ServiceParams params = params_;
        params.progress_every = 1;
        params.progress = [&stamps](const service::ServiceProgress &) {
            stamps.push_back(Clock::now());
        };
        const Clock::time_point t0 = Clock::now();
        service::ServiceResult result;
        {
            Scope s("service.runService");
            result = service::runService(params);
        }
        const double ms = msSince(t0);
        Clock::time_point prev = t0;
        for (const auto &t : stamps) {
            tally.job_ms.push_back(
                std::chrono::duration<double, std::milli>(t - prev)
                    .count());
            prev = t;
        }
        tally.busy_ms += ms;

        const bool pass_ok = result.invariant_violations == 0 &&
                             result.accepted == result.completed &&
                             result.submitted == arrivals_.size() &&
                             stamps.size() == result.completed;
        tally.attempted += arrivals_.size();
        tally.failed += pass_ok ? arrivals_.size() - result.completed
                                : arrivals_.size();

        std::vector<uint64_t> latency;
        for (const auto &r : result.records)
            latency.push_back(r.latency());
        std::sort(latency.begin(), latency.end());
        counts_ = {};
        counts_["sim.serve.completed"] = result.completed;
        counts_["sim.serve.rejected"] = result.rejectedTotal();
        counts_["sim.serve.horizon_cycles"] = result.horizon_cycles;
        counts_["sim.serve.latency_p99_cycles"] =
            latency.empty()
                ? 0
                : latency[(latency.size() * 99 + 99) / 100 - 1];
        counts_["sim.serve.invariant_violations"] =
            result.invariant_violations;

        if (traced) {
            for (const auto &b : result.backends) {
                cache_hits_ += b.cache_hits;
                cache_lookups_ += b.cache_hits + b.cache_misses;
            }
            completed_ += result.completed;
            tally.failed += replay(result);
            probe(result);
        }
    }

    Counts simCounts() const override { return counts_; }

    uint64_t
    contentDigest() const override
    {
        Fnv f;
        for (const auto &j : arrivals_) {
            f.add(j.kernel);
            f.add(j.iterations);
            f.add(uint64_t(j.tenant));
            f.add(j.arrival_cycle);
        }
        return f.h;
    }

    void
    layerMetrics(size_t since, Metrics &out) const override
    {
        const SpanLog &log = spanLog();
        const double execute = log.totalMs("service.execute", since);
        const double loop = log.totalMs("service.runService", since);
        out["service.traffic_ms"] =
            median(log.durationsMs("service.openLoopArrivals", since));
        out["service.execute_ms"] =
            median(log.durationsMs("service.execute", since));
        out["service.loop_ms"] =
            completed_ ? (loop - execute) / double(completed_) : 0.0;
        out["service.config_cache_hit_rate"] =
            cache_lookups_ ? double(cache_hits_) / double(cache_lookups_)
                           : 0.0;
        out["service.config_cache_lookups"] = double(cache_lookups_);
        out["workloads.image_ms"] =
            median(log.durationsMs("workloads.image", since));
        out["mesa.translate_ms"] =
            median(log.durationsMs("mesa.translateOnly", since));
        out["mesa.offload_ms"] =
            median(log.durationsMs("mesa.offloadLoop", since));
        out["mem.snapshot_ms"] =
            median(log.durationsMs("mem.snapshot", since));
        const double offload = log.totalMs("mesa.offloadLoop", since);
        out["serve.fixed_share"] =
            execute > 0.0 ? 1.0 - offload / execute : 0.0;
    }

  private:
    /**
     * Drive ServiceBackend::execute directly over the completed jobs,
     * in dispatch order on fresh backends — the same call sequence
     * runService made — and count jobs whose digests differ.
     */
    uint64_t
    replay(const service::ServiceResult &result)
    {
        std::vector<std::unique_ptr<service::ServiceBackend>> backends;
        for (int b = 0; b < params_.backends; ++b)
            backends.push_back(std::make_unique<service::ServiceBackend>(
                b, params_.backend));
        uint64_t mismatches = 0;
        for (const auto &rec : result.records) {
            service::JobRecord again;
            {
                Scope s("service.execute", rec.job.id);
                again = backends[size_t(rec.backend)]->execute(
                    rec.job, rec.dispatch_cycle);
            }
            if (again.state_digest != rec.state_digest ||
                again.mem_digest != rec.mem_digest ||
                again.service_cycles != rec.service_cycles)
                ++mismatches;
        }
        return mismatches;
    }

    /**
     * Per job, the layer calls execute() is made of: build the image,
     * translate cold on a fresh controller, offload on a persistent
     * warm one (as a backend does), snapshot and compare memory.
     */
    void
    probe(const service::ServiceResult &result)
    {
        mem::MainMemory boot;
        core::MesaController warm(params_.backend.mesa, boot);
        prof::AccelProfile profile;
        warm.attachProfile(&profile);
        for (const auto &rec : result.records) {
            const auto &entry = registryEntry(rec.job.kernel);
            mem::MainMemory memory;
            workloads::Kernel kernel;
            {
                Scope s("workloads.image", rec.job.id);
                kernel = entry.make(rec.job.iterations);
                kernel.init_data(memory);
                cpu::loadProgram(memory, kernel.program);
            }
            if (!kernel.mesa_supported)
                continue;
            const auto body = kernel.loopBody();
            {
                mem::MainMemory scratch;
                core::MesaController cold(params_.backend.mesa, scratch);
                Scope s("mesa.translateOnly", rec.job.id);
                cold.translateOnly(body, kernel.parallel);
            }
            riscv::Emulator emu(memory);
            emu.reset(kernel.program.base_pc);
            kernel.fullRange()(emu.state());
            advanceToLoop(emu, kernel);
            warm.rebindMemory(memory);
            {
                Scope s("mesa.offloadLoop", rec.job.id);
                warm.offloadLoop(body, emu.state(), kernel.parallel);
            }
            warm.rebindMemory(boot);
            const fault::MemSnapshot before = memory.snapshot();
            Scope s("mem.snapshot", rec.job.id);
            fault::memorySnapshotsEqual(memory.snapshot(), before);
        }
    }

    static const workloads::SuiteEntry &
    registryEntry(const std::string &name)
    {
        for (const auto &e : workloads::suiteRegistry())
            if (name == e.name)
                return e;
        fatal("perfbench: unknown kernel '", name, "'");
    }

    service::ServiceParams params_;
    std::vector<service::OffloadJob> arrivals_;
    Counts counts_;
    uint64_t cache_hits_ = 0;
    uint64_t cache_lookups_ = 0;
    uint64_t completed_ = 0;
};

// ----------------------------------------------------------- campaign

const char *const kKindSpan[fault::FaultKindCount] = {
    "fault.offload.config", "fault.offload.transient",
    "fault.offload.stuck_pe", "fault.offload.dead_link",
    "fault.offload.hang"};

const char *const kKindMetric[fault::FaultKindCount] = {
    "fault.offload_ms.config", "fault.offload_ms.transient",
    "fault.offload_ms.stuck_pe", "fault.offload_ms.dead_link",
    "fault.offload_ms.hang"};

/** One rebuilt injection's classification, for the cross-check. */
struct Outcome
{
    bool detected = false;
    bool match = false;
    bool remap_checked = false;
    bool remap_clean = false;
    uint64_t hang_iterations = 0;
};

/**
 * A checked `mesa_faultsim` campaign per job: one kernel, 10
 * injections on 2 worker threads, the default watchdog. Jobs cycle
 * through the suite; the campaign seed advances on every pass.
 */
class CampaignWorkload : public Workload
{
  public:
    void
    setUp(uint64_t seed, uint64_t pass) override
    {
        seed_ = passSeed(seed, pass);
        kernels_ = workloads::selectKernels({}, {kCampaignScale});
    }

    void
    runPass(Tally &tally, bool traced) override
    {
        counts_ = {};
        for (size_t ki = 0; ki < kernels_.size(); ++ki) {
            const uint64_t job = ++jobs_;
            fault::CampaignParams params = paramsFor(kernels_[ki]);
            const Clock::time_point t0 = Clock::now();
            fault::CampaignResult r;
            {
                Scope s("fault.runCampaign", job);
                r = fault::runCampaign(params);
            }
            const double ms = msSince(t0);
            tally.job_ms.push_back(ms);
            tally.busy_ms += ms;
            ++tally.attempted;
            bool ok = r.clean() &&
                      r.totalInjections() == kCampaignInjections;

            counts_["sim.campaign.injections"] += r.totalInjections();
            counts_["sim.campaign.detected"] += r.totalDetected();
            counts_["sim.campaign.recovered"] += r.totalRecovered();
            counts_["sim.campaign.benign"] += r.totalBenign();
            counts_["sim.campaign.corrupted"] += r.totalCorrupted();
            counts_["sim.campaign.silent"] += r.totalSilent();
            counts_["sim.campaign.remap_checks"] += r.totalRemapChecks();
            counts_["sim.campaign.remap_clean"] += r.totalRemapClean();

            if (traced) {
                ok = ok && rebuilt(kernels_[ki], params, r, job);
                if (ki % kParallelSample == 0) {
                    params.jobs = 1;
                    const Clock::time_point t1 = Clock::now();
                    const fault::CampaignResult serial =
                        fault::runCampaign(params);
                    speedup_.push_back(msSince(t1) / ms);
                    ok = ok && serial.statsSnapshot() == r.statsSnapshot();
                }
            }
            tally.failed += ok ? 0 : 1;
        }
    }

    Counts simCounts() const override { return counts_; }

    uint64_t
    contentDigest() const override
    {
        Fnv f;
        f.add(seed_);
        for (const auto &k : kernels_)
            f.add(k.name);
        return f.h;
    }

    void
    layerMetrics(size_t since, Metrics &out) const override
    {
        const SpanLog &log = spanLog();
        for (int k = 0; k < fault::FaultKindCount; ++k)
            out[kKindMetric[k]] =
                median(log.durationsMs(kKindSpan[k], since));
        const double hang_ms = log.totalMs(
            kKindSpan[int(fault::FaultKind::OffloadHang)], since);
        out["accel.ns_per_iteration"] =
            hang_iterations_ ? hang_ms * 1e6 / double(hang_iterations_)
                             : 0.0;
        const double injections =
            log.totalMs("fault.injection", since);
        out["campaign.hang_share"] =
            injections > 0.0 ? hang_ms / injections : 0.0;
        out["parallel.speedup"] = median(speedup_);
    }

  private:
    fault::CampaignParams
    paramsFor(const workloads::Kernel &kernel) const
    {
        fault::CampaignParams p;
        p.seed = seed_;
        p.injections_per_kernel = kCampaignInjections;
        p.scale = {kCampaignScale};
        p.kernels = {kernel.name};
        p.checked = true;
        p.accel = accel::AccelParams::m128();
        p.jobs = kCampaignThreads;
        return p;
    }

    /**
     * The job again, rebuilt from the fault layer's public calls with
     * a span around each offload; true iff its classification counts
     * equal runCampaign's.
     */
    bool
    rebuilt(const workloads::Kernel &kernel,
            const fault::CampaignParams &params,
            const fault::CampaignResult &expect, uint64_t job)
    {
        const Golden golden = runGolden(kernel);
        const auto body = kernel.loopBody();
        std::vector<Outcome> outcomes(kCampaignInjections);
        Scope span("fault.rebuilt", job);
        parallelForOrdered(
            outcomes.size(), params.jobs, [&](size_t j) {
                outcomes[j] = inject(kernel, body, golden, params,
                                     int(j), job, span.id());
            });
        int detected = 0, recovered = 0, benign = 0, corrupted = 0,
            silent = 0, checks = 0, clean = 0;
        for (const Outcome &o : outcomes) {
            detected += o.detected;
            recovered += o.match && o.detected;
            benign += o.match && !o.detected;
            corrupted += !o.match && o.detected;
            silent += !o.match && !o.detected;
            checks += o.remap_checked;
            clean += o.remap_clean;
            hang_iterations_ += o.hang_iterations;
        }
        return detected == expect.totalDetected() &&
               recovered == expect.totalRecovered() &&
               benign == expect.totalBenign() &&
               corrupted == expect.totalCorrupted() &&
               silent == expect.totalSilent() &&
               checks == expect.totalRemapChecks() &&
               clean == expect.totalRemapClean();
    }

    /** One injection as fault::runCampaign makes it (kernel index 0:
     *  every job is a one-kernel campaign). */
    static Outcome
    inject(const workloads::Kernel &kernel,
           const std::vector<riscv::Instruction> &body,
           const Golden &golden, const fault::CampaignParams &params,
           int j, uint64_t job, uint64_t parent)
    {
        Scope span("fault.injection", job, parent);
        const auto kind = fault::FaultKind(j % fault::FaultKindCount);
        SplitMix64 rng =
            SplitMix64(params.seed).fork(1).fork(uint64_t(j) + 1);

        mem::MainMemory memory;
        {
            Scope s("workloads.image", job);
            kernel.init_data(memory);
            cpu::loadProgram(memory, kernel.program);
        }
        core::MesaParams mp;
        mp.accel = params.accel;
        mp.fault.enabled = true;
        mp.fault.checked_mode = params.checked;
        mp.fault.watchdog_cycles = params.watchdog_cycles;
        mp.fault.quarantine = params.quarantine;
        mp.fault.seed = params.seed;
        core::MesaController mesa(mp, memory);
        StatsRegistry reg;
        mesa.attachStats(&reg);

        riscv::Emulator emu(memory);
        emu.reset(kernel.program.base_pc);
        kernel.fullRange()(emu.state());
        advanceToLoop(emu, kernel);

        accel::FaultPlane plane;
        switch (kind) {
          case fault::FaultKind::ConfigBitFlip: {
            auto fired = std::make_shared<bool>(false);
            SplitMix64 crng = rng.fork(3);
            mesa.setConfigCorruptor(
                [fired, crng](accel::AcceleratorConfig &cfg) mutable {
                    if (*fired)
                        return;
                    *fired = true;
                    fault::corruptConfig(cfg, crng);
                });
            break;
          }
          case fault::FaultKind::TransientDatapath:
            plane.transients.push_back(
                fault::makeTransient(rng, body.size(), 64));
            break;
          case fault::FaultKind::StuckPe:
            plane.stuck_pes.push_back(
                fault::makeStuckPe(rng, params.accel));
            break;
          case fault::FaultKind::DeadLink:
            plane.dead_links.push_back(
                fault::makeDeadLink(rng, params.accel));
            break;
          case fault::FaultKind::OffloadHang:
            plane.stuck_branches.push_back(fault::makeHang(rng));
            break;
        }
        if (!plane.empty())
            mesa.accelerator().injectFaults(plane);

        Outcome out;
        std::optional<core::OffloadStats> os;
        {
            Scope s(kKindSpan[int(kind)], job);
            os = mesa.offloadLoop(body, emu.state(), kernel.parallel);
        }
        if (kind == fault::FaultKind::OffloadHang && os)
            out.hang_iterations = os->accel_iterations;
        {
            Scope s("riscv.resume", job);
            emu.run(stepBound(kernel));
        }
        out.detected = reg.value("mesa.fault.crc_failures") +
                           reg.value("mesa.fault.watchdog_trips") +
                           reg.value("mesa.fault.mismatches") >
                       0.0;
        {
            Scope s("mem.snapshot", job);
            out.match = emu.state() == golden.state &&
                        fault::memorySnapshotsEqual(memory.snapshot(),
                                                    golden.memory);
        }

        const bool permanent = kind == fault::FaultKind::StuckPe ||
                               kind == fault::FaultKind::DeadLink;
        if (permanent && !mesa.faultyPes().empty()) {
            Scope s("fault.remap", job);
            kernel.init_data(memory);
            cpu::loadProgram(memory, kernel.program);
            riscv::Emulator emu2(memory);
            emu2.reset(kernel.program.base_pc);
            kernel.fullRange()(emu2.state());
            advanceToLoop(emu2, kernel);
            auto os2 =
                mesa.offloadLoop(body, emu2.state(), kernel.parallel);
            if (os2 && os2->accel_iterations > 0) {
                out.remap_checked = true;
                out.remap_clean = placementAvoids(
                    mesa.accelerator().config(), mesa.faultyPes(),
                    params.accel.rows);
            }
        }
        return out;
    }

    /** Does the installed configuration avoid every quarantined PE? */
    static bool
    placementAvoids(const accel::AcceleratorConfig &config,
                    const fault::FaultyPeMap &faulty, int device_rows)
    {
        for (const auto &slot : config.slots) {
            ic::Coord base = slot.pos;
            if (config.time_multiplex > 1)
                base.r %= device_rows;
            for (const auto &inst : config.instances) {
                const ic::Coord phys{base.r + inst.origin.r,
                                     base.c + inst.origin.c};
                if (faulty.faulty(phys))
                    return false;
            }
        }
        return true;
    }

    uint64_t seed_ = 0;
    std::vector<workloads::Kernel> kernels_;
    Counts counts_;
    uint64_t jobs_ = 0;
    uint64_t hang_iterations_ = 0;
    std::vector<double> speedup_;
};

} // namespace

std::unique_ptr<Workload>
makeWorkload(const std::string &name)
{
    if (name == "run")
        return std::make_unique<RunWorkload>();
    if (name == "serve")
        return std::make_unique<ServeWorkload>();
    if (name == "campaign")
        return std::make_unique<CampaignWorkload>();
    return nullptr;
}

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"run", "serve",
                                                   "campaign"};
    return names;
}

} // namespace perfbench
