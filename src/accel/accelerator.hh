/**
 * @file
 * Cycle-level model of the custom spatial accelerator (paper §5.2):
 * a grid of PEs joined by direct neighbor links and a half-ring NoC,
 * load/store entries sharing memory ports, a control network
 * asserting per-PE enable signals (predicated forward branches), and
 * per-PE latency counters that feed MESA's performance model.
 *
 * Execution follows the configured dataflow: each PE holds one
 * instruction (or, with the time-multiplexing extension, a few that
 * share its issue slots); an operation starts when its inputs arrive
 * and its guards allow it. Iterations either run back-to-back or
 * overlap (loop pipelining); tiled instances of the same SDFG run
 * concurrently, sharing memory ports (paper Fig. 6).
 */

#ifndef MESA_ACCEL_ACCELERATOR_HH
#define MESA_ACCEL_ACCELERATOR_HH

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "accel/config_types.hh"
#include "accel/fault_plane.hh"
#include "accel/params.hh"
#include "mem/cache.hh"
#include "mem/lsq.hh"
#include "mem/memory.hh"
#include "prof/profile.hh"
#include "riscv/emulator.hh"
#include "util/stats.hh"

namespace mesa::accel
{

/** Aggregate outcome and activity of one accelerated run. */
struct AccelRunResult
{
    uint64_t cycles = 0;      ///< Wall-clock cycles of the whole run.
    uint64_t iterations = 0;  ///< Total loop iterations (all tiles).
    bool completed = false;   ///< Loop exited via its branch condition.

    // Activity counters for the energy model (clock-gated PEs do not
    // accumulate busy cycles).
    uint64_t pe_busy_cycles = 0;
    uint64_t fp_busy_cycles = 0;
    uint64_t disabled_ops = 0; ///< Predicated-off executions.
    uint64_t noc_transfers = 0;
    uint64_t local_transfers = 0;
    uint64_t loads = 0;
    uint64_t stores = 0;
    uint64_t store_load_forwards = 0;
    uint64_t load_invalidations = 0;
    uint64_t dram_accesses = 0;

    /** Configured (powered) PEs vs the whole array: unused tiles are
     *  power-gated, so leakage scales with the active region. */
    uint64_t pes_used = 0;
    uint64_t pes_total = 0;

    /** The watchdog cycle budget cut this run off mid-loop. */
    bool watchdog_tripped = false;

    /** Installed fault-plane activations that corrupted a value. */
    uint64_t faults_fired = 0;

    double
    avgIterationCycles() const
    {
        return iterations ? double(cycles) / double(iterations) : 0.0;
    }

    /** Fold one epoch's counters into this aggregate. */
    void accumulate(const AccelRunResult &epoch);
};

/** The accelerator device. Configure once per region, then run. */
class Accelerator
{
  public:
    Accelerator(const AccelParams &params, mem::MainMemory &memory,
                const mem::HierarchyParams &mem_params = {});

    /** Install a configuration (T3); clears all run state. */
    void configure(const AcceleratorConfig &config);

    bool configured() const { return !config_.slots.empty(); }
    const AcceleratorConfig &config() const { return config_; }

    /**
     * Execute the configured loop starting from the CPU's
     * architectural state. Live-ins are latched from @p state; on
     * completion live-outs and the exit pc are written back.
     *
     * @param max_iterations stop early after this many total
     *        iterations (the controller uses this for profiling
     *        epochs between re-optimizations)
     * @param cycle_budget additional watchdog budget for this run
     *        (0 = none); the effective cap is the smaller of this and
     *        params().watchdog_cycles. The fault-tolerant controller
     *        threads its remaining per-offload budget through here.
     */
    AccelRunResult run(riscv::ArchState &state,
                       uint64_t max_iterations = ~uint64_t(0),
                       uint64_t cycle_budget = 0);

    const AccelParams &params() const { return params_; }
    const ic::Interconnect &interconnect() const { return *ic_; }
    mem::MemHierarchy &hierarchy() { return hierarchy_; }

    /**
     * Re-point the fabric's load/store path at a different main
     * memory. Takes effect at the next configure() (which rebuilds
     * every instance's load/store unit); never call it mid-run. This
     * is the service-layer decoupling: one persistent fabric instance
     * (warm hierarchy tags, fault plane, latency counters) serves a
     * stream of jobs that each bring their own memory image.
     */
    void rebindMemory(mem::MainMemory &memory) { memory_ = &memory; }

    /**
     * Timeline track this device emits its tile spans on. A scheduler
     * running several sub-array partitions concurrently gives each
     * its own track so their slices do not interleave on "accel".
     */
    void setTraceTrack(std::string track)
    {
        trace_track_ = std::move(track);
    }
    const std::string &traceTrack() const { return trace_track_; }

    // ----- fault injection (mesa_fault campaigns) -----

    /** Install a set of hardware defects; persists across configure().
     *  Physical coordinates — virtual slot positions are translated
     *  (time-multiplex fold, tile origin) before matching. */
    void injectFaults(const FaultPlane &plane);
    const FaultPlane &faultPlane() const { return fault_plane_; }
    void clearFaults() { fault_plane_ = FaultPlane{}; }

    /**
     * Built-in self test: exercises every PE and link with a known
     * pattern and reports the physical PEs whose datapath misbehaves
     * (a dead link implicates both endpoints). Transient upsets and
     * stuck control lines are, by nature, not reproducible under
     * BIST and are not reported. The controller feeds the result into
     * the mapper's blocked set so re-mapping routes around defects.
     */
    std::vector<ic::Coord> selfTest() const;

    /**
     * Attach (or detach, with nullptr) a cycle-attribution profile.
     * While attached, every run() decomposes its wall cycles into
     * compute / NoC-stall / mem-stall — summing exactly to the cycles
     * it returns — and feeds the spatial per-PE / per-link counters.
     * Detached profiling is zero-cost beyond one pointer test per
     * guarded site. The profile is resized to the physical grid.
     */
    void setProfile(prof::AccelProfile *profile);
    prof::AccelProfile *profile() const { return prof_; }

    /** Measured average execution latency of a node (PE counters). */
    double measuredNodeLatency(dfg::NodeId id) const;

    /** Measured average transfer latency into node id, operand 0/1. */
    double measuredEdgeLatency(dfg::NodeId id, int operand) const;

    /** Reset the latency counters (new profiling epoch). */
    void resetCounters();

  private:
    struct Instance
    {
        std::array<uint32_t, riscv::NumUnifiedRegs> regs{};
        std::array<uint64_t, riscv::NumUnifiedRegs> reg_avail{};
        std::unique_ptr<mem::LoadStoreUnit> lsu;
        /** Next-free cycle per NoC bus id, sized in configure() to the
         *  largest bus any route uses. */
        std::vector<uint64_t> bus_free;
        uint64_t next_floor = 0;
        uint64_t last_end = 0;
        uint64_t iterations = 0;
        bool done = false;

        // Per-instance cycle attribution (profiling only): the
        // exposed wall windows of this instance's iterations, split
        // compute / NoC stall / mem stall. The critical (slowest)
        // instance's split is the run's device-cycle attribution.
        uint64_t prof_compute = 0;
        uint64_t prof_noc = 0;
        uint64_t prof_mem = 0;
    };

    /**
     * Profiling scratch: how each slot's completion this iteration
     * was produced, enough to walk the critical path backwards.
     */
    struct ProfEdge
    {
        int32_t src = -1;  ///< Producer slot index.
        uint64_t t0 = 0;   ///< Producer completion (segment start).
        uint64_t arr = 0;  ///< Arrival at the consumer.
        bool noc = false;  ///< Shared-bus or fallback-bus transfer.
        bool used = false;
    };

    struct ProfSlot
    {
        uint64_t ready = 0; ///< Service start (== done when disabled).
        uint64_t done = 0;
        bool mem = false;   ///< Service segment is memory time.
        std::array<ProfEdge, 3> e; ///< Operand 0/1, max guard input.
    };

    /**
     * A transfer into a slot, fixed by the configuration: the
     * producer, the link latency and the shared bus it occupies.
     */
    struct Route
    {
        int32_t src = -1;      ///< Producer slot; -1 = no producer.
        uint32_t latency = 0;  ///< Transfer cycles before bus wait.
        int32_t bus = -1;      ///< Shared NoC bus id; -1 = direct links.
        bool fallback = false; ///< Unmapped endpoint: secondary bus.
    };

    /**
     * The execution plan of one slot: everything configure() can
     * resolve once so the device loop keeps only dynamic work.
     */
    struct SlotPlan
    {
        Route src1;
        Route src2;
        Route prev;               ///< Forwarded old destination value.
        uint32_t guard_begin = 0; ///< Guard routes [begin, end) in
        uint32_t guard_end = 0;   ///< guard_routes_.
        uint32_t pe_key = 0;      ///< Column in the pe_free_ rows.
        int32_t imm = 0;          ///< Immediate, overrides applied.
        uint64_t latency = 0;     ///< Integer op latency.
        uint64_t busy = 0;        ///< PE busy cycles per execution.
        riscv::OpClass cls{};
        bool fp = false;          ///< Busy cycles count as FP activity.
    };

    /** Permanent defects (stuck PEs, dead links) resolved onto one
     *  slot of one tile instance. */
    struct FaultMask
    {
        uint32_t pe = 0;   ///< XOR on the slot's produced value.
        uint32_t src1 = 0; ///< XOR on operand 1 as it arrives.
        uint32_t src2 = 0; ///< XOR on operand 2 as it arrives.
    };

    /** One iteration of one instance; returns loop-continue. */
    bool runIteration(Instance &inst, AccelRunResult &result);

    /**
     * Decompose one iteration's exposed wall window [lo, end) of
     * @p inst by walking the critical path backwards through the
     * recorded ProfSlot bindings (see prof/profile.hh for the model).
     * The attributed segments tile the window exactly.
     */
    void attributeIteration(Instance &inst, uint64_t lo, uint64_t end);

    /** Build the execution plan of config_ (routes, keys, classes,
     *  physical positions). */
    void buildPlan();

    /** Resolve the installed stuck PEs and dead links onto
     *  fault_masks_ (left empty when there are none). */
    void resolveFaults();

    const AccelParams params_;
    mem::MainMemory *memory_; ///< Rebindable (see rebindMemory).
    mem::MemHierarchy hierarchy_;
    mem::PortPool ports_;
    std::unique_ptr<ic::Interconnect> ic_;

    AcceleratorConfig config_;
    std::vector<Instance> instances_;
    std::string trace_track_ = "accel";
    FaultPlane fault_plane_;
    prof::AccelProfile *prof_ = nullptr;
    std::vector<ProfSlot> prof_slot_; ///< Sized with the config.

    // The execution plan (see SlotPlan). Flat tables whose capacity is
    // reused across configure() calls.
    std::vector<SlotPlan> plan_;
    std::vector<Route> guard_routes_;
    /** Physical PE of each slot: [instance * slots + slot]. */
    std::vector<ic::Coord> phys_;
    /** [instance * slots + slot]; empty without permanent defects. */
    std::vector<FaultMask> fault_masks_;
    std::vector<std::pair<int, int32_t>> live_outs_; ///< (reg, writer)

    /** Per-PE busy tracking (pipelining resource constraint), one row
     *  of pe_keys_ per instance. Mapped slots key by flattened virtual
     *  position (time-multiplexed nodes share a key); unmapped slots
     *  each get a private key past the mapped ones. */
    std::vector<uint64_t> pe_free_;
    size_t pe_keys_ = 0;

    // Per-iteration scratch, sized once in configure() and reused so
    // the per-cycle loop performs no heap allocation.
    std::vector<uint32_t> iter_out_;
    std::vector<uint64_t> iter_done_;
    std::vector<char> iter_taken_;
    std::vector<std::pair<int, uint64_t>> iter_group_done_;

    // Performance counters (paper §5.2): per-node and per-edge.
    std::vector<Average> node_latency_;
    std::vector<Average> edge_latency1_;
    std::vector<Average> edge_latency2_;
};

} // namespace mesa::accel

#endif // MESA_ACCEL_ACCELERATOR_HH
