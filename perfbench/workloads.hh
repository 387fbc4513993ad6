/**
 * @file
 * The benchmark's three closed-loop workloads. Each one turns the
 * benchmark seed into a list of jobs per pass, runs them through the
 * simulator's public calls, checks every job's output, and tallies
 * host time per job. A traced pass runs the same jobs with spans on
 * and then drives the layers' public calls directly (the "probes")
 * to split the job into per-layer host time.
 */

#ifndef MESA_PERFBENCH_WORKLOADS_HH
#define MESA_PERFBENCH_WORKLOADS_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench
{

/** Job outcomes and host times accumulated over passes. */
struct Tally
{
    std::vector<double> job_ms;   ///< One entry per completed job.
    double busy_ms = 0.0;         ///< Host time inside the job calls.
    uint64_t attempted = 0;
    uint64_t failed = 0;
    std::vector<double> setup_ms; ///< One entry per pass.
    uint64_t passes = 0;
};

/** Exact simulated counts ("sim.*"), keyed by name. */
using Counts = std::map<std::string, uint64_t>;

/** Per-layer metrics by name. */
using Metrics = std::map<std::string, double>;

class Workload
{
  public:
    virtual ~Workload() = default;

    /** Build pass @p pass's inputs from @p seed (timed as set-up). */
    virtual void setUp(uint64_t seed, uint64_t pass) = 0;

    /** Run and check every job of the pass set up last. A traced
     *  pass also runs the layer probes after the jobs. */
    virtual void runPass(Tally &tally, bool traced) = 0;

    /** Exact simulated counts summed over the last pass. */
    virtual Counts simCounts() const = 0;

    /** Hash of the last pass's job contents (not of any result). */
    virtual uint64_t contentDigest() const = 0;

    /** Per-layer metrics from the spans recorded since span index
     *  @p since (the traced passes of this workload). */
    virtual void layerMetrics(size_t since, Metrics &out) const = 0;
};

/** "run", "serve" or "campaign"; nullptr for any other name. */
std::unique_ptr<Workload> makeWorkload(const std::string &name);

const std::vector<std::string> &workloadNames();

} // namespace perfbench

#endif // MESA_PERFBENCH_WORKLOADS_HH
