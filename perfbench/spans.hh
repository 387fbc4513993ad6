/**
 * @file
 * Benchmark-side host-time spans. The driver wraps each call into a
 * simulator layer's public function in a Scope; while the log is
 * enabled the scope records (name, start, end, parent span, job id,
 * thread) in memory, and the log is written out once the run ends —
 * as a per-name self-time table and as Chrome trace-event JSON. While
 * the log is disabled a Scope costs one branch, so the untraced job
 * path and the traced one execute the same calls.
 */

#ifndef MESA_PERFBENCH_SPANS_HH
#define MESA_PERFBENCH_SPANS_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench
{

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed since @p t0. */
inline double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

/** One finished span; times are microseconds since the log's epoch. */
struct Span
{
    const char *name = "";
    uint64_t id = 0;
    uint64_t parent = 0; ///< 0 = root.
    uint64_t job = 0;    ///< Spans of one job share this id.
    int tid = 0;
    double start_us = 0.0;
    double dur_us = 0.0;
};

/** Per-name aggregate of the self-time table. */
struct SpanTotals
{
    std::string name;
    uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0; ///< total minus same-thread children.
};

/** Process-wide in-memory span log (thread-safe appends). */
class SpanLog
{
  public:
    void
    enable(bool on)
    {
        enabled_.store(on, std::memory_order_relaxed);
    }
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Durations (ms) of every span called @p name, in record order,
     *  from span index @p since on. */
    std::vector<double> durationsMs(const std::string &name,
                                    size_t since = 0) const;

    /** Sum of durationsMs(name, since). */
    double totalMs(const std::string &name, size_t since = 0) const;

    /** Self time per span name over span indices [since, until),
     *  sorted by self time, descending. A child on another thread (a
     *  parallel shard) does not reduce its parent's self time: the
     *  parent's thread was waiting, not working elsewhere. */
    std::vector<SpanTotals> selfTimes(size_t since, size_t until) const;

    void writeSelfTimeTable(std::ostream &os, size_t since,
                            size_t until) const;

    /** Chrome trace-event array ("X" events, one track per thread). */
    void writeChromeTrace(std::ostream &os) const;

    size_t size() const;

  private:
    friend class Scope;

    uint64_t open(); ///< Next span id.
    void close(const Span &span);
    double sinceEpochUs(Clock::time_point t) const;

    std::atomic<bool> enabled_{false};
    const Clock::time_point epoch_ = Clock::now();
    mutable std::mutex m_; ///< Guards ids and spans_.
    uint64_t next_id_ = 1;
    std::vector<Span> spans_;
};

SpanLog &spanLog();

/**
 * RAII span around one call. The parent is the innermost open scope
 * on this thread, or @p parent when given (a shard on a worker thread
 * names the job span that spawned it). @p name is kept by pointer, so
 * it must be a string literal or otherwise outlive the log.
 */
class Scope
{
  public:
    explicit Scope(const char *name, uint64_t job = 0,
                   uint64_t parent = 0);
    ~Scope();

    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

    /** This span's id (0 when the log is disabled). */
    uint64_t id() const { return span_.id; }

  private:
    Span span_;
    Clock::time_point start_;
};

/** Sorted-copy quantile, linear interpolation; 0 for no values. */
double quantile(std::vector<double> values, double q);

inline double
median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

} // namespace perfbench

#endif // MESA_PERFBENCH_SPANS_HH
