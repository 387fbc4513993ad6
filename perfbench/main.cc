/**
 * @file
 * End-to-end benchmark driver. Runs one closed-loop workload for a
 * fixed host time, checks every job, and prints every metric by name
 * with its unit; the last stdout line is one JSON object:
 *
 *   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
 *
 * --trace 0 reports the end-to-end metrics. --trace 1 reports the
 * per-layer metrics instead: a quarter of the time runs the named
 * workload untraced (the tracing-overhead base), then every workload
 * runs a quarter traced with its layer probes, and the spans are
 * written to the output directory as a self-time table and a Chrome
 * trace. perfbench/README.md documents the workloads and metrics.
 *
 *   mesa_perfbench --workload run --seed 1 --seconds 30 --trace 0
 */

#include <sys/resource.h>
#include <sys/utsname.h>
#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "spans.hh"
#include "workloads.hh"

using namespace perfbench;

namespace
{

struct Options
{
    std::string workload;
    uint64_t seed = 1;
    double seconds = 0.0;
    bool trace = false;
    std::string out_dir = ".bench_out";
};

/** Per-layer metrics and their units, in report order. */
const std::vector<std::pair<const char *, const char *>> kLayerUnits = {
    {"workloads.image_ms", "ms"},
    {"cpu.single_ms", "ms"},
    {"cpu.multicore_ms", "ms"},
    {"cpu.ns_per_sim_instr", "ns"},
    {"mesa.transparent_ms", "ms"},
    {"mesa.translate_ms", "ms"},
    {"mesa.offload_ms", "ms"},
    {"fault.offload_ms.config", "ms"},
    {"fault.offload_ms.transient", "ms"},
    {"fault.offload_ms.stuck_pe", "ms"},
    {"fault.offload_ms.dead_link", "ms"},
    {"fault.offload_ms.hang", "ms"},
    {"accel.ns_per_iteration", "ns"},
    {"riscv.golden_ms", "ms"},
    {"riscv.mips", "MIPS"},
    {"mem.snapshot_ms", "ms"},
    {"service.traffic_ms", "ms"},
    {"service.execute_ms", "ms"},
    {"service.loop_ms", "ms"},
    {"service.config_cache_hit_rate", "ratio"},
    {"service.config_cache_lookups", "count"},
    {"parallel.speedup", "x"},
    {"run.cpu_share", "ratio"},
    {"campaign.hang_share", "ratio"},
    {"serve.fixed_share", "ratio"},
    {"host.probe_ms", "ms"},
    {"trace.overhead_frac", "ratio"},
};

[[noreturn]] void
usage()
{
    std::cerr << "usage: mesa_perfbench --workload run|serve|campaign "
                 "--seed <n> --seconds <s> --trace 0|1 "
                 "[--out-dir <dir>]\n";
    std::exit(2);
}

/** Whole-string unsigned parse; usage() on anything else. */
uint64_t
parseCount(const char *text)
{
    char *end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text, &end, 10);
    if (errno != 0 || end == text || *end != '\0' || text[0] == '-')
        usage();
    return v;
}

Options
parse(int argc, char **argv)
{
    Options o;
    bool have_seed = false, have_seconds = false, have_trace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            usage();
        const char *value = argv[++i];
        if (arg == "--workload") {
            o.workload = value;
        } else if (arg == "--seed") {
            o.seed = parseCount(value);
            have_seed = true;
        } else if (arg == "--seconds") {
            o.seconds = double(parseCount(value));
            have_seconds = o.seconds >= 1.0;
        } else if (arg == "--trace") {
            const uint64_t t = parseCount(value);
            if (t > 1)
                usage();
            o.trace = t == 1;
            have_trace = true;
        } else if (arg == "--out-dir") {
            o.out_dir = value;
        } else {
            usage();
        }
    }
    if (!makeWorkload(o.workload) || !have_seed || !have_seconds ||
        !have_trace)
        usage();
    return o;
}

/**
 * A fixed integer loop (tens of ms). It touches no simulator code,
 * so its time moves only with the host's speed.
 */
double
probeMs()
{
    const Clock::time_point t0 = Clock::now();
    uint64_t x = 0x9e3779b97f4a7c15ull;
    for (int i = 0; i < 12'000'000; ++i) {
        x = x * 6364136223846793005ull + 1442695040888963407ull;
        x ^= x >> 29;
    }
    volatile uint64_t sink = x;
    (void)sink;
    return msSince(t0);
}

std::vector<double>
probes(int n)
{
    std::vector<double> out;
    for (int i = 0; i < n; ++i)
        out.push_back(probeMs());
    return out;
}

struct Host
{
    unsigned nproc = 0;
    std::string cpu = "unknown";
    std::string kernel = "unknown";
};

Host
fingerprint()
{
    Host h;
    h.nproc = std::thread::hardware_concurrency();
#if defined(__x86_64__) || defined(__i386__)
    unsigned regs[12] = {};
    if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
        for (unsigned leaf = 0; leaf < 3; ++leaf)
            __get_cpuid(0x80000002u + leaf, &regs[4 * leaf],
                        &regs[4 * leaf + 1], &regs[4 * leaf + 2],
                        &regs[4 * leaf + 3]);
        char brand[49] = {};
        std::memcpy(brand, regs, 48);
        std::string s(brand);
        const size_t b = s.find_first_not_of(' ');
        const size_t e = s.find_last_not_of(' ');
        if (b != std::string::npos)
            h.cpu = s.substr(b, e - b + 1);
    }
#endif
    utsname u{};
    if (uname(&u) == 0)
        h.kernel = std::string(u.sysname) + " " + u.release;
    return h;
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return double(ru.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

/** Run whole passes of @p w until @p seconds have elapsed (at least
 *  one). The first pass's exact counts and content digest are kept. */
Tally
loop(Workload &w, uint64_t seed, double seconds, Counts &first_sim,
     uint64_t &first_digest)
{
    Tally tally;
    const Clock::time_point deadline =
        Clock::now() + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(seconds));
    for (uint64_t pass = 0; pass == 0 || Clock::now() < deadline;
         ++pass) {
        const Clock::time_point t0 = Clock::now();
        w.setUp(seed, pass);
        tally.setup_ms.push_back(msSince(t0));
        w.runPass(tally, spanLog().enabled());
        if (pass == 0) {
            first_sim = w.simCounts();
            first_digest = w.contentDigest();
        }
        ++tally.passes;
    }
    return tally;
}

double
jobsPerSecond(const Tally &t)
{
    return t.busy_ms > 0.0 ? double(t.job_ms.size()) * 1000.0 / t.busy_ms
                           : 0.0;
}

std::string
quoted(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out + "\"";
}

struct Metric
{
    std::string name;
    const char *unit;
    double value;
};

/** {"name": {"value": v, "unit": u}, ...} with every digit kept. */
std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::ostringstream os;
    os.precision(17);
    os << "{";
    for (size_t i = 0; i < metrics.size(); ++i) {
        os << (i ? ", " : "") << quoted(metrics[i].name)
           << ": {\"value\": " << metrics[i].value
           << ", \"unit\": " << quoted(metrics[i].unit) << "}";
    }
    os << "}";
    return os.str();
}

std::string
countsJson(const Counts &counts)
{
    std::ostringstream os;
    os << "{";
    bool first = true;
    for (const auto &[name, v] : counts) {
        os << (first ? "" : ", ") << quoted(name) << ": " << v;
        first = false;
    }
    os << "}";
    return os.str();
}

std::string
numbersJson(const std::vector<double> &values)
{
    std::ostringstream os;
    os.precision(17);
    os << "[";
    for (size_t i = 0; i < values.size(); ++i)
        os << (i ? ", " : "") << values[i];
    os << "]";
    return os.str();
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parse(argc, argv);
    const Host host = fingerprint();
    const std::vector<double> probe_before = probes(5);

    Counts sim;
    uint64_t digest = 0;
    uint64_t attempted = 0, failed = 0;
    std::vector<Metric> metrics;
    std::vector<double> probe_after;
    Tally main_tally;
    /** Traced workloads and the span index each one starts at. */
    std::vector<std::pair<std::string, size_t>> slices;

    if (!opt.trace) {
        auto w = makeWorkload(opt.workload);
        main_tally = loop(*w, opt.seed, opt.seconds, sim, digest);
        attempted = main_tally.attempted;
        failed = main_tally.failed;
        probe_after = probes(5);
        metrics = {
            {"setup_s", "s", median(main_tally.setup_ms) / 1000.0},
            {"jobs_per_s", "1/s", jobsPerSecond(main_tally)},
            {"job_ms_p50", "ms", quantile(main_tally.job_ms, 0.5)},
            {"job_ms_p90", "ms", quantile(main_tally.job_ms, 0.9)},
            {"peak_rss_mb", "MB", peakRssMb()}};
    } else {
        const double slice = opt.seconds / 4.0;
        auto w = makeWorkload(opt.workload);
        main_tally = loop(*w, opt.seed, slice, sim, digest);
        attempted = main_tally.attempted;
        failed = main_tally.failed;

        Metrics layer;
        double traced_rate = 0.0;
        spanLog().enable(true);
        for (const std::string &name : workloadNames()) {
            auto traced = makeWorkload(name);
            const size_t mark = spanLog().size();
            slices.emplace_back(name, mark);
            Counts unused_sim;
            uint64_t unused_digest = 0;
            const Tally t =
                loop(*traced, opt.seed, slice, unused_sim, unused_digest);
            traced->layerMetrics(mark, layer);
            attempted += t.attempted;
            failed += t.failed;
            if (name == opt.workload)
                traced_rate = jobsPerSecond(t);
        }
        spanLog().enable(false);
        probe_after = probes(5);

        const double base_rate = jobsPerSecond(main_tally);
        layer["trace.overhead_frac"] =
            base_rate > 0.0 ? 1.0 - traced_rate / base_rate : 0.0;
        std::vector<double> all = probe_before;
        all.insert(all.end(), probe_after.begin(), probe_after.end());
        layer["host.probe_ms"] = median(all);
        for (const auto &[name, unit] : kLayerUnits)
            metrics.push_back({name, unit, layer.at(name)});
    }

    const std::string tag = opt.workload + "-seed" +
                            std::to_string(opt.seed) + "-trace" +
                            (opt.trace ? "1" : "0");
    std::ostringstream report;
    report.precision(17);
    report << "{\"workload\": " << quoted(opt.workload)
           << ", \"seed\": " << opt.seed << ", \"seconds\": "
           << opt.seconds << ", \"trace\": " << (opt.trace ? 1 : 0)
           << ", \"host\": {\"nproc\": " << host.nproc
           << ", \"cpu\": " << quoted(host.cpu)
           << ", \"kernel\": " << quoted(host.kernel)
           << ", \"probe_ms_before\": " << numbersJson(probe_before)
           << ", \"probe_ms_after\": " << numbersJson(probe_after)
           << "}, \"passes\": " << main_tally.passes
           << ", \"jobs\": " << main_tally.job_ms.size()
           << ", \"content_digest\": " << digest
           << ", \"sim\": " << countsJson(sim)
           << ", \"metrics\": " << metricsJson(metrics) << "}";

    std::error_code ec;
    std::filesystem::create_directories(opt.out_dir, ec);
    std::ofstream(opt.out_dir + "/" + tag + ".json") << report.str()
                                                     << "\n";
    if (opt.trace) {
        std::ofstream table(opt.out_dir + "/" + tag + "-selftime.txt");
        for (size_t i = 0; i < slices.size(); ++i) {
            table << "== " << slices[i].first << " (traced) ==\n";
            spanLog().writeSelfTimeTable(
                table, slices[i].second,
                i + 1 < slices.size() ? slices[i + 1].second
                                      : spanLog().size());
            table << "\n";
        }
        std::ofstream events(opt.out_dir + "/" + tag + "-events.json");
        spanLog().writeChromeTrace(events);
    }

    std::cout << "perfbench " << tag << ": " << main_tally.job_ms.size()
              << " jobs in " << main_tally.passes << " passes ("
              << attempted << " attempted, " << failed
              << " failed overall); job_ms_p90 over "
              << main_tally.job_ms.size() << " jobs"
              << (main_tally.job_ms.size() < 100 ? " (under 100: not valid)"
                                                 : "")
              << "\n";
    std::cout << "host: nproc=" << host.nproc << " cpu=" << quoted(host.cpu)
              << " kernel=" << quoted(host.kernel)
              << " probe_ms before=" << median(probe_before)
              << " after=" << median(probe_after) << "\n";
    std::cout << "sim: " << countsJson(sim) << "\n";
    std::cout << "report: " << opt.out_dir << "/" << tag << ".json\n";
    std::cout << "{\"correct\": " << (failed == 0 ? "true" : "false")
              << ", \"attempted\": " << attempted
              << ", \"failed\": " << failed
              << ", \"metrics\": " << metricsJson(metrics) << "}"
              << std::endl;
    return 0;
}
