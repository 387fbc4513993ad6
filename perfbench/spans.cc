#include "spans.hh"

#include <algorithm>
#include <atomic>
#include <iomanip>
#include <map>
#include <unordered_map>

namespace perfbench
{

namespace
{

/** Open scopes on this thread, innermost last. */
thread_local std::vector<uint64_t> t_open;

/** Small stable thread number for trace tracks. */
int
threadNumber()
{
    static std::atomic<int> next{0};
    thread_local const int tid = next.fetch_add(1);
    return tid;
}

} // namespace

SpanLog &
spanLog()
{
    static SpanLog log;
    return log;
}

uint64_t
SpanLog::open()
{
    std::lock_guard<std::mutex> lk(m_);
    return next_id_++;
}

void
SpanLog::close(const Span &span)
{
    std::lock_guard<std::mutex> lk(m_);
    spans_.push_back(span);
}

double
SpanLog::sinceEpochUs(Clock::time_point t) const
{
    return std::chrono::duration<double, std::micro>(t - epoch_).count();
}

size_t
SpanLog::size() const
{
    std::lock_guard<std::mutex> lk(m_);
    return spans_.size();
}

std::vector<double>
SpanLog::durationsMs(const std::string &name, size_t since) const
{
    std::lock_guard<std::mutex> lk(m_);
    std::vector<double> out;
    for (size_t i = since; i < spans_.size(); ++i)
        if (name == spans_[i].name)
            out.push_back(spans_[i].dur_us / 1000.0);
    return out;
}

double
SpanLog::totalMs(const std::string &name, size_t since) const
{
    double sum = 0.0;
    for (double v : durationsMs(name, since))
        sum += v;
    return sum;
}

std::vector<SpanTotals>
SpanLog::selfTimes(size_t since, size_t until) const
{
    std::lock_guard<std::mutex> lk(m_);
    const std::vector<Span> range(
        spans_.begin() + std::min(since, spans_.size()),
        spans_.begin() + std::min(until, spans_.size()));
    std::unordered_map<uint64_t, const Span *> by_id;
    for (const Span &s : range)
        by_id[s.id] = &s;
    std::unordered_map<uint64_t, double> child_us;
    for (const Span &s : range) {
        auto it = by_id.find(s.parent);
        if (it != by_id.end() && it->second->tid == s.tid)
            child_us[s.parent] += s.dur_us;
    }
    std::map<std::string, SpanTotals> agg;
    for (const Span &s : range) {
        SpanTotals &t = agg[s.name];
        t.name = s.name;
        ++t.count;
        t.total_ms += s.dur_us / 1000.0;
        t.self_ms += std::max(0.0, s.dur_us - child_us[s.id]) / 1000.0;
    }
    std::vector<SpanTotals> out;
    for (auto &kv : agg)
        out.push_back(kv.second);
    std::sort(out.begin(), out.end(),
              [](const SpanTotals &a, const SpanTotals &b) {
                  return a.self_ms > b.self_ms;
              });
    return out;
}

void
SpanLog::writeSelfTimeTable(std::ostream &os, size_t since,
                            size_t until) const
{
    const auto rows = selfTimes(since, until);
    double all_self = 0.0;
    for (const auto &r : rows)
        all_self += r.self_ms;
    os << std::left << std::setw(34) << "span" << std::right
       << std::setw(9) << "count" << std::setw(13) << "total_ms"
       << std::setw(13) << "self_ms" << std::setw(8) << "self%"
       << "\n";
    os << std::fixed;
    for (const auto &r : rows) {
        os << std::left << std::setw(34) << r.name << std::right
           << std::setw(9) << r.count << std::setw(13)
           << std::setprecision(2) << r.total_ms << std::setw(13)
           << r.self_ms << std::setw(8) << std::setprecision(1)
           << (all_self > 0.0 ? 100.0 * r.self_ms / all_self : 0.0)
           << "\n";
    }
    os << std::defaultfloat;
}

void
SpanLog::writeChromeTrace(std::ostream &os) const
{
    std::lock_guard<std::mutex> lk(m_);
    os << "[\n";
    bool first = true;
    for (const Span &s : spans_) {
        if (!first)
            os << ",\n";
        first = false;
        os << std::fixed << std::setprecision(3) << "{\"name\":\""
           << s.name << "\",\"ph\":\"X\",\"pid\":1,\"tid\":" << s.tid
           << ",\"ts\":" << s.start_us << ",\"dur\":" << s.dur_us
           << ",\"args\":{\"id\":" << s.id << ",\"parent\":" << s.parent
           << ",\"job\":" << s.job << "}}";
    }
    os << "\n]\n" << std::defaultfloat;
}

Scope::Scope(const char *name, uint64_t job, uint64_t parent)
{
    SpanLog &log = spanLog();
    if (!log.enabled())
        return;
    span_.name = name;
    span_.id = log.open();
    span_.parent = parent ? parent
                          : (t_open.empty() ? 0 : t_open.back());
    span_.job = job;
    span_.tid = threadNumber();
    t_open.push_back(span_.id);
    start_ = Clock::now();
}

Scope::~Scope()
{
    if (span_.id == 0)
        return;
    const Clock::time_point end = Clock::now();
    SpanLog &log = spanLog();
    span_.start_us = log.sinceEpochUs(start_);
    span_.dur_us =
        std::chrono::duration<double, std::micro>(end - start_).count();
    t_open.pop_back();
    log.close(span_);
}

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * double(values.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - double(lo)) * (values[hi] - values[lo]);
}

} // namespace perfbench
