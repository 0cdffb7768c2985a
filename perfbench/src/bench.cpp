// Span recorder, resource clocks and small statistics helpers (bench.h).
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <ctime>
#include <fstream>
#include <iomanip>

#include "bench.h"

namespace perfbench {

SpanRecorder::Scope SpanRecorder::span(std::string_view name, std::uint64_t id,
                                       std::uint64_t calls) {
  if (!enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = std::string(name);
  s.parent = open_.empty() ? -1 : open_.back();
  s.id = id;
  s.calls = calls;
  s.start_ns = now_ns();
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size() - 1);
  open_.push_back(index);
  return Scope(this, index);
}

void SpanRecorder::close(int index) {
  spans_[static_cast<std::size_t>(index)].end_ns = now_ns();
  // Scopes nest, so the span being closed is the innermost open one.
  if (!open_.empty() && open_.back() == index) open_.pop_back();
}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

double SpanRecorder::ns_per_call(std::string_view name) const {
  std::vector<double> per_call;
  for (const Span& s : spans_) {
    if (s.name != name || s.calls == 0) continue;
    per_call.push_back(static_cast<double>(s.end_ns - s.start_ns) / static_cast<double>(s.calls));
  }
  return median(std::move(per_call));
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start_ns\":" << s.start_ns
        << ",\"end_ns\":" << s.end_ns << ",\"parent\":" << s.parent << ",\"id\":" << s.id
        << ",\"calls\":" << s.calls << "}\n";
  }
  return static_cast<bool>(out);
}

ProcessUsage ProcessUsage::now() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
  };
  ProcessUsage out;
  out.user_s = secs(usage.ru_utime);
  out.sys_s = secs(usage.ru_stime);
  out.ctx_switches = static_cast<std::uint64_t>(usage.ru_nvcsw) +
                     static_cast<std::uint64_t>(usage.ru_nivcsw);
  return out;
}

namespace {

double clock_seconds(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

}  // namespace

double thread_cpu_seconds(pthread_t handle) {
  clockid_t clock{};
  if (pthread_getcpuclockid(handle, &clock) != 0) return 0.0;
  return clock_seconds(clock);
}

double self_thread_cpu_seconds() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size()));
  const auto index = static_cast<std::size_t>(std::max(rank, 1.0)) - 1;
  return values[std::min(index, values.size() - 1)];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double interquartile_mean(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t cut = values.size() / 4;
  double sum = 0.0;
  for (std::size_t i = cut; i < values.size() - cut; ++i) sum += values[i];
  return sum / static_cast<double>(values.size() - 2 * cut);
}

void consume(std::uint64_t value) {
  static std::atomic<std::uint64_t> sink{0};
  sink.fetch_xor(value, std::memory_order_relaxed);
}

}  // namespace perfbench
