// Shared pieces of the benchmark driver: the run outcome it prints, the
// span recorder of traced runs, and process/thread resource clocks.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <pthread.h>

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;  // where a traced run writes its spans (JSON lines)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the operations it attempted and lost,
/// the metrics of the requested mode, and every output check that failed.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> check_failures;
  std::vector<std::string> notes;  // reference figures printed beside the metrics

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records `what` as a failed output check unless `ok`.
  void check(bool ok, std::string what) {
    if (!ok) check_failures.push_back(std::move(what));
  }
  bool correct() const noexcept { return check_failures.empty(); }
};

/// In-memory spans of a traced run: name, start, end, parent span and the
/// run or request id, plus how many calls the span covers (micro-timing
/// loops record one span per batch of calls).  Disabled recorders keep
/// nothing and read no clock.
class SpanRecorder {
 public:
  struct Span {
    std::string name;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    int parent = -1;  // index of the enclosing span, -1 at the root
    std::uint64_t id = 0;
    std::uint64_t calls = 1;
  };

  class Scope {
   public:
    Scope(SpanRecorder* recorder, int index) : recorder_(recorder), index_(index) {}
    ~Scope() {
      if (recorder_ != nullptr) recorder_->close(index_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
    int index_;
  };

  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  /// Opens a span closed when the returned scope ends; spans opened while
  /// it is open become its children.
  [[nodiscard]] Scope span(std::string_view name, std::uint64_t id, std::uint64_t calls = 1);

  /// Median over the spans named `name` of each span's duration divided
  /// by the calls it covers: a batch that the scheduler interrupted is an
  /// outlier, not a share of the result.
  double ns_per_call(std::string_view name) const;

  /// Writes one JSON object per span; false when the file cannot be written.
  bool write_jsonl(const std::string& path) const;

 private:
  void close(int index);
  std::int64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ = std::chrono::steady_clock::now();
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Process CPU and scheduling counters from getrusage(RUSAGE_SELF).
struct ProcessUsage {
  double user_s = 0.0;
  double sys_s = 0.0;
  std::uint64_t ctx_switches = 0;  // voluntary + involuntary

  static ProcessUsage now();
  double cpu_s() const noexcept { return user_s + sys_s; }
};

/// CPU seconds consumed so far by the thread `handle` (which must still
/// be running) or by the calling thread.
double thread_cpu_seconds(pthread_t handle);
double self_thread_cpu_seconds();

/// Peak resident set of this process, MiB.
double peak_rss_mib();

double seconds_since(std::chrono::steady_clock::time_point start);

/// Median and nearest-rank percentile of a sample (copied and sorted);
/// 0 for an empty sample.
double median(std::vector<double> values);
double percentile(std::vector<double> values, double q);
/// Mean of the values left after dropping the lowest and the highest
/// quarter (rounded down) of the sample.
double interquartile_mean(std::vector<double> values);

/// Keeps a computed value alive so a timed loop is not optimised away.
void consume(std::uint64_t value);

// Workload entry points (sim_workloads.cpp, live_workload.cpp).
Outcome run_sim_adc_fig11(const Options& options, SpanRecorder& spans);
Outcome run_sim_carp_bytes(const Options& options, SpanRecorder& spans);
Outcome run_live_adc_loopback(const Options& options, SpanRecorder& spans);

}  // namespace perfbench
