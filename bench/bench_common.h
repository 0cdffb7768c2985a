// Shared setup for the experiments behind `adc_bench <experiment>`.
//
// Every experiment runs the paper's deployment (5 proxies; single=20k,
// multiple=20k, caching=10k; ~3.99M-request PolyMix-like trace) scaled by
// ADC_BENCH_SCALE (default 0.1 so the whole suite finishes in minutes;
// set ADC_BENCH_SCALE=1.0 for the paper-scale run).  Table sizes and the
// workload scale together, preserving the cache-to-working-set ratios the
// paper's results depend on.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "driver/experiment.h"
#include "driver/parallel.h"
#include "driver/report.h"
#include "driver/sweep.h"
#include "fault/fault_plan.h"
#include "util/string_util.h"
#include "workload/polygraph.h"

// The experiments adc_bench dispatches to, one row each: the name (also
// its bench/<name>.cpp and its function adc::bench::<name>, declared below;
// it returns the exit code), the shared Flags it reads, and its title.
#define ADC_BENCH_EXPERIMENTS(X)                                                          \
  X(fig11_hit_rate, kJson, "Figure 11: hit rate, ADC vs hashing")                         \
  X(fig12_hops, kJson, "Figure 12: hops, ADC vs hashing")                                 \
  X(fig13_hits_by_table_size, kWorkers, "Figure 13: hit rate by table size")              \
  X(fig14_hops_by_table_size, kWorkers, "Figure 14: hops by table size")                  \
  X(fig15_time_by_table_size, kWorkers,                                                   \
    "Figure 15: processing time by table size (faithful structures)")                     \
  X(ablation_selective_caching, 0, "Ablation: selective caching vs admit-all LRU")        \
  X(ablation_backwarding, 0, "Ablation: multicast-by-backwarding on vs off")              \
  X(ablation_table_impl, 0, "Ablation: faithful vs indexed table structures")             \
  X(ablation_baselines, 0, "Ablation: ADC vs all baselines")                              \
  X(ablation_unlimited_tables, 0, "Ablation: bounded vs unlimited mapping tables")        \
  X(ablation_replacement_policy, 0,                                                       \
    "Ablation: CARP replacement policy (LRU/FIFO/LFU) vs ADC")                            \
  X(ext_failover, 0, "Extension: proxy cold-restart and recovery")                        \
  X(ext_workloads, 0, "Extension: workload models (PolyMix-like, WPB-like, flash crowd)") \
  X(ext_replication, 0, "Extension: duplication factor and load balance")                 \
  X(ext_proxy_count, kWorkers, "Extension: number of proxies (1..12)")                    \
  X(ext_heterogeneous, 0, "Extension: one slow proxy (10x message processing delay)")     \
  X(ext_variance, kWorkers, "Extension: seed variance of the ADC vs CARP comparison")     \
  X(ext_max_forwards, 0, "Extension: max-forwards sweep")                                 \
  X(ext_staleness, 0, "Extension: stale hits under origin-side object updates")           \
  X(ext_walk_model, 0, "Extension: analytical walk model vs simulator")                   \
  X(ext_churn, kWorkers, "Extension: message loss x proxy churn")                         \
  X(ext_membership, kWorkers,                                                             \
    "Extension: membership vs static view under permanent loss")                          \
  X(ext_adversarial, kWorkers | kJson | kScale,                                           \
    "Extension: adversarial workloads (hash-flood, flash-crowd, diurnal)")                \
  X(ext_bytes, kWorkers | kJson,                                                          \
    "Extension: payload bytes, size-aware policies, erasure tier")                        \
  X(ext_bandwidth, kWorkers | kJson,                                                      \
    "Extension: bandwidth-modeled links and transfer scheduling")                         \
  X(ext_repair, kWorkers | kJson,                                                         \
    "Extension: proactive re-stripe repair vs the multi-death window")

namespace adc::bench {

/// The shared flags an experiment may read; adc_bench rejects the others.
enum Flag : unsigned {
  kWorkers = 1u << 0,  // --workers N
  kJson = 1u << 1,     // --json PATH
  kScale = 1u << 2,    // --scale N
};

inline workload::Trace paper_trace(double scale) {
  const auto config = workload::PolygraphConfig::scaled(scale);
  return workload::generate_polygraph_trace(config);
}

/// What adc_bench hands an experiment: its title and the shared settings,
/// parsed and validated once.
class Context {
 public:
  std::string_view title;
  double scale = 0.1;  // ADC_BENCH_SCALE
  /// --json PATH: where the experiment writes its result grid as a JSON
  /// array of flat objects (driver::write_json_rows).  Empty = stdout only.
  std::string json_path;
  /// --scale N: a workload multiplier applied on top of ADC_BENCH_SCALE
  /// (N > 1 grows the trace past the paper's 3.99M requests).
  double extra_scale = 1.0;
  std::optional<int> workers_flag;  // --workers N, when given

  /// The worker count: --workers N, or `fallback` when the flag is absent
  /// (0 = hardware concurrency).  Any count gives bit-identical metrics
  /// (modulo wall_seconds); tests/driver/parallel_test.cpp enforces it.
  int workers(int fallback = 0) const {
    return driver::resolve_workers(workers_flag.value_or(fallback));
  }

  /// The paper trace at `scale`, generated on first use.
  const workload::Trace& trace() {
    if (!trace_) trace_ = paper_trace(scale);
    return *trace_;
  }

 private:
  std::optional<workload::Trace> trace_;
};

#define ADC_BENCH_DECLARE(name, flags, title) int name(Context& ctx);
ADC_BENCH_EXPERIMENTS(ADC_BENCH_DECLARE)
#undef ADC_BENCH_DECLARE

inline std::size_t scaled_size(std::size_t paper_value, double scale) {
  const auto scaled = static_cast<std::size_t>(static_cast<double>(paper_value) * scale);
  return scaled == 0 ? 1 : scaled;
}

/// The paper's default experiment (Section V.2) at the given scale.
inline driver::ExperimentConfig paper_config(double scale) {
  driver::ExperimentConfig config;
  config.scheme = driver::Scheme::kAdc;
  config.proxies = 5;
  config.adc.single_table_size = scaled_size(20000, scale);
  config.adc.multiple_table_size = scaled_size(20000, scale);
  config.adc.caching_table_size = scaled_size(10000, scale);
  config.seed = 1;
  // The moving-average window follows the paper's 5000-request window at
  // full scale and shrinks with the workload.
  config.ma_window = scaled_size(5000, scale);
  config.sample_every = scaled_size(5000, scale);
  return config;
}

/// Mean moving-average hit rate over the series points in (begin, end].
inline double window_mean(const std::vector<sim::SeriesPoint>& series, std::uint64_t begin,
                          std::uint64_t end) {
  double sum = 0.0;
  std::size_t n = 0;
  for (const auto& point : series) {
    if (point.requests > begin && point.requests <= end) {
      sum += point.hit_rate;
      ++n;
    }
  }
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

/// A client deadline sized from a healthy probe's tail latency, so only
/// genuinely lost requests expire.
inline SimTime request_deadline(const driver::ExperimentResult& probe) {
  return std::max<SimTime>(static_cast<SimTime>(std::llround(probe.latency_p99 * 20.0)), 1000);
}

/// `node` crashes for good (state flushed) at `fraction` of the healthy
/// probe's simulated run.
inline fault::CrashWindow permanent_crash(const driver::ExperimentResult& probe, NodeId node,
                                          double fraction) {
  fault::CrashWindow window;
  window.node = node;
  window.at = static_cast<SimTime>(static_cast<double>(probe.sim_end_time) * fraction);
  window.restart = kSimTimeMax;
  window.flush_state = true;
  return window;
}

inline std::string mb(std::uint64_t bytes) {
  return driver::fmt(static_cast<double>(bytes) / (1024.0 * 1024.0), 1);
}

/// One experiment summary as a flat JSON row (for --json artifacts): the
/// same metrics print_summary writes, machine-readable.
inline std::vector<driver::JsonField> summary_json_row(std::string_view label,
                                                       const driver::ExperimentResult& result) {
  return {driver::json_str("label", label),
          driver::json_num("requests", result.summary.completed),
          driver::json_num("hit_rate", result.summary.hit_rate(), 4),
          driver::json_num("avg_hops", result.summary.avg_hops(), 4),
          driver::json_num("avg_latency", result.summary.avg_latency(), 4),
          driver::json_num("latency_p99", result.latency_p99, 2),
          driver::json_num("latency_p999", result.latency_p999, 2),
          driver::json_num("fairness", result.summary.request_fairness(), 4),
          driver::json_num("origin_fetches", result.origin_served)};
}

/// Prints `# <title>  (scale=..., requests=..., unique=..., recurrence=...)`
/// for the paper trace, generating it if no one has yet.
inline void print_run_banner(Context& ctx) {
  const auto stats = ctx.trace().stats();
  std::cout << "# " << ctx.title << "  (scale=" << ctx.scale << ", requests="
            << util::with_thousands(stats.requests) << ", unique="
            << util::with_thousands(stats.unique_objects) << ", recurrence="
            << driver::fmt(stats.recurrence_rate, 3) << ")\n";
}

}  // namespace adc::bench
