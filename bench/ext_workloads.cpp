// Extension EXT-WPB — "performance comparison based on a new set of
// request patterns and an evaluation based on the Wisconsin Proxy
// Benchmark" (paper Section VI, future work).
//
// Runs ADC and the CARP baseline over three request models with the same
// deployment: the PolyMix-like three-phase trace (global Zipf popularity),
// a WPB-style trace (temporal locality via an LRU-stack model), and a
// flash-crowd trace (a sudden tiny hot set).  The interesting readout is
// how the ranking changes: frequency-based selective caching (ADC) versus
// recency-based LRU sharding (CARP) depend on *which kind* of locality
// the workload offers.
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "util/rng.h"
#include "workload/wpb.h"

namespace {

using namespace adc;

workload::Trace flash_trace(std::uint64_t requests, std::uint64_t seed) {
  util::Rng rng(seed);
  const util::ZipfSampler zipf(20000, 0.9);
  std::vector<ObjectId> stream;
  stream.reserve(requests);
  const std::uint64_t flash_begin = requests / 3;
  const std::uint64_t flash_end = 2 * requests / 3;
  for (std::uint64_t i = 0; i < requests; ++i) {
    if (i >= flash_begin && i < flash_end && rng.chance(0.85)) {
      stream.push_back(1'000'000 + rng.below(8));
    } else {
      stream.push_back(static_cast<ObjectId>(zipf.sample(rng)));
    }
  }
  return workload::Trace(std::move(stream),
                         workload::TracePhases{flash_begin, flash_end});
}

}  // namespace

int adc::bench::ext_workloads(bench::Context& ctx) {
  const double scale = ctx.scale;
  std::cout << "# " << ctx.title << ", scale=" << scale << "\n";

  struct Entry {
    const char* name;
    workload::Trace trace;
  };
  std::vector<Entry> workloads;
  workloads.push_back({"polymix", bench::paper_trace(scale)});
  workload::WpbConfig wpb;
  wpb.requests = static_cast<std::uint64_t>(3'990'000 * scale);
  wpb.stack_depth = bench::scaled_size(20000, scale);
  workloads.push_back({"wpb", workload::generate_wpb_trace(wpb)});
  workloads.push_back(
      {"flash", flash_trace(static_cast<std::uint64_t>(3'990'000 * scale), 7)});

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"workload", "requests", "recurrence", "adc_hit", "carp_hit", "delta",
                  "adc_hops", "carp_hops"});
  for (const auto& entry : workloads) {
    driver::ExperimentConfig adc_config = bench::paper_config(scale);
    adc_config.sample_every = 0;
    driver::ExperimentConfig carp_config = adc_config;
    carp_config.scheme = driver::Scheme::kCarp;
    const auto adc_result = driver::run_experiment(adc_config, entry.trace);
    const auto carp_result = driver::run_experiment(carp_config, entry.trace);
    const auto stats = entry.trace.stats();
    rows.push_back({entry.name, std::to_string(stats.requests),
                    driver::fmt(stats.recurrence_rate, 3),
                    driver::fmt(adc_result.summary.hit_rate(), 3),
                    driver::fmt(carp_result.summary.hit_rate(), 3),
                    driver::fmt(adc_result.summary.hit_rate() -
                                    carp_result.summary.hit_rate(), 3),
                    driver::fmt(adc_result.summary.avg_hops(), 2),
                    driver::fmt(carp_result.summary.avg_hops(), 2)});
  }
  driver::print_table(std::cout, rows);
  return 0;
}
