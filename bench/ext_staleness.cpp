// Extension EXT-STALE — cache consistency under mutable objects.
//
// The paper's model (like its hashing baseline) assumes immutable objects;
// the broader literature it builds on (web cache consistency, Gwertzman &
// Seltzer) does not.  Here the origin updates every object on a jittered
// interval and we measure the *stale hit rate*: the fraction of cache hits
// that served outdated data.  ADC's selective caching holds popular
// objects for a long time and replicates them — both raise staleness —
// while CARP's single LRU copy refreshes on every churn cycle.  The sweep
// shows the freshness/hit-rate trade-off per scheme.
#include <iostream>
#include <vector>

#include "bench_common.h"

int adc::bench::ext_staleness(bench::Context& ctx) {
  const double scale = ctx.scale;
  const workload::Trace& trace = ctx.trace();
  bench::print_run_banner(ctx);

  // Mean update intervals in simulated time units.  A full trace spans
  // roughly trace.size() * avg_latency time units (~6M at the default
  // scale); the grid covers "churns many times per run" down to "changes
  // once or twice".
  std::vector<SimTime> intervals = {0, 200'000, 1'000'000, 5'000'000, 20'000'000};

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"scheme", "update_interval", "hit_rate", "stale_rate", "stale_hits"});
  for (const auto scheme : {driver::Scheme::kAdc, driver::Scheme::kCarp,
                            driver::Scheme::kHierarchical}) {
    for (const SimTime interval : intervals) {
      driver::ExperimentConfig config = bench::paper_config(scale);
      config.scheme = scheme;
      config.sample_every = 0;
      config.object_update_interval = interval;
      const auto result = driver::run_experiment(config, trace);
      rows.push_back({std::string(driver::scheme_name(scheme)),
                      interval == 0 ? "off" : std::to_string(interval),
                      driver::fmt(result.summary.hit_rate(), 3),
                      driver::fmt(result.summary.stale_rate(), 4),
                      std::to_string(result.summary.stale_hits)});
    }
  }
  driver::print_table(std::cout, rows);
  return 0;
}
