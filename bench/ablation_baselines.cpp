// Ablation ABL-BASE — ADC against every implemented allocation scheme:
// CARP (the paper's baseline), consistent hashing, rendezvous hashing, a
// 2-level admit-all hierarchy and the central-coordinator load balancer
// from the paper's own previous work (Section II.1).
//
// All schemes get the same per-proxy cache capacity (the ADC caching-table
// size) so aggregate storage is comparable.
#include <iostream>
#include <vector>

#include "bench_common.h"

int adc::bench::ablation_baselines(bench::Context& ctx) {
  const double scale = ctx.scale;
  const workload::Trace& trace = ctx.trace();
  bench::print_run_banner(ctx);

  const driver::ExperimentConfig base = bench::paper_config(scale);
  const std::vector<driver::Scheme> schemes = {
      driver::Scheme::kAdc,          driver::Scheme::kCarp,
      driver::Scheme::kConsistent,   driver::Scheme::kRendezvous,
      driver::Scheme::kHierarchical, driver::Scheme::kCoordinator,
      driver::Scheme::kSoap,
  };

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"scheme", "hit_rate", "avg_hops", "avg_latency", "origin_fetches", "wall_s"});
  for (const driver::Scheme scheme : schemes) {
    driver::ExperimentConfig config = base;
    config.scheme = scheme;
    config.sample_every = 0;
    const driver::ExperimentResult result = driver::run_experiment(config, trace);
    rows.push_back({std::string(driver::scheme_name(scheme)),
                    driver::fmt(result.summary.hit_rate()),
                    driver::fmt(result.summary.avg_hops(), 3),
                    driver::fmt(result.summary.avg_latency(), 2),
                    std::to_string(result.origin_served),
                    driver::fmt(result.wall_seconds, 3)});
  }
  driver::print_table(std::cout, rows);
  return 0;
}
