// Ablation ABL-POL — the hashing baseline's replacement policy.
//
// The paper runs its CARP baseline with LRU (Section V.1.1) and argues
// (Section III.4) that admit-all recency caching churns under one-timer
// traffic.  Swapping the baseline's policy (LRU / FIFO / LFU) bounds how
// much of the ADC-vs-hashing gap is about *placement* (the hash) versus
// *replacement* (the policy): LFU is the frequency-aware endpoint that
// shares selective caching's instincts.
#include <iostream>
#include <vector>

#include "bench_common.h"

int adc::bench::ablation_replacement_policy(bench::Context& ctx) {
  const double scale = ctx.scale;
  const workload::Trace& trace = ctx.trace();
  bench::print_run_banner(ctx);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"configuration", "hit_rate", "avg_hops", "origin_fetches"});

  {
    driver::ExperimentConfig adc_config = bench::paper_config(scale);
    adc_config.sample_every = 0;
    const auto result = driver::run_experiment(adc_config, trace);
    rows.push_back({"adc/selective", driver::fmt(result.summary.hit_rate()),
                    driver::fmt(result.summary.avg_hops(), 3),
                    std::to_string(result.origin_served)});
  }
  for (const auto policy : {cache::Policy::kLru, cache::Policy::kFifo, cache::Policy::kLfu}) {
    driver::ExperimentConfig config = bench::paper_config(scale);
    config.scheme = driver::Scheme::kCarp;
    config.baseline_policy = policy;
    config.sample_every = 0;
    const auto result = driver::run_experiment(config, trace);
    rows.push_back({"carp/" + std::string(cache::policy_name(policy)),
                    driver::fmt(result.summary.hit_rate()),
                    driver::fmt(result.summary.avg_hops(), 3),
                    std::to_string(result.origin_served)});
  }
  driver::print_table(std::cout, rows);
  return 0;
}
