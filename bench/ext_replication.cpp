// Extension EXT-REP — replication vs partitioning.
//
// The paper's introduction positions ADC as combining hierarchical
// caching's *multiple copies* of hot documents with hashing's fast
// allocation.  This bench quantifies the copies: the cache-content
// duplication factor (total cached / distinct cached) and the load spread,
// side by side for every scheme.  Hashing schemes partition (factor 1.0);
// ADC replicates hot objects and spreads their load.
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "driver/analysis.h"

int adc::bench::ext_replication(bench::Context& ctx) {
  const double scale = ctx.scale;
  const workload::Trace& trace = ctx.trace();
  bench::print_run_banner(ctx);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"scheme", "hit_rate", "total_cached", "distinct", "dup_factor",
                  "peak_load_share", "load_cv"});
  for (const auto scheme : {driver::Scheme::kAdc, driver::Scheme::kCarp,
                            driver::Scheme::kConsistent, driver::Scheme::kRendezvous,
                            driver::Scheme::kSoap}) {
    driver::ExperimentConfig config = bench::paper_config(scale);
    config.scheme = scheme;
    config.sample_every = 0;
    config.collect_cache_contents = true;
    const driver::ExperimentResult result = driver::run_experiment(config, trace);
    const driver::DuplicationStats dup = driver::duplication(result.proxies);
    const driver::LoadStats load = driver::load_balance(result.proxies);
    rows.push_back({std::string(driver::scheme_name(scheme)),
                    driver::fmt(result.summary.hit_rate(), 3),
                    std::to_string(dup.total_cached), std::to_string(dup.distinct_cached),
                    driver::fmt(dup.factor, 3), driver::fmt(load.peak_share, 3),
                    driver::fmt(load.cv, 3)});
  }
  driver::print_table(std::cout, rows);
  std::cout << "\n(dup_factor 1.0 = pure partitioning; >1 = replicated content."
            << "  peak_load_share 0.2 = perfectly even over 5 proxies.)\n";
  return 0;
}
