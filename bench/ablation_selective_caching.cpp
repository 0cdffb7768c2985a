// Ablation ABL-SEL — selective caching (ordered caching table, the paper's
// design) vs admit-all LRU caching inside the same ADC machinery.
//
// The paper (Section III.4) reports that "our algorithm works better with
// the approach of selective caching and an ordered table than a table
// based on a typical LRU algorithm"; this bench quantifies that claim.
#include <iostream>

#include "bench_common.h"

int adc::bench::ablation_selective_caching(bench::Context& ctx) {
  const double scale = ctx.scale;
  const workload::Trace& trace = ctx.trace();
  bench::print_run_banner(ctx);

  driver::ExperimentConfig selective = bench::paper_config(scale);
  driver::ExperimentConfig lru_all = selective;
  lru_all.adc.selective_caching = false;

  const driver::ExperimentResult sel_result = driver::run_experiment(selective, trace);
  const driver::ExperimentResult lru_result = driver::run_experiment(lru_all, trace);

  driver::print_summary(std::cout, "adc/selective", sel_result);
  driver::print_summary(std::cout, "adc/lru-all  ", lru_result);

  std::cout << "\nhit_rate selective=" << driver::fmt(sel_result.summary.hit_rate())
            << " lru_all=" << driver::fmt(lru_result.summary.hit_rate())
            << " delta=" << driver::fmt(sel_result.summary.hit_rate() -
                                            lru_result.summary.hit_rate())
            << '\n';
  return 0;
}
