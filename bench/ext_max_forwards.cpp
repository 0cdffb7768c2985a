// Extension EXT-MF — the maximum-forwards parameter (paper Section III.1
// defines the cutoff; Section V.1 lists it among the parameters left for
// future work).
//
// Sweeps the bound on proxy-to-proxy forwards.  Small bounds truncate the
// random search (fewer hops, fewer found copies); beyond the point where
// loop detection dominates termination, raising the bound changes nothing
// — the knee this bench locates.
#include <iostream>
#include <vector>

#include "bench_common.h"

int adc::bench::ext_max_forwards(bench::Context& ctx) {
  const double scale = ctx.scale;
  const workload::Trace& trace = ctx.trace();
  bench::print_run_banner(ctx);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"max_forwards", "hit_rate", "avg_hops", "loops", "max_forwards_hit"});
  for (const int max_forwards : {1, 2, 3, 4, 6, 8, 12, 16}) {
    driver::ExperimentConfig config = bench::paper_config(scale);
    config.adc.max_forwards = max_forwards;
    config.sample_every = 0;
    const auto result = driver::run_experiment(config, trace);
    rows.push_back({std::to_string(max_forwards),
                    driver::fmt(result.summary.hit_rate()),
                    driver::fmt(result.summary.avg_hops(), 3),
                    std::to_string(result.adc_totals.loops_detected),
                    std::to_string(result.adc_totals.max_forwards_hit)});
  }
  driver::print_table(std::cout, rows);
  return 0;
}
