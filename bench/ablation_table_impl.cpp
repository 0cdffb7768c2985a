// Ablation ABL-DS — faithful (paper) vs indexed (production) mapping-table
// internals, at the largest sweep size where the difference matters most.
//
// The paper concludes "a more adapted data structure should provide
// speed-ups in the future versions of this algorithm" (Section V.3.3);
// this bench is that future version, run side by side.  Hit/hop results
// must be identical — only wall time may differ.
#include <cstdlib>
#include <iostream>

#include "bench_common.h"

int adc::bench::ablation_table_impl(bench::Context& ctx) {
  const double scale = ctx.scale;
  const workload::Trace& trace = ctx.trace();
  bench::print_run_banner(ctx);

  driver::ExperimentConfig faithful = bench::paper_config(scale);
  faithful.adc.table_impl = cache::TableImpl::kFaithful;
  faithful.sample_every = 0;
  // Stress the structures: largest sweep size for single+multiple tables.
  faithful.adc.single_table_size = bench::scaled_size(30000, scale);
  faithful.adc.multiple_table_size = bench::scaled_size(30000, scale);

  driver::ExperimentConfig indexed = faithful;
  indexed.adc.table_impl = cache::TableImpl::kIndexed;

  const driver::ExperimentResult faithful_result = driver::run_experiment(faithful, trace);
  const driver::ExperimentResult indexed_result = driver::run_experiment(indexed, trace);

  driver::print_summary(std::cout, "tables/faithful", faithful_result);
  driver::print_summary(std::cout, "tables/indexed ", indexed_result);

  const bool results_match =
      faithful_result.summary.hits == indexed_result.summary.hits &&
      faithful_result.summary.total_hops == indexed_result.summary.total_hops;
  std::cout << "\nresults_identical=" << (results_match ? "yes" : "NO (bug!)")
            << " speedup=" << driver::fmt(faithful_result.wall_seconds /
                                              (indexed_result.wall_seconds > 0.0
                                                   ? indexed_result.wall_seconds
                                                   : 1e-9), 2)
            << "x\n";
  return results_match ? 0 : 1;
}
