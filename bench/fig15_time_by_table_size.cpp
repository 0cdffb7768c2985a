// Figure 15 — Processing time vs table size (the wall_seconds column).
//
// Runs the same sweep as Figures 13/14 in the paper's *faithful* table
// mode: the single-table is a linked list searched element-wise and the
// ordered tables are contiguous arrays maintained by binary search — the
// structures whose cost the paper measured.  Paper's shape: growing the
// single and multiple tables slows the run down; growing the caching table
// has no significant impact.  (Our indexed mode removes the growth — see
// bench/ablation_table_impl.)
//
// wall_seconds is each run's simulation-loop time.  --workers defaults to
// 1 here, unlike fig13/14: concurrent runs contend for cores and inflate
// each other's timings, so --workers > 1 gives a quick look at the shape,
// not clean timings.
#include <iostream>

#include "bench_common.h"

int adc::bench::fig15_time_by_table_size(bench::Context& ctx) {
  const double scale = ctx.scale;
  const int workers = ctx.workers(/*fallback=*/1);
  const workload::Trace& trace = ctx.trace();
  bench::print_run_banner(ctx);
  std::cout << "# workers=" << workers << '\n';

  driver::ExperimentConfig base = bench::paper_config(scale);
  base.adc.table_impl = cache::TableImpl::kFaithful;
  base.sample_every = 0;  // no series needed; keep the loop lean
  const auto points = driver::run_table_sweep(
      base, trace,
      {driver::SweptTable::kCaching, driver::SweptTable::kMultiple,
       driver::SweptTable::kSingle},
      driver::paper_sweep_sizes(scale), workers);

  driver::print_sweep_csv(std::cout, points);
  return 0;
}
