// Ablation ABL-UNL — this paper vs its own predecessor: "Unlimited
// Adaptive Distributed Caching" (Section II.3) let the mapping tables grow
// indefinitely; the paper under reproduction bounds them with the
// single/multiple split and claims the bounded system keeps "the
// performance at the previously attained level".
//
// We run the bounded configuration (paper defaults) against an effectively
// unlimited one (tables sized to hold every object the trace contains) and
// compare hit rate, hops, and actual table occupancy.
#include <iostream>

#include "bench_common.h"

int adc::bench::ablation_unlimited_tables(bench::Context& ctx) {
  const double scale = ctx.scale;
  const workload::Trace& trace = ctx.trace();
  bench::print_run_banner(ctx);

  driver::ExperimentConfig bounded = bench::paper_config(scale);
  bounded.sample_every = 0;

  driver::ExperimentConfig unlimited = bounded;
  const auto universe = trace.stats().unique_objects + 1;
  unlimited.adc.single_table_size = universe;
  unlimited.adc.multiple_table_size = universe;
  // The *cache* stays bounded in both configurations — storage is the
  // physical resource; only the bookkeeping tables differ.

  const driver::ExperimentResult b = driver::run_experiment(bounded, trace);
  const driver::ExperimentResult u = driver::run_experiment(unlimited, trace);

  driver::print_summary(std::cout, "tables/bounded  ", b);
  driver::print_summary(std::cout, "tables/unlimited", u);

  std::uint64_t bounded_entries = 0;
  std::uint64_t unlimited_entries = 0;
  for (const auto& proxy : b.proxies) bounded_entries += proxy.table_entries;
  for (const auto& proxy : u.proxies) unlimited_entries += proxy.table_entries;

  std::cout << "\nhit_rate bounded=" << driver::fmt(b.summary.hit_rate())
            << " unlimited=" << driver::fmt(u.summary.hit_rate())
            << " gap=" << driver::fmt(u.summary.hit_rate() - b.summary.hit_rate())
            << "\ntable_entries bounded=" << bounded_entries
            << " unlimited=" << unlimited_entries << " ("
            << driver::fmt(static_cast<double>(unlimited_entries) /
                               static_cast<double>(std::max<std::uint64_t>(bounded_entries, 1)),
                           1)
            << "x the memory)\n";
  return 0;
}
