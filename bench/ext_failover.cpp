// Extension EXT-FAIL — infrastructure changes (paper Section V.1 lists
// them as unapplied future work): one proxy cold-restarts mid-run, losing
// its cache and learned tables, and we measure how each scheme's hit rate
// dips and recovers.
//
// ADC relearns through its normal backwarding multicast (stale THIS
// entries at peers degrade to origin fetches that re-teach the tables);
// CARP's hash owner simply refills its LRU cache; the coordinator routes
// around nothing because it never knew about content in the first place.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_common.h"

int adc::bench::ext_failover(bench::Context& ctx) {
  const double scale = ctx.scale;
  const workload::Trace& trace = ctx.trace();
  bench::print_run_banner(ctx);

  const auto fault_at = static_cast<std::uint64_t>(trace.size() * 3 / 5);
  const std::uint64_t window = std::max<std::uint64_t>(trace.size() / 20, 1000);

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"scheme", "pre_fault", "post_fault", "recovered", "dip", "final_hit"});

  for (const auto scheme : {driver::Scheme::kAdc, driver::Scheme::kCarp,
                            driver::Scheme::kHierarchical, driver::Scheme::kCoordinator,
                            driver::Scheme::kSoap}) {
    driver::ExperimentConfig config = bench::paper_config(scale);
    config.scheme = scheme;
    config.fault.at_completed = fault_at;
    config.fault.proxy_index = 2;
    const driver::ExperimentResult result = driver::run_experiment(config, trace);

    const double pre = window_mean(result.series, fault_at - window, fault_at);
    const double post = window_mean(result.series, fault_at, fault_at + window);
    const double recovered =
        window_mean(result.series, fault_at + 3 * window, fault_at + 4 * window);
    rows.push_back({std::string(driver::scheme_name(scheme)), driver::fmt(pre, 3),
                    driver::fmt(post, 3), driver::fmt(recovered, 3),
                    driver::fmt(pre - post, 3), driver::fmt(result.summary.hit_rate(), 3)});
  }

  driver::print_table(std::cout, rows);
  std::cout << "\nfault injected at request " << fault_at << " (proxy[2] flushed); windows of "
            << window << " requests\n";
  return 0;
}
