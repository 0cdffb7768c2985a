// Extension EXT-HET — heterogeneous proxy performance.
//
// The paper's central-coordinator predecessor (Section II.1) existed to
// "adapt the load distribution in regard to the individual performance
// characteristics of every proxy".  This bench makes one proxy 10x slower
// at processing messages and measures which schemes route around it:
// the coordinator's response-time learning shifts load away; CARP's hash
// and ADC's content mapping cannot, so their latency suffers.
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "driver/analysis.h"

int adc::bench::ext_heterogeneous(bench::Context& ctx) {
  const double scale = ctx.scale;
  const workload::Trace& trace = ctx.trace();
  bench::print_run_banner(ctx);

  // Fraction of proxy-received requests that landed on the slow proxy[2].
  const auto slow_share = [](const driver::ExperimentResult& result) {
    const driver::LoadStats load = driver::load_balance(result.proxies);
    return load.total == 0 ? 0.0
                           : static_cast<double>(result.proxies[2].requests_received) /
                                 static_cast<double>(load.total);
  };

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"scheme", "latency_even", "latency_slow", "penalty",
                  "slow_proxy_share", "hit_rate_slow"});
  for (const auto scheme : {driver::Scheme::kAdc, driver::Scheme::kCarp,
                            driver::Scheme::kCoordinator, driver::Scheme::kSoap}) {
    driver::ExperimentConfig even = bench::paper_config(scale);
    even.scheme = scheme;
    even.sample_every = 0;
    driver::ExperimentConfig slow = even;
    slow.slow_proxy_index = 2;
    slow.slow_proxy_delay = 20;  // 10x the proxy-proxy link latency

    const auto even_result = driver::run_experiment(even, trace);
    const auto slow_result = driver::run_experiment(slow, trace);

    rows.push_back({std::string(driver::scheme_name(scheme)),
                    driver::fmt(even_result.summary.avg_latency(), 2),
                    driver::fmt(slow_result.summary.avg_latency(), 2),
                    driver::fmt(slow_result.summary.avg_latency() -
                                    even_result.summary.avg_latency(), 2),
                    driver::fmt(slow_share(slow_result), 3),
                    driver::fmt(slow_result.summary.hit_rate(), 3)});
  }
  // CARP's own remedy: shrink the slow member's load factor so the hash
  // assigns it a fraction of the URL space (CARP draft section 3.4).
  {
    driver::ExperimentConfig remedied = bench::paper_config(scale);
    remedied.scheme = driver::Scheme::kCarp;
    remedied.sample_every = 0;
    remedied.slow_proxy_index = 2;
    remedied.slow_proxy_delay = 20;
    remedied.carp_load_factors = {1.0, 1.0, 0.25, 1.0, 1.0};
    const auto result = driver::run_experiment(remedied, trace);
    rows.push_back({"carp+loadfactor", "-", driver::fmt(result.summary.avg_latency(), 2), "-",
                    driver::fmt(slow_share(result), 3),
                    driver::fmt(result.summary.hit_rate(), 3)});
  }

  driver::print_table(std::cout, rows);
  std::cout << "\n(slow_proxy_share: fraction of proxy-received requests landing on the\n"
            << " slow proxy; 0.2 = no avoidance over 5 proxies.  carp+loadfactor gives\n"
            << " the slow member a 0.25 CARP load factor — the draft's remedy.)\n";
  return 0;
}
