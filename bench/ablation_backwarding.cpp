// Ablation ABL-BWD — multicasting by backwarding (every proxy on the
// return path learns the resolver, the paper's Section III.2 mechanism)
// vs learning only at the resolving end.
//
// Without the multicast, location knowledge spreads one proxy per request
// instead of path-length proxies per request, so agreement — and with it
// the learned-forwarding hit rate — should build much more slowly.
#include <iostream>

#include "bench_common.h"

int adc::bench::ablation_backwarding(bench::Context& ctx) {
  const double scale = ctx.scale;
  const workload::Trace& trace = ctx.trace();
  bench::print_run_banner(ctx);

  driver::ExperimentConfig multicast = bench::paper_config(scale);
  driver::ExperimentConfig endpoint_only = multicast;
  endpoint_only.adc.backward_multicast = false;

  const driver::ExperimentResult on_result = driver::run_experiment(multicast, trace);
  const driver::ExperimentResult off_result = driver::run_experiment(endpoint_only, trace);

  driver::print_summary(std::cout, "backwarding/on ", on_result);
  driver::print_summary(std::cout, "backwarding/off", off_result);

  std::cout << "\nlearned_forwards on=" << on_result.adc_totals.forwards_learned
            << " off=" << off_result.adc_totals.forwards_learned
            << "\nrandom_forwards  on=" << on_result.adc_totals.forwards_random
            << " off=" << off_result.adc_totals.forwards_random << '\n';
  return 0;
}
