// The two simulator workloads: the paper's Fig-11 ADC deployment, and CARP
// over eight proxies with the payload store, erasure striping, the link
// model and SWIM membership all on.
#include <algorithm>
#include <string>
#include <vector>

#include "driver/experiment.h"
#include "hash/carp.h"
#include "metrics.h"
#include "models.h"
#include "workload/polygraph.h"

namespace perfbench {

namespace {

using adc::driver::ExperimentConfig;
using adc::driver::ExperimentResult;

constexpr double kTraceScale = 0.1;  // the bench default: 399,000 requests
constexpr int kSetupRepeats = 15;

std::size_t scaled(std::size_t paper_value) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(static_cast<double>(paper_value) *
                                                            kTraceScale));
}

/// Set-up of a simulator workload is generating its trace; it is done
/// kSetupRepeats times and the median reported.
struct Setup {
  adc::workload::Trace trace;
  double setup_s = 0.0;
};

Setup generate(std::uint64_t seed, SpanRecorder& spans) {
  Setup out;
  std::vector<double> samples;
  for (int i = 0; i < kSetupRepeats; ++i) {
    auto config = adc::workload::PolygraphConfig::scaled(kTraceScale);
    config.seed = seed;
    const auto start = std::chrono::steady_clock::now();
    {
      const auto scope = spans.span("workload.generate_polygraph_trace", seed);
      out.trace = adc::workload::generate_polygraph_trace(config);
    }
    samples.push_back(seconds_since(start));
  }
  out.setup_s = median(samples);
  return out;
}

/// Repeats run_experiment on one trace for the run's measuring time.
struct Measured {
  ExperimentResult first;
  std::vector<double> call_s;
  std::vector<double> loop_s;  // ExperimentResult::wall_seconds of each call
  std::vector<double> cpu_s;   // CPU time of each call (the simulator is single-threaded)
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  ProcessUsage usage;  // consumed over all calls
  double peak_rss_mb = 0.0;   // read before the output checks allocate
  bool deterministic = true;  // every call reproduced the first's outcome
};

Measured measure(const ExperimentConfig& config, const adc::workload::Trace& trace,
                 const Options& options, SpanRecorder& spans) {
  Measured out;
  const ProcessUsage before = ProcessUsage::now();
  const auto begin = std::chrono::steady_clock::now();
  do {
    const auto start = std::chrono::steady_clock::now();
    const double cpu_start = self_thread_cpu_seconds();
    ExperimentResult result;
    {
      const auto scope = spans.span("driver.run_experiment", options.seed);
      result = adc::driver::run_experiment(config, trace);
    }
    out.call_s.push_back(seconds_since(start));
    out.cpu_s.push_back(self_thread_cpu_seconds() - cpu_start);
    out.loop_s.push_back(result.wall_seconds);
    const auto& summary = result.summary;
    out.completed += summary.completed;
    // Requests the run did not complete: timed out or never resolved.
    out.failed += trace.size() - std::min<std::uint64_t>(trace.size(), summary.completed);
    if (out.call_s.size() == 1) {
      out.first = std::move(result);
    } else if (result.summary.hits != out.first.summary.hits ||
               result.summary.total_hops != out.first.summary.total_hops ||
               result.summary.bytes_hit != out.first.summary.bytes_hit ||
               result.events != out.first.events) {
      out.deterministic = false;
    }
  } while (seconds_since(begin) < options.seconds);
  const ProcessUsage after = ProcessUsage::now();
  out.peak_rss_mb = peak_rss_mib();
  out.usage.user_s = after.user_s - before.user_s;
  out.usage.sys_s = after.sys_s - before.sys_s;
  out.usage.ctx_switches = after.ctx_switches - before.ctx_switches;
  return out;
}

double per_req(double value, std::uint64_t completed) {
  return completed == 0 ? 0.0 : value / static_cast<double>(completed);
}

/// Req/s of each call, over the whole run_experiment call so that work
/// moved out of the event loop still shows.
std::vector<double> call_rates(const Measured& m) {
  std::vector<double> rates;
  for (const double s : m.call_s) {
    rates.push_back(static_cast<double>(m.first.summary.completed) / s);
  }
  return rates;
}

EndToEnd end_to_end(const Setup& setup, const Measured& m) {
  const auto& summary = m.first.summary;
  EndToEnd e;
  e.setup_s = setup.setup_s;
  // Every call replays the same trace; the throughput and CPU figures are
  // interquartile means over the calls, which shrug off a few calls that
  // ran while the host was unusually slow or fast.
  e.req_per_s = interquartile_mean(call_rates(m));
  e.peak_rss_mb = m.peak_rss_mb;
  e.hit_rate = summary.hit_rate();
  e.mean_hops = summary.avg_hops();
  // A simulator user waits for a whole experiment, so its latency is the
  // duration of a run_experiment call: the interquartile mean and the upper
  // quartile of the calls, which one descheduled call cannot move.  Both
  // repeat req_per_s, since every call replays the same requests.
  e.latency_p50_us = interquartile_mean(m.call_s) * 1e6;
  e.latency_p99_us = percentile(m.call_s, 0.75) * 1e6;
  std::vector<double> cpu_us_per_req;
  for (const double cpu : m.cpu_s) cpu_us_per_req.push_back(per_req(cpu * 1e6, summary.completed));
  e.cpu_us_per_req = interquartile_mean(cpu_us_per_req);
  return e;
}

/// Per-layer metrics of a simulator run, from the experiment's counters and
/// the layer costs measured on the same inputs.
PerLayer per_layer(const Setup& setup, const Measured& m, const LayerCosts& costs,
                   bool adc_scheme) {
  const ExperimentResult& r = m.first;
  const auto& s = r.summary;
  const std::uint64_t n = s.completed;
  PerLayer p;
  p.events_per_req = per_req(static_cast<double>(r.events), n);
  p.loop_s = median(m.loop_s);
  p.ns_per_event = r.events == 0 ? 0.0 : p.loop_s * 1e9 / static_cast<double>(r.events);
  p.outside_loop_s = median(m.call_s) - p.loop_s;
  p.trace_gen_s = setup.setup_s;
  const auto& a = r.adc_totals;
  p.forwards_per_req =
      per_req(static_cast<double>(a.forwards_learned + a.forwards_random + a.forwards_origin), n);
  const std::uint64_t searched = a.forwards_learned + a.forwards_random;
  p.learned_forward_ratio =
      searched == 0 ? 0.0 : static_cast<double>(a.forwards_learned) / static_cast<double>(searched);
  p.byte_hit_rate = s.byte_hit_rate();
  p.store_msgs_per_req = per_req(static_cast<double>(s.traffic.store_messages), n);
  p.link_transfers_per_req = per_req(static_cast<double>(r.link.transfers), n);
  p.link_queued_per_req = per_req(static_cast<double>(r.link.queued), n);
  p.control_msgs_per_req = per_req(static_cast<double>(s.traffic.control_messages), n);
  p.sys_us_per_req = per_req(m.usage.sys_s * 1e6, m.completed);
  p.ctx_switches_per_req = per_req(static_cast<double>(m.usage.ctx_switches), m.completed);

  // Calls per request of each costed entry point, counted from the
  // message totals: a proxy looks up every request it receives and updates
  // its tables with every reply it relays.
  const double proxy_requests =
      per_req(static_cast<double>(s.traffic.request_messages - r.origin_served), n);
  const std::uint64_t client_replies = std::min(n, s.traffic.reply_messages);
  const double proxy_replies =
      per_req(static_cast<double>(s.traffic.reply_messages - client_replies), n);
  const bool payload = s.bytes_completed > 0;
  double accounted = costs.queue_ns * p.events_per_req;
  if (adc_scheme) {
    accounted += costs.lookup_ns * proxy_requests + costs.update_entry_ns * proxy_replies;
  } else {
    accounted += costs.carp_owner_ns * proxy_requests + costs.lru_access_ns;
  }
  if (payload) {
    accounted += costs.size_of_ns * per_req(static_cast<double>(s.traffic.reply_messages), n);
  }
  accounted += costs.schedule_ns * p.link_transfers_per_req;
  p.unaccounted_ns_per_req = per_req(median(m.call_s) * 1e9, n) - accounted;
  p.traced_req_per_s = interquartile_mean(call_rates(m));
  return p;
}

LayerInputs layer_inputs(const ExperimentConfig& config, const adc::workload::Trace& trace) {
  LayerInputs in;
  in.objects = &trace.requests();
  in.adc = config.adc;
  in.proxies = config.proxies;
  in.lru_capacity = config.adc.caching_table_size;
  in.payload = config.payload;
  // Queued events: the request or reply of each closed-loop stream, plus
  // the membership tick and a probe per proxy, and one transfer per proxy
  // egress, when those layers are on.
  const auto proxies = static_cast<std::size_t>(config.proxies);
  in.queue_depth = static_cast<std::size_t>(config.concurrency) +
                   (config.membership.swim.enabled ? 1 + proxies : 0) +
                   (config.link.enabled ? proxies : 0);
  return in;
}

std::vector<perfbench::Key> keys_of(const adc::workload::Trace& trace) {
  return {trace.requests().begin(), trace.requests().end()};
}

/// Common tail of both simulator workloads: operation accounting and the
/// metrics of the requested mode.
Outcome finish(const Options& options, SpanRecorder& spans, const ExperimentConfig& config,
               const Setup& setup, const Measured& m, Outcome out) {
  out.attempted = static_cast<std::uint64_t>(m.call_s.size()) * setup.trace.size();
  out.failed = m.failed;
  out.check(m.deterministic, "every run_experiment call reproduced the first one's outcome");
  if (!options.trace) {
    add_end_to_end(out, end_to_end(setup, m));
    return out;
  }
  const LayerCosts costs = measure_layer_costs(layer_inputs(config, setup.trace), spans,
                                               options.seed);
  add_per_layer(out, per_layer(setup, m, costs, config.scheme == adc::driver::Scheme::kAdc),
                costs);
  return out;
}

}  // namespace

Outcome run_sim_adc_fig11(const Options& options, SpanRecorder& spans) {
  const Setup setup = generate(options.seed, spans);

  ExperimentConfig config;
  config.scheme = adc::driver::Scheme::kAdc;
  config.proxies = 5;
  config.adc.single_table_size = scaled(20000);
  config.adc.multiple_table_size = scaled(20000);
  config.adc.caching_table_size = scaled(10000);
  config.ma_window = scaled(5000);
  config.sample_every = scaled(5000);
  config.seed = options.seed;

  const Measured m = measure(config, setup.trace, options, spans);
  const auto& s = m.first.summary;
  const std::uint64_t n = setup.trace.size();

  Outcome out;
  out.check(s.completed == n && s.failed == 0, "completed = trace length, none failed");
  out.check(s.hits + m.first.origin_served == s.completed,
            "hits + origin fetches = completed");
  const auto keys = keys_of(setup.trace);
  const std::uint64_t capacity =
      static_cast<std::uint64_t>(config.proxies) * config.adc.caching_table_size;
  const std::uint64_t belady = belady_bypass_hits(keys, capacity);
  const std::uint64_t compulsory = compulsory_hit_bound(keys);
  out.check(s.hits <= belady, "hits " + std::to_string(s.hits) + " <= Belady bound " +
                                  std::to_string(belady));
  out.check(belady <= compulsory, "Belady bound " + std::to_string(belady) +
                                      " <= compulsory-miss bound " + std::to_string(compulsory));
  out.check(s.avg_hops() >= 2.0 + 2.0 * (1.0 - s.hit_rate()) - 1e-12,
            "mean_hops >= 2 + 2 * (1 - hit_rate)");
  return finish(options, spans, config, setup, m, std::move(out));
}

Outcome run_sim_carp_bytes(const Options& options, SpanRecorder& spans) {
  const Setup setup = generate(options.seed, spans);

  ExperimentConfig config;
  config.scheme = adc::driver::Scheme::kCarp;
  config.proxies = 8;
  config.adc.caching_table_size = scaled(10000);  // the baseline LRU's capacity
  config.seed = options.seed;
  config.ma_window = scaled(5000);
  config.sample_every = scaled(5000);
  config.payload.enabled = true;
  config.payload.seed = options.seed;
  config.payload.erasure.enabled = true;
  config.payload.erasure.data_chunks = 3;
  config.link = capped_links();
  config.membership.swim.enabled = true;

  const Measured m = measure(config, setup.trace, options, spans);
  const auto& s = m.first.summary;
  const std::uint64_t n = setup.trace.size();

  Outcome out;
  out.check(s.completed == n && s.failed == 0, "completed = trace length, none failed");
  out.check(m.first.membership.deaths == 0, "no SWIM death declared");

  // Exact replay: CARP's owner function and the store's sizes are the only
  // pieces of the program the model uses.
  std::vector<adc::hash::CarpArray::Member> members;
  for (int i = 0; i < config.proxies; ++i) {
    members.push_back({"proxy[" + std::to_string(i) + "]", static_cast<adc::NodeId>(i), 1.0});
  }
  const adc::hash::CarpArray carp(std::move(members));
  const adc::store::PayloadStore sizes(config.payload);
  const auto keys = keys_of(setup.trace);
  const LruReplay replay = per_owner_lru(
      keys, static_cast<std::size_t>(config.proxies), config.adc.caching_table_size,
      [&carp](Key k) { return carp.owner_index(static_cast<adc::ObjectId>(k)); },
      [&sizes](Key k) { return sizes.size_of(static_cast<adc::ObjectId>(k)); });
  out.check(s.hits == replay.hits, "hits " + std::to_string(s.hits) + " = LRU replay " +
                                       std::to_string(replay.hits));
  out.check(s.bytes_hit == replay.hit_bytes, "hit bytes " + std::to_string(s.bytes_hit) +
                                                 " = LRU replay " +
                                                 std::to_string(replay.hit_bytes));
  const std::uint64_t belady = belady_bypass_hits(
      keys, static_cast<std::uint64_t>(config.proxies) * config.adc.caching_table_size);
  out.check(s.hits <= belady, "hits " + std::to_string(s.hits) + " <= Belady bound " +
                                  std::to_string(belady));
  return finish(options, spans, config, setup, m, std::move(out));
}

}  // namespace perfbench
