// The live workload: four ADC proxy daemons and the origin, each a
// NodeDaemon on its own thread in this process, serving one closed-loop
// LoadGenerator over 127.0.0.1 TCP with the payload store on.
#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/adc_proxy.h"
#include "driver/experiment.h"
#include "metrics.h"
#include "models.h"
#include "server/daemon.h"
#include "server/loadgen.h"
#include "workload/polygraph.h"

namespace perfbench {

namespace {

using adc::NodeId;
using adc::ObjectId;

constexpr double kTraceScale = 0.05;  // 199,500 requests, 149,500 of them timed
constexpr int kProxies = 4;           // the generator's connections fit in 4 cores
constexpr NodeId kOriginId = kProxies;
constexpr NodeId kClientId = kProxies + 1;
constexpr int kConcurrency = 4;
// The timed phases are replayed in this many windows, each long enough
// (about 7,500 requests) for a p99 with about 75 samples beyond it.
constexpr std::size_t kWindows = 20;
// One iteration (set-up plus the timed windows) takes about this long on
// the host that README.md describes.  A run makes a fixed number of iterations derived
// from --seconds alone, so that the best-of statistics below are always
// drawn from the same number of samples, however fast the build is.
constexpr double kSecondsPerIteration = 5.0;

adc::core::AdcConfig table_sizes() {
  adc::core::AdcConfig adc;
  adc.single_table_size = 1000;
  adc.multiple_table_size = 1000;
  adc.caching_table_size = 500;
  return adc;
}

adc::store::PayloadConfig payload_config(std::uint64_t seed) {
  adc::store::PayloadConfig payload;
  payload.enabled = true;
  payload.seed = seed;
  return payload;
}

/// Daemons bound on ephemeral loopback ports, each served by its own thread
/// until shutdown().  Threads are joined before the daemons are destroyed.
class Cluster {
 public:
  explicit Cluster(std::uint64_t seed) {
    std::map<NodeId, adc::net::Endpoint> endpoints;
    for (NodeId id = 0; id <= kOriginId; ++id) {
      adc::server::DaemonConfig config;
      config.node_id = id;
      config.role = id == kOriginId ? adc::server::DaemonRole::kOrigin
                                    : adc::server::DaemonRole::kAdcProxy;
      config.listen = adc::net::Endpoint{"127.0.0.1", 0};
      for (NodeId p = 0; p < kProxies; ++p) config.proxy_ids.push_back(p);
      config.origin_id = kOriginId;
      config.adc = table_sizes();
      config.seed = seed + static_cast<std::uint64_t>(id);
      config.payload = payload_config(seed);
      auto daemon = std::make_unique<adc::server::NodeDaemon>(config);
      std::string error;
      const std::uint16_t port = daemon->bind(&error);
      if (port == 0) throw std::runtime_error("daemon bind failed: " + error);
      endpoints[id] = adc::net::Endpoint{"127.0.0.1", port};
      daemons_.push_back(std::move(daemon));
    }
    for (auto& daemon : daemons_) daemon->set_peers(endpoints);
    for (const auto& [id, endpoint] : endpoints) {
      if (id != kOriginId) proxy_endpoints_[id] = endpoint;
    }
    for (auto& daemon : daemons_) {
      adc::server::NodeDaemon* d = daemon.get();
      threads_.emplace_back([d]() { d->run(); });
    }
  }

  ~Cluster() { shutdown(); }
  Cluster(const Cluster&) = delete;
  Cluster& operator=(const Cluster&) = delete;

  void shutdown() {
    for (auto& daemon : daemons_) daemon->stop();
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
  }

  const std::map<NodeId, adc::net::Endpoint>& proxy_endpoints() const { return proxy_endpoints_; }

  /// CPU seconds of each daemon thread, indexed by node id (threads must
  /// still be running).
  std::vector<double> thread_cpu() {
    std::vector<double> out;
    for (auto& thread : threads_) out.push_back(thread_cpu_seconds(thread.native_handle()));
    return out;
  }

  /// Read only after shutdown(): the loop threads own the counters.
  const std::vector<std::unique_ptr<adc::server::NodeDaemon>>& daemons() const { return daemons_; }

 private:
  std::vector<std::unique_ptr<adc::server::NodeDaemon>> daemons_;
  std::vector<std::thread> threads_;
  std::map<NodeId, adc::net::Endpoint> proxy_endpoints_;
};

/// One timed window's resource use.
struct Window {
  double req_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double cpu_us_per_req = 0.0;
  double proxy_cpu_us_per_req = 0.0;
  double origin_cpu_us_per_req = 0.0;
  double loadgen_cpu_us_per_req = 0.0;
  double busiest_daemon_busy = 0.0;
  double sys_us_per_req = 0.0;
  double ctx_switches_per_req = 0.0;
};

/// Whole-run totals over every replay of every iteration.
struct Totals {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;  // attempted but not completed
  std::uint64_t hits = 0;
  std::uint64_t hops = 0;
  std::uint64_t bytes = 0;
  std::uint64_t bytes_hit = 0;
  std::uint64_t frames_out = 0;
  std::uint64_t frames_in = 0;
  std::uint64_t proxy_deliveries = 0;
  std::uint64_t forwards_learned = 0;
  std::uint64_t forwards_random = 0;
  std::uint64_t forwards_origin = 0;
  std::uint64_t bodies_verified = 0;
  std::uint64_t body_failures = 0;
  std::uint64_t replays_incomplete = 0;
  std::uint64_t max_iteration_hits = 0;  // hits of the best whole replay
};

/// `sent` is the number of requests the replay was given.
void account(Totals& t, std::size_t sent, const adc::server::LoadGenReport& r) {
  t.attempted += sent;
  t.completed += r.completed;
  t.failed += sent - std::min<std::uint64_t>(sent, r.completed);
  t.hits += r.hits;
  t.hops += r.total_hops;
  t.bytes += r.bytes_completed;
  t.bytes_hit += r.bytes_hit;
  if (r.timed_out || r.failed != 0 || r.issued != sent || r.completed != sent) {
    ++t.replays_incomplete;
  }
}

double ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

}  // namespace

Outcome run_live_adc_loopback(const Options& options, SpanRecorder& spans) {
  const auto iterations = static_cast<std::size_t>(
      std::max(1.0, std::round(options.seconds / kSecondsPerIteration)));
  std::vector<double> setups;
  std::vector<double> trace_gens;
  std::vector<Window> windows;
  Totals totals;
  adc::workload::Trace trace;
  double peak_rss = 0.0;
  std::uint64_t timed_completed = 0;
  double timed_wall = 0.0;

  for (std::size_t iteration = 0; iteration < iterations; ++iteration) {
    const auto scope = spans.span("live.iteration", options.seed);
    const std::uint64_t hits_before = totals.hits;
    // Set-up: trace, cluster bind and boot, generator connect, and the
    // fill-phase warm-up that makes the lazy peer dials and fills caches.
    const auto setup_start = std::chrono::steady_clock::now();
    {
      const auto s = spans.span("workload.generate_polygraph_trace", options.seed);
      auto poly = adc::workload::PolygraphConfig::scaled(kTraceScale);
      poly.seed = options.seed;
      trace = adc::workload::generate_polygraph_trace(poly);
      trace_gens.push_back(seconds_since(setup_start));
    }
    std::unique_ptr<Cluster> cluster;
    {
      const auto s = spans.span("server.boot", options.seed);
      cluster = std::make_unique<Cluster>(options.seed);
    }
    adc::server::LoadGenConfig gen_config;
    gen_config.client_id = kClientId;
    gen_config.proxies = cluster->proxy_endpoints();
    gen_config.concurrency = kConcurrency;
    gen_config.entry = adc::server::EntryChoice::kRoundRobin;
    gen_config.seed = options.seed;
    gen_config.idle_timeout_ms = 30000;
    adc::server::LoadGenerator generator(std::move(gen_config));
    {
      const auto s = spans.span("server.connect", options.seed);
      std::string error;
      if (!generator.connect(&error)) throw std::runtime_error("loadgen connect: " + error);
    }
    const auto& requests = trace.requests();
    const auto fill_end = static_cast<std::ptrdiff_t>(trace.phases().fill_end);
    {
      const auto s = spans.span("server.warmup_replay", options.seed);
      const std::vector<ObjectId> fill(requests.begin(), requests.begin() + fill_end);
      account(totals, fill.size(), generator.run(fill));
    }
    setups.push_back(seconds_since(setup_start));

    const std::size_t timed = requests.size() - static_cast<std::size_t>(fill_end);
    for (std::size_t w = 0; w < kWindows; ++w) {
      const auto from = fill_end + static_cast<std::ptrdiff_t>(timed * w / kWindows);
      const auto to = fill_end + static_cast<std::ptrdiff_t>(timed * (w + 1) / kWindows);
      const std::vector<ObjectId> slice(requests.begin() + from, requests.begin() + to);

      const ProcessUsage usage0 = ProcessUsage::now();
      const std::vector<double> daemons0 = cluster->thread_cpu();
      const double gen0 = self_thread_cpu_seconds();
      const auto t0 = std::chrono::steady_clock::now();
      adc::server::LoadGenReport report;
      {
        const auto s = spans.span("server.timed_replay", options.seed, slice.size());
        report = generator.run(slice);
      }
      const double wall = seconds_since(t0);
      const double gen1 = self_thread_cpu_seconds();
      const std::vector<double> daemons1 = cluster->thread_cpu();
      const ProcessUsage usage1 = ProcessUsage::now();
      account(totals, slice.size(), report);

      const auto n = static_cast<double>(std::max<std::uint64_t>(report.completed, 1));
      Window win;
      win.req_per_s = report.throughput();
      win.p50_us = report.latency_p50_us;
      win.p99_us = report.latency_p99_us;
      win.p999_us = report.latency_p999_us;
      win.cpu_us_per_req = (usage1.cpu_s() - usage0.cpu_s()) * 1e6 / n;
      win.sys_us_per_req = (usage1.sys_s - usage0.sys_s) * 1e6 / n;
      win.ctx_switches_per_req = static_cast<double>(usage1.ctx_switches - usage0.ctx_switches) / n;
      win.loadgen_cpu_us_per_req = (gen1 - gen0) * 1e6 / n;
      double busiest = 0.0;
      for (std::size_t i = 0; i < daemons0.size(); ++i) {
        const double used = daemons1[i] - daemons0[i];
        busiest = std::max(busiest, used);
        if (static_cast<NodeId>(i) == kOriginId) {
          win.origin_cpu_us_per_req += used * 1e6 / n;
        } else {
          win.proxy_cpu_us_per_req += used * 1e6 / n;
        }
      }
      win.busiest_daemon_busy = ratio(busiest, wall);
      windows.push_back(win);
      timed_completed += report.completed;
      timed_wall += report.wall_seconds;
    }

    totals.max_iteration_hits = std::max(totals.max_iteration_hits, totals.hits - hits_before);
    // The first iteration holds everything the workload needs at once and
    // later ones only repeat it, so the peak is read once, here, and does
    // not depend on how many iterations the run makes.
    if (peak_rss == 0.0) peak_rss = peak_rss_mib();
    cluster->shutdown();
    for (const auto& daemon : cluster->daemons()) {
      const adc::server::DaemonStats& st = daemon->stats();
      totals.frames_out += st.frames_out;
      totals.frames_in += st.frames_in;
      totals.bodies_verified += st.bodies_verified;
      totals.body_failures += st.body_verify_failures;
      if (daemon->node_id() == kOriginId) continue;
      totals.proxy_deliveries += st.deliveries;
      const auto& adc_stats = dynamic_cast<const adc::core::AdcProxy&>(daemon->hosted()).stats();
      totals.forwards_learned += adc_stats.forwards_learned;
      totals.forwards_random += adc_stats.forwards_random;
      totals.forwards_origin += adc_stats.forwards_origin;
    }
  }

  Outcome out;
  out.attempted = totals.attempted;
  out.failed = totals.failed;
  out.check(totals.replays_incomplete == 0,
            "issued = completed in every replay, none failed or timed out");
  out.check(totals.body_failures == 0, "zero body-verification failures");
  out.check(totals.bodies_verified > 0, "bodies were verified");

  const auto completed = static_cast<double>(totals.completed);
  const double hit_rate = ratio(static_cast<double>(totals.hits), completed);
  const double mean_hops = ratio(static_cast<double>(totals.hops), completed);
  {
    // The simulator on the same trace, proxy count, entry rotation and
    // concurrency.
    adc::driver::ExperimentConfig sim;
    sim.scheme = adc::driver::Scheme::kAdc;
    sim.proxies = kProxies;
    sim.adc = table_sizes();
    sim.entry_policy = adc::proxy::EntryPolicy::kRoundRobin;
    sim.concurrency = kConcurrency;
    sim.seed = options.seed;
    sim.payload = payload_config(options.seed);
    const adc::driver::ExperimentResult expected = adc::driver::run_experiment(sim, trace);
    const double sim_hit = expected.summary.hit_rate();
    const double sim_hops = expected.summary.avg_hops();
    out.check(std::abs(hit_rate - sim_hit) <= 0.01 * sim_hit,
              "hit rate " + std::to_string(hit_rate) + " within 1% of the simulator's " +
                  std::to_string(sim_hit));
    out.check(std::abs(mean_hops - sim_hops) <= 0.01 * sim_hops,
              "mean hops " + std::to_string(mean_hops) + " within 1% of the simulator's " +
                  std::to_string(sim_hops));
  }
  const std::vector<Key> keys(trace.requests().begin(), trace.requests().end());
  const std::uint64_t belady = belady_bypass_hits(
      keys, static_cast<std::uint64_t>(kProxies) * table_sizes().caching_table_size);
  out.check(totals.max_iteration_hits <= belady,
            "hits " + std::to_string(totals.max_iteration_hits) + " <= Belady bound " +
                std::to_string(belady));

  // Window w of every iteration replays the same requests.  Each window
  // metric takes, per window, the best value any iteration reached, then
  // the mean over the windows: outside load only ever slows a window down,
  // so the best repeat is the one it left alone.
  const auto column = [&windows, iterations](double Window::*field, bool higher_is_better) {
    double sum = 0.0;
    for (std::size_t w = 0; w < kWindows; ++w) {
      double best = windows[w].*field;
      for (std::size_t i = 1; i < iterations; ++i) {
        const double v = windows[i * kWindows + w].*field;
        best = higher_is_better ? std::max(best, v) : std::min(best, v);
      }
      sum += best;
    }
    return sum / static_cast<double>(kWindows);
  };
  if (!options.trace) {
    EndToEnd e;
    e.setup_s = median(setups);
    e.req_per_s = column(&Window::req_per_s, true);
    e.peak_rss_mb = peak_rss;
    e.hit_rate = hit_rate;
    e.mean_hops = mean_hops;
    e.latency_p50_us = column(&Window::p50_us, false);
    e.latency_p99_us = column(&Window::p99_us, false);
    e.cpu_us_per_req = column(&Window::cpu_us_per_req, false);
    add_end_to_end(out, e);
    out.notes.push_back("latency_p999_us (reference) " +
                        std::to_string(column(&Window::p999_us, false)));
    out.notes.push_back("timed req/s over all windows " +
                        std::to_string(ratio(static_cast<double>(timed_completed), timed_wall)));
    return out;
  }

  LayerInputs in;
  in.objects = &trace.requests();
  in.adc = table_sizes();
  in.proxies = kProxies;
  in.lru_capacity = table_sizes().caching_table_size;
  in.payload = payload_config(options.seed);
  in.queue_depth = kConcurrency;
  const LayerCosts costs = measure_layer_costs(in, spans, options.seed);

  const double n = static_cast<double>(std::max<std::uint64_t>(totals.completed, 1));
  PerLayer p;
  p.trace_gen_s = median(trace_gens);
  p.byte_hit_rate = ratio(static_cast<double>(totals.bytes_hit), static_cast<double>(totals.bytes));
  p.frames_per_req = static_cast<double>(totals.frames_out) / n;
  p.forwards_per_req = static_cast<double>(totals.forwards_learned + totals.forwards_random +
                                           totals.forwards_origin) / n;
  p.learned_forward_ratio =
      ratio(static_cast<double>(totals.forwards_learned),
            static_cast<double>(totals.forwards_learned + totals.forwards_random));
  p.proxy_cpu_us_per_req = column(&Window::proxy_cpu_us_per_req, false);
  p.origin_cpu_us_per_req = column(&Window::origin_cpu_us_per_req, false);
  p.loadgen_cpu_us_per_req = column(&Window::loadgen_cpu_us_per_req, false);
  p.busiest_daemon_busy = column(&Window::busiest_daemon_busy, false);
  p.sys_us_per_req = column(&Window::sys_us_per_req, false);
  p.ctx_switches_per_req = column(&Window::ctx_switches_per_req, false);
  p.traced_req_per_s = column(&Window::req_per_s, true);
  // Calls per request of each costed entry point: the generator encodes
  // one request and decodes one reply per request besides the daemons'
  // frames; every verified body was also materialised by its sender; each
  // proxy delivery is a lookup (request) or a table update (reply).
  const double encodes = (static_cast<double>(totals.frames_out) + n) / n;
  const double decodes = (static_cast<double>(totals.frames_in) + n) / n;
  const double bodies = static_cast<double>(totals.bodies_verified) / n;
  const double proxy_half = static_cast<double>(totals.proxy_deliveries) / (2.0 * n);
  const double accounted_ns = costs.encode_ns * encodes + costs.decode_ns * decodes +
                              costs.body_ns * 2.0 * bodies + costs.size_of_ns * bodies +
                              (costs.lookup_ns + costs.update_entry_ns) * proxy_half;
  p.unaccounted_cpu_us_per_req = column(&Window::cpu_us_per_req, false) - accounted_ns * 1e-3;
  add_per_layer(out, p, costs);
  return out;
}

}  // namespace perfbench
