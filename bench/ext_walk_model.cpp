// Extension EXT-MODEL — analytical walk model vs measured behaviour.
//
// The paper's conclusion asks for "a theoretical framework to explain
// emerging attributes"; driver/walk_model.h is the first piece: an exact
// absorbing-chain evaluation of the cold random search.  This bench prints
// the model's hit probability and expected hops per replica count next to
// measurements from the real simulator (fresh deployment per sample, r
// warmed holders, one probe each).
#include <iostream>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "core/adc_proxy.h"
#include "driver/walk_model.h"
#include "proxy/client.h"
#include "proxy/origin_server.h"
#include "sim/simulator.h"

namespace {

using namespace adc;

struct Measured {
  double hit_rate;
  double hops;
};

Measured measure(int proxies, int replicas, int max_forwards, int samples) {
  std::uint64_t hits = 0;
  double hops = 0.0;
  for (int s = 0; s < samples; ++s) {
    core::AdcConfig config;
    config.single_table_size = 64;
    config.multiple_table_size = 64;
    config.caching_table_size = 16;
    config.max_forwards = max_forwards;

    sim::Simulator sim(static_cast<std::uint64_t>(s) + 1);
    std::vector<NodeId> ids;
    for (int i = 0; i < proxies; ++i) ids.push_back(i);
    std::vector<core::AdcProxy*> nodes;
    for (int i = 0; i < proxies; ++i) {
      auto node = std::make_unique<core::AdcProxy>(i, "p" + std::to_string(i), config, ids,
                                                   static_cast<NodeId>(proxies));
      nodes.push_back(node.get());
      sim.add_node(std::move(node));
    }
    sim.add_node(std::make_unique<proxy::OriginServer>(static_cast<NodeId>(proxies), "origin"));
    proxy::VectorStream stream({42});
    auto client_node = std::make_unique<proxy::Client>(static_cast<NodeId>(proxies + 1),
                                                       "client", stream, ids);
    auto* client = client_node.get();
    sim.add_node(std::move(client_node));
    for (int i = 0; i < replicas; ++i) nodes[static_cast<std::size_t>(i)]->warm_cache(42);

    client->start(sim);
    sim.run();
    hits += sim.metrics().summary().hits;
    hops += sim.metrics().summary().avg_hops();
  }
  return {static_cast<double>(hits) / samples, hops / samples};
}

}  // namespace

int adc::bench::ext_walk_model(bench::Context& ctx) {
  constexpr int kProxies = 5;
  constexpr int kForwards = 8;
  constexpr int kSamples = 4000;

  std::cout << "# " << ctx.title << " (n=" << kProxies << ", F=" << kForwards << ", "
            << kSamples << " samples per point)\n";

  std::vector<std::vector<std::string>> rows;
  rows.push_back({"replicas", "model_hit", "sim_hit", "model_hops", "sim_hops"});
  for (int replicas = 0; replicas <= kProxies; ++replicas) {
    const driver::WalkPrediction model =
        driver::predict_walk({kProxies, replicas, kForwards});
    const Measured sim = measure(kProxies, replicas, kForwards, kSamples);
    rows.push_back({std::to_string(replicas), driver::fmt(model.hit_probability, 4),
                    driver::fmt(sim.hit_rate, 4), driver::fmt(model.expected_hops, 3),
                    driver::fmt(sim.hops, 3)});
  }
  driver::print_table(std::cout, rows);
  std::cout << "\n(each simulator point: fresh 5-proxy deployment per sample, r proxies\n"
            << " warmed, one cold probe — the regime the chain models.)\n";
  return 0;
}
