#include "driver/experiment.h"

#include <algorithm>
#include <chrono>
#include <memory>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "fault/faulty_network.h"
#include "link/transfer_scheduler.h"
#include "hash/consistent_hash.h"
#include "hash/rendezvous.h"
#include "proxy/coordinator.h"
#include "proxy/hashing_proxy.h"
#include "proxy/hierarchical_proxy.h"
#include "proxy/origin_server.h"
#include "proxy/soap_proxy.h"
#include "sim/simulator.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace adc::driver {
namespace {

std::size_t baseline_capacity(const ExperimentConfig& config) {
  return config.baseline_cache_capacity != 0 ? config.baseline_cache_capacity
                                             : config.adc.caching_table_size;
}

/// True for the schemes whose proxies can run under a MemberAgent wrapper
/// (the others have a topology fixed by construction — a hierarchy root or
/// a central coordinator — that live membership cannot rewire).
bool membership_supported(Scheme scheme) noexcept {
  return scheme == Scheme::kAdc || scheme == Scheme::kCarp ||
         scheme == Scheme::kConsistent || scheme == Scheme::kRendezvous;
}

// Cold-restarts a proxy node: its cache and learned tables are wiped,
// connectivity survives.  Shared by the milestone-triggered FaultSpec and
// the time-triggered crash windows of a FaultPlan.
void flush_proxy(sim::Simulator& sim, NodeId victim) {
  sim::Node& node = sim.node(victim);
  node.flush();
  ADC_LOG_INFO << "fault injected: flushed " << node.name() << " at t=" << sim.now();
}

// Folds one proxy's erasure-tier counters into the run totals (null tier
// — store or erasure disabled — contributes nothing).
void collect_erasure(ExperimentResult::StoreSummary& out, const store::ErasureTier* tier) {
  if (tier == nullptr) return;
  const store::ErasureStats& s = tier->stats();
  out.stripes_registered += s.stripes_registered;
  out.chunks_stored += s.chunks_stored;
  out.chunks_evicted += s.chunks_evicted;
  out.chunk_requests_sent += s.chunk_requests_sent;
  out.chunk_replies_served += s.chunk_replies_served;
  out.chunk_bytes_sent += s.chunk_bytes_sent;
  out.degraded_started += s.degraded_started;
  out.degraded_recovered += s.degraded_recovered;
  out.degraded_failed += s.degraded_failed;
  out.recovered_bytes += s.recovered_bytes;
  out.chunk_requests_skipped += s.chunk_requests_skipped;
  out.directory_entries += tier->directory_entries();
  out.directory_bytes += tier->directory_bytes();
  out.stripes_healed += s.stripes_healed;
  out.repair_adopted += s.restripe_adopted;
  out.repair_handbacks += s.restripe_handbacks;
  const store::RestripeStats& r = tier->restripe_stats();
  out.repair_offers += r.offers_sent;
  out.repair_retries += r.retries;
  out.repair_rounds += r.rounds;
  out.repair_bytes += r.repair_bytes;
  out.repair_abandoned += r.items_abandoned;
  out.repair_cancelled += r.items_cancelled;
  out.repair_round_bytes_max = std::max(out.repair_round_bytes_max, r.round_bytes_max);
}

}  // namespace

std::string_view scheme_name(Scheme scheme) noexcept {
  switch (scheme) {
    case Scheme::kAdc:
      return "adc";
    case Scheme::kCarp:
      return "carp";
    case Scheme::kConsistent:
      return "consistent";
    case Scheme::kRendezvous:
      return "rendezvous";
    case Scheme::kHierarchical:
      return "hierarchical";
    case Scheme::kCoordinator:
      return "coordinator";
    case Scheme::kSoap:
      return "soap";
  }
  return "adc";
}

std::optional<Scheme> parse_scheme(std::string_view name) noexcept {
  const std::string lowered = util::to_lower(name);
  if (lowered == "adc") return Scheme::kAdc;
  if (lowered == "carp" || lowered == "hash" || lowered == "hashing") return Scheme::kCarp;
  if (lowered == "consistent" || lowered == "ring") return Scheme::kConsistent;
  if (lowered == "rendezvous" || lowered == "hrw") return Scheme::kRendezvous;
  if (lowered == "hierarchical" || lowered == "hier") return Scheme::kHierarchical;
  if (lowered == "coordinator" || lowered == "central") return Scheme::kCoordinator;
  if (lowered == "soap") return Scheme::kSoap;
  return std::nullopt;
}

ExperimentResult run_experiment(const ExperimentConfig& config, const workload::Trace& trace) {
  // Input checks that must hold in release builds too: each names a proxy
  // (or one entry per proxy), and an index past the deployment would read
  // outside it or silently configure nothing.
  if (config.proxies < 1) {
    throw std::invalid_argument("proxies " + std::to_string(config.proxies) +
                                " must be at least 1");
  }
  if (config.scheme == Scheme::kCarp && !config.carp_load_factors.empty() &&
      config.carp_load_factors.size() != static_cast<std::size_t>(config.proxies)) {
    throw std::invalid_argument("carp_load_factors has " +
                                std::to_string(config.carp_load_factors.size()) +
                                " entries for " + std::to_string(config.proxies) + " proxies");
  }
  if (config.slow_proxy_delay > 0 &&
      (config.slow_proxy_index < 0 || config.slow_proxy_index >= config.proxies)) {
    throw std::invalid_argument("slow_proxy_index " + std::to_string(config.slow_proxy_index) +
                                " is not a proxy index in [0, " +
                                std::to_string(config.proxies) + ")");
  }
  if (config.fault.at_completed > 0 &&
      (config.fault.proxy_index < 0 || config.fault.proxy_index >= config.proxies)) {
    throw std::invalid_argument("fault.proxy_index " + std::to_string(config.fault.proxy_index) +
                                " is not a proxy index in [0, " +
                                std::to_string(config.proxies) + ")");
  }
  for (const fault::CrashWindow& window : config.fault_plan.crashes) {
    if (window.flush_state && (window.node < 0 || window.node >= config.proxies)) {
      throw std::invalid_argument("crash window with flush_state names node " +
                                  std::to_string(window.node) + ", not a proxy in [0, " +
                                  std::to_string(config.proxies) + ")");
    }
  }
  // Scheme x feature combinations the deployment cannot honour are
  // rejected, not silently dropped from the run.
  const std::string scheme(scheme_name(config.scheme));
  if (config.membership.swim.enabled && !membership_supported(config.scheme)) {
    throw std::invalid_argument("membership.swim.enabled is not supported for scheme " + scheme +
                                " (its topology is fixed by construction)");
  }
  if (config.payload.enabled && config.scheme == Scheme::kSoap) {
    throw std::invalid_argument("payload.enabled is not supported for scheme soap");
  }
  const bool erasure_on = config.payload.enabled && config.payload.erasure.enabled;
  if (erasure_on &&
      (config.scheme == Scheme::kHierarchical || config.scheme == Scheme::kCoordinator)) {
    throw std::invalid_argument("payload.erasure.enabled: scheme " + scheme +
                                " hosts no erasure tier");
  }
  if (config.payload.erasure.restripe && !erasure_on) {
    throw std::invalid_argument(
        "payload.erasure.restripe needs payload.enabled and payload.erasure.enabled");
  }
  if (config.payload.erasure.restripe && !config.membership.swim.enabled) {
    throw std::invalid_argument(
        "payload.erasure.restripe needs membership.swim.enabled (deaths come from SWIM)");
  }

  sim::Simulator sim(config.seed, config.latency);
  sim.set_metrics(sim::MetricsCollector(config.ma_window, config.sample_every));

  const int p = config.proxies;
  std::vector<NodeId> proxy_ids;
  proxy_ids.reserve(static_cast<std::size_t>(p));
  for (int i = 0; i < p; ++i) proxy_ids.push_back(static_cast<NodeId>(i));

  // Node id layout: proxies [0, p), then scheme-specific extras, then the
  // origin, then the client.  Entry proxies are what the client targets.
  std::vector<NodeId> entry_proxies = proxy_ids;
  NodeId next_id = static_cast<NodeId>(p);
  NodeId root_id = kInvalidNode;
  NodeId coordinator_id = kInvalidNode;
  if (config.scheme == Scheme::kHierarchical) root_id = next_id++;
  if (config.scheme == Scheme::kCoordinator) coordinator_id = next_id++;
  const NodeId origin_id = next_id++;
  const NodeId client_id = next_id++;

  // Payload store: one immutable instance shared by every node of the run
  // (sizes and chunk patterns are pure functions of it).  Null while
  // disabled, and then nothing below touches it — store-free runs stay
  // bit-identical.
  store::PayloadStorePtr payload_store;
  if (config.payload.enabled) {
    payload_store = std::make_shared<const store::PayloadStore>(config.payload);
  }
  const store::StoreContext store_ctx{payload_store, proxy_ids};

  const bool membership_on = config.membership.swim.enabled;
  // The flat-membership proxies (ADC and the hashing baselines) by proxy
  // index, and — with membership on — the MemberAgent wrapping each.  Both
  // stay empty for the schemes with a fixed topology.
  std::vector<membership::MemberNode*> members;
  std::vector<membership::MemberAgent*> agents;
  const auto add_member = [&](std::unique_ptr<membership::MemberNode> proxy) {
    members.push_back(proxy.get());
    if (!membership_on) {
      sim.add_node(std::move(proxy));
      return;
    }
    auto agent = std::make_unique<membership::MemberAgent>(std::move(proxy), proxy_ids,
                                                           config.membership);
    agents.push_back(agent.get());
    sim.add_node(std::move(agent));
  };

  // A hashing proxy over the scheme's owner map; with membership on,
  // `factory` recomputes that map from a surviving membership.
  const auto add_hashing_proxy = [&](int i, std::shared_ptr<const proxy::OwnerMap> owners,
                                     const proxy::HashingProxy::OwnerMapFactory& factory) {
    auto hp = std::make_unique<proxy::HashingProxy>(
        proxy_ids[static_cast<std::size_t>(i)], proxy::proxy_name(i), std::move(owners),
        origin_id, baseline_capacity(config), config.baseline_policy, config.entry_caching);
    if (payload_store != nullptr) hp->enable_store(store_ctx);
    if (membership_on) hp->set_owner_map_factory(factory, proxy_ids);
    add_member(std::move(hp));
  };

  switch (config.scheme) {
    case Scheme::kAdc: {
      for (int i = 0; i < p; ++i) {
        auto adc = std::make_unique<core::AdcProxy>(proxy_ids[static_cast<std::size_t>(i)],
                                                    proxy::proxy_name(i), config.adc,
                                                    proxy_ids, origin_id);
        if (payload_store != nullptr) adc->enable_store(store_ctx);
        add_member(std::move(adc));
      }
      break;
    }
    case Scheme::kCarp: {
      // Rebuilds keep each surviving member's name and load factor, so
      // ownership of the untouched key space is stable.
      const proxy::HashingProxy::OwnerMapFactory factory =
          [load_factors = config.carp_load_factors](const std::vector<NodeId>& ids) {
            return proxy::make_carp_owners(ids, load_factors);
          };
      const auto owners = factory(proxy_ids);
      for (int i = 0; i < p; ++i) add_hashing_proxy(i, owners, factory);
      break;
    }
    case Scheme::kConsistent: {
      const proxy::HashingProxy::OwnerMapFactory factory =
          [](const std::vector<NodeId>& ids) -> std::shared_ptr<const proxy::OwnerMap> {
        hash::ConsistentHashRing ring;
        for (const NodeId id : ids) ring.add_member(id, proxy::proxy_name(id));
        return std::make_shared<proxy::RingOwnerMap>(std::move(ring));
      };
      auto owners = factory(proxy_ids);
      for (int i = 0; i < p; ++i) add_hashing_proxy(i, owners, factory);
      break;
    }
    case Scheme::kRendezvous: {
      const proxy::HashingProxy::OwnerMapFactory factory =
          [](const std::vector<NodeId>& ids) -> std::shared_ptr<const proxy::OwnerMap> {
        hash::RendezvousHash hrw;
        for (const NodeId id : ids) hrw.add_member(id, proxy::proxy_name(id));
        return std::make_shared<proxy::RendezvousOwnerMap>(std::move(hrw));
      };
      auto owners = factory(proxy_ids);
      for (int i = 0; i < p; ++i) add_hashing_proxy(i, owners, factory);
      break;
    }
    case Scheme::kHierarchical: {
      for (int i = 0; i < p; ++i) {
        auto leaf = std::make_unique<proxy::CacheNode>(proxy_ids[static_cast<std::size_t>(i)],
                                                       proxy::proxy_name(i), root_id,
                                                       baseline_capacity(config),
                                                       config.baseline_policy);
        if (payload_store != nullptr) leaf->enable_store(store_ctx);
        sim.add_node(std::move(leaf));
      }
      const std::size_t root_capacity = config.root_cache_capacity != 0
                                            ? config.root_cache_capacity
                                            : baseline_capacity(config);
      auto root = std::make_unique<proxy::CacheNode>(root_id, "root", origin_id, root_capacity,
                                                     config.baseline_policy);
      if (payload_store != nullptr) root->enable_store(store_ctx);
      sim.add_node(std::move(root));
      break;
    }
    case Scheme::kCoordinator: {
      for (int i = 0; i < p; ++i) {
        auto backend = std::make_unique<proxy::CacheNode>(proxy_ids[static_cast<std::size_t>(i)],
                                                          proxy::proxy_name(i), origin_id,
                                                          baseline_capacity(config),
                                                          config.baseline_policy);
        if (payload_store != nullptr) backend->enable_store(store_ctx);
        sim.add_node(std::move(backend));
      }
      sim.add_node(std::make_unique<proxy::Coordinator>(coordinator_id, "coordinator",
                                                        proxy_ids));
      entry_proxies = {coordinator_id};
      break;
    }
    case Scheme::kSoap: {
      auto categories = std::make_shared<proxy::CategoryMap>(config.soap_categories);
      for (int i = 0; i < p; ++i) {
        sim.add_node(std::make_unique<proxy::SoapProxy>(
            proxy_ids[static_cast<std::size_t>(i)], proxy::proxy_name(i), categories, proxy_ids,
            origin_id, baseline_capacity(config)));
      }
      break;
    }
  }

  sim::VersionOraclePtr oracle;
  if (config.object_update_interval > 0) {
    oracle = std::make_shared<sim::VersionOracle>(config.object_update_interval);
  }
  auto origin = std::make_unique<proxy::OriginServer>(origin_id, "origin", oracle);
  origin->set_sizer(payload_store);
  sim.add_node(std::move(origin));

  TraceStream stream(trace);
  auto client_ptr = std::make_unique<proxy::Client>(client_id, "client", stream, entry_proxies,
                                                    config.entry_policy, config.concurrency);
  proxy::Client& client = *client_ptr;
  client.set_version_oracle(oracle);
  sim.add_node(std::move(client_ptr));

  if (config.slow_proxy_delay > 0) {
    sim.network().set_node_delay(proxy_ids[static_cast<std::size_t>(config.slow_proxy_index)],
                                 config.slow_proxy_delay);
  }

  if (config.fault.at_completed > 0) {
    const NodeId victim = proxy_ids[static_cast<std::size_t>(config.fault.proxy_index)];
    client.at_completed(config.fault.at_completed,
                        [&sim, victim]() { flush_proxy(sim, victim); });
  }

  // Message-level fault injection: the FaultyNetwork decides per transfer
  // on the simulator's send path; crash windows additionally wipe the
  // victim's state at the window start (the messages it would have
  // received while down are dropped by the hook).
  std::unique_ptr<fault::FaultyNetwork> chaos;
  if (!config.fault_plan.is_zero()) {
    chaos = std::make_unique<fault::FaultyNetwork>(config.fault_plan);
    sim.set_fault_hook(chaos.get());
    for (const fault::CrashWindow& window : config.fault_plan.crashes) {
      if (!window.flush_state) continue;
      sim.schedule(window.at, [&sim, victim = window.node]() { flush_proxy(sim, victim); });
    }
  }
  client.set_request_timeout(config.request_timeout);

  // Bandwidth model: the TransferScheduler owns delivery timing for every
  // send over a finite-capacity link (installed before the first request
  // so t=0 traffic is modeled too).  With the payload store on, degraded
  // reads additionally steer chunk requests toward stripe peers with the
  // lightest egress backlog.
  std::unique_ptr<link::TransferScheduler> link_sched;
  if (config.link.enabled) {
    link_sched =
        std::make_unique<link::TransferScheduler>(sim, link::LinkModel(config.link, origin_id));
    sim.set_link_hook(link_sched.get());
    link::TransferScheduler* sched = link_sched.get();
    for (membership::MemberNode* member : members) {
      if (store::ErasureTier* tier = member->erasure_tier(); tier != nullptr) {
        tier->set_load_probe([sched](NodeId peer) { return sched->backlog_bytes(peer); });
      }
    }
  }

  client.start(sim);

  // Membership tick: one recurring event drives every member agent's
  // detector (probes, timeouts, repair rounds).  It re-arms only while the
  // client still has work, so the run terminates with the event queue.
  std::function<void()> membership_tick;
  if (!agents.empty()) {
    const SimTime tick_every = std::max<SimTime>(1, config.membership.tick_every);
    // Re-arm while the client has work OR re-stripe repair is still
    // queued: background healing may outlive the trace, and every queued
    // item eventually acks or abandons, so the extension is bounded.
    membership_tick = [&sim, &client, &agents, &members, &membership_tick, tick_every]() {
      for (membership::MemberAgent* agent : agents) agent->tick(sim, sim.now());
      if (!client.drained() ||
          std::any_of(members.begin(), members.end(),
                      [](const membership::MemberNode* m) { return m->repair_pending(); })) {
        sim.schedule_after(tick_every, membership_tick);
      }
    };
    sim.schedule_after(tick_every, membership_tick);
  }

  const auto wall_start = std::chrono::steady_clock::now();
  const std::uint64_t events = sim.run();
  const auto wall_end = std::chrono::steady_clock::now();

  if (!client.drained()) {
    ADC_LOG_WARN << "experiment ended with "
                 << (client.issued() - client.completed() - client.failed())
                 << " requests still in flight";
  }

  ExperimentResult result;
  result.summary = sim.metrics().summary();
  result.series = sim.metrics().series();
  result.wall_seconds = std::chrono::duration<double>(wall_end - wall_start).count();
  result.events = events;
  result.messages = sim.network().messages_sent();
  result.sim_end_time = sim.now();
  result.origin_served =
      static_cast<const proxy::OriginServer&>(sim.node(origin_id)).requests_served();
  result.store.origin_bytes_served =
      static_cast<const proxy::OriginServer&>(sim.node(origin_id)).bytes_served();
  result.hops_p50 = sim.metrics().hop_histogram().percentile(0.50);
  result.hops_p95 = sim.metrics().hop_histogram().percentile(0.95);
  result.hops_max = sim.metrics().hop_histogram().max_seen();
  result.latency_p50 = sim.metrics().latency_tracker().percentile(0.50);
  result.latency_p95 = sim.metrics().latency_tracker().percentile(0.95);
  result.latency_p99 = sim.metrics().latency_tracker().percentile(0.99);
  result.latency_p999 = sim.metrics().latency_tracker().percentile(0.999);
  result.summary.latency_p99 = result.latency_p99;
  result.summary.latency_p999 = result.latency_p999;
  if (chaos != nullptr) result.faults = chaos->counters();
  result.faults.timeouts += client.failed();

  // Per-link-class traffic totals (message + byte counters kept by the
  // network on every send).
  {
    const sim::Network& net = sim.network();
    sim::TrafficTotals& traffic = result.summary.traffic;
    traffic.request_messages = net.class_messages(sim::LinkClass::kRequest);
    traffic.reply_messages = net.class_messages(sim::LinkClass::kReply);
    traffic.control_messages = net.class_messages(sim::LinkClass::kControl);
    traffic.store_messages = net.class_messages(sim::LinkClass::kStore);
    traffic.request_bytes = net.class_bytes(sim::LinkClass::kRequest);
    traffic.reply_bytes = net.class_bytes(sim::LinkClass::kReply);
    traffic.control_bytes = net.class_bytes(sim::LinkClass::kControl);
    traffic.store_bytes = net.class_bytes(sim::LinkClass::kStore);
  }

  if (link_sched != nullptr) {
    const link::TransferStats& ls = link_sched->stats();
    result.link.transfers = ls.transfers;
    result.link.passthrough = ls.passthrough;
    result.link.queued = ls.queued;
    result.link.bursts = ls.bursts;
    result.link.bytes = ls.bytes;
    result.link.max_backlog_bytes = ls.max_backlog_bytes;
    result.link.max_wait = ls.max_wait;
    result.link.wait_p50 = link_sched->wait_tracker().percentile(0.50);
    result.link.wait_p99 = link_sched->wait_tracker().percentile(0.99);
    result.link.wait_p999 = link_sched->wait_tracker().percentile(0.999);
  }

  // A crashed member's own detector keeps ticking into isolation — it ends
  // up declaring everyone *else* dead and rebuilding an owner map of just
  // itself.  That degenerate self-view must not pollute the cluster-level
  // membership summary, so members a majority of their peers confirmed
  // dead are excluded from it (with zero churn nobody is excluded).
  const auto majority_confirmed_dead = [&agents](NodeId id) {
    std::size_t dead = 0;
    std::size_t voters = 0;
    for (const membership::MemberAgent* peer : agents) {
      if (peer->id() == id) continue;
      ++voters;
      if (peer->detector().state(id) == membership::PeerState::kDead) ++dead;
    }
    return voters > 0 && dead * 2 > voters;
  };

  for (int i = 0; i < p; ++i) {
    const NodeId proxy_id = proxy_ids[static_cast<std::size_t>(i)];
    const bool count_membership = membership_on && !majority_confirmed_dead(proxy_id);
    if (count_membership) {
      const membership::MemberAgent& agent = *agents[static_cast<std::size_t>(i)];
      const membership::SwimStats& swim = agent.detector().stats();
      result.membership.max_epoch =
          std::max(result.membership.max_epoch, agent.detector().epoch());
      result.membership.deaths += swim.deaths;
      result.membership.joins += swim.joins;
      result.membership.suspicions += swim.suspicions;
      result.membership.refutations += swim.refutations;
      result.membership.repair_rounds += agent.repair().rounds_fired();
    }
    const membership::MemberNode* member =
        members.empty() ? nullptr : members[static_cast<std::size_t>(i)];
    const sim::Node& node = member != nullptr ? *member : std::as_const(sim.node(proxy_id));
    if (member != nullptr) collect_erasure(result.store, member->erasure());
    ProxySnapshot snapshot;
    snapshot.name = node.name();
    if (config.scheme == Scheme::kAdc) {
      const auto& adc = static_cast<const core::AdcProxy&>(node);
      snapshot.requests_received = adc.stats().requests_received;
      snapshot.local_hits = adc.stats().local_hits;
      snapshot.cached_objects = adc.config().selective_caching
                                    ? adc.tables().caching().size()
                                    : adc.stats().cache_admissions;
      snapshot.table_entries = adc.tables().total_entries();
      if (config.collect_cache_contents && adc.config().selective_caching) {
        adc.tables().caching().for_each([&snapshot](const cache::TableEntry& entry) {
          snapshot.cached_ids.push_back(entry.object);
        });
      }

      result.adc_totals.requests_received += adc.stats().requests_received;
      result.adc_totals.local_hits += adc.stats().local_hits;
      result.adc_totals.forwards_learned += adc.stats().forwards_learned;
      result.adc_totals.forwards_random += adc.stats().forwards_random;
      result.adc_totals.forwards_origin += adc.stats().forwards_origin;
      result.adc_totals.loops_detected += adc.stats().loops_detected;
      result.adc_totals.max_forwards_hit += adc.stats().max_forwards_hit;
      result.adc_totals.replies_relayed += adc.stats().replies_relayed;
      result.adc_totals.resolver_claims += adc.stats().resolver_claims;
      result.adc_totals.cache_admissions += adc.stats().cache_admissions;
      result.adc_totals.orphan_replies += adc.stats().orphan_replies;
      result.adc_totals.peer_invalidations += adc.stats().peer_invalidations;
      result.adc_totals.stale_claims_rejected += adc.stats().stale_claims_rejected;
      result.adc_totals.repair_offers += adc.stats().repair_offers;
      result.adc_totals.repair_counter_offers += adc.stats().repair_counter_offers;
      result.adc_totals.repairs_applied += adc.stats().repairs_applied;
      result.adc_totals.payload_bytes_served += adc.stats().payload_bytes_served;
      result.adc_totals.payload_bytes_fetched += adc.stats().payload_bytes_fetched;
      result.adc_totals.degraded_reads_started += adc.stats().degraded_reads_started;
      result.adc_totals.degraded_reads_served += adc.stats().degraded_reads_served;
      snapshot.payload_bytes_served = adc.stats().payload_bytes_served;
      result.store.payload_bytes_served += adc.stats().payload_bytes_served;
      result.store.payload_bytes_fetched += adc.stats().payload_bytes_fetched;
    } else if (config.scheme == Scheme::kHierarchical ||
               config.scheme == Scheme::kCoordinator) {
      const auto& cn = static_cast<const proxy::CacheNode&>(node);
      snapshot.requests_received = cn.stats().requests_received;
      snapshot.local_hits = cn.stats().local_hits;
      snapshot.cached_objects = cn.cache().size();
      snapshot.payload_bytes_served = cn.stats().payload_bytes_served;
      result.store.payload_bytes_served += cn.stats().payload_bytes_served;
      result.store.payload_bytes_fetched += cn.stats().payload_bytes_fetched;
      if (config.collect_cache_contents) snapshot.cached_ids = cn.cache().eviction_order();
    } else if (config.scheme == Scheme::kSoap) {
      const auto& sp = static_cast<const proxy::SoapProxy&>(node);
      snapshot.requests_received = sp.stats().requests_received;
      snapshot.local_hits = sp.stats().local_hits;
      snapshot.cached_objects = sp.cache().size();
      if (config.collect_cache_contents) snapshot.cached_ids = sp.cache().eviction_order();
    } else {
      const auto& hp = static_cast<const proxy::HashingProxy&>(node);
      snapshot.requests_received = hp.stats().requests_received;
      snapshot.local_hits = hp.stats().local_hits;
      snapshot.cached_objects = hp.cache().size();
      snapshot.payload_bytes_served = hp.stats().payload_bytes_served;
      result.store.payload_bytes_served += hp.stats().payload_bytes_served;
      result.store.payload_bytes_fetched += hp.stats().payload_bytes_fetched;
      if (count_membership) {
        result.membership.max_reshuffle_fraction = std::max(
            result.membership.max_reshuffle_fraction, hp.stats().max_reshuffle_fraction);
      }
      if (config.collect_cache_contents) snapshot.cached_ids = hp.cache().eviction_order();
    }
    // Per-owner load accounting: what each proxy processed and served,
    // feeding the max/min fairness ratio the adversarial suite reports.
    result.summary.owner_requests.push_back(snapshot.requests_received);
    result.summary.owner_hits.push_back(snapshot.local_hits);
    result.summary.owner_bytes.push_back(snapshot.payload_bytes_served);
    result.proxies.push_back(std::move(snapshot));
  }
  // Confirmed deaths purge ADC mapping entries naming the dead peer; the
  // proxies count them as peer_invalidations.
  result.faults.entries_invalidated += result.adc_totals.peer_invalidations;

  // Post-run stripe census: union the chunk directories of every proxy
  // still standing at sim end (crash windows that never restarted exclude
  // their victim) and count the objects that can no longer gather k
  // distinct chunk indexes — the set one more unavailability strands.
  // With proactive repair this shrinks back toward zero as stripes heal.
  if (payload_store != nullptr && payload_store->config().erasure.enabled) {
    std::unordered_set<NodeId> down;
    for (const fault::CrashWindow& window : config.fault_plan.crashes) {
      if (window.at <= result.sim_end_time && window.restart > result.sim_end_time) {
        down.insert(window.node);
      }
    }
    std::unordered_map<ObjectId, std::uint64_t> index_mask;
    for (const membership::MemberNode* member : members) {
      if (down.count(member->id()) != 0) continue;
      const store::ErasureTier* tier = member->erasure();
      if (tier == nullptr) continue;
      tier->for_each_chunk([&index_mask](ObjectId object, int index, std::uint64_t) {
        if (index >= 0 && index < 64) index_mask[object] |= 1ULL << index;
      });
    }
    const int k = payload_store->code().k();
    for (const auto& entry : index_mask) {
      ++result.store.stripe_objects_tracked;
      int held = 0;
      for (std::uint64_t m = entry.second; m != 0; m &= m - 1) ++held;
      if (held < k) ++result.store.stripes_stranded;
    }
  }

  return result;
}

}  // namespace adc::driver
