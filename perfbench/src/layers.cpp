#include "layers.h"

#include <algorithm>
#include <array>
#include <memory>
#include <stdexcept>
#include <string>

#include "cache/policies.h"
#include "core/mapping_tables.h"
#include "hash/carp.h"
#include "link/transfer_scheduler.h"
#include "net/wire.h"
#include "sim/event_queue.h"
#include "sim/message.h"
#include "sim/node.h"
#include "sim/simulator.h"

namespace perfbench {

namespace {

using adc::NodeId;
using adc::ObjectId;

/// Runs fn(i) for i in [0, n) in batches, one span per batch.
template <class Fn>
void timed_calls(SpanRecorder& spans, const char* name, std::uint64_t run_id, std::size_t n,
                 Fn&& fn) {
  constexpr std::size_t kBatch = 4096;
  for (std::size_t begin = 0; begin < n; begin += kBatch) {
    const std::size_t end = std::min(n, begin + kBatch);
    const auto scope = spans.span(name, run_id, end - begin);
    for (std::size_t i = begin; i < end; ++i) fn(i);
  }
}

class Sink final : public adc::sim::Node {
 public:
  Sink(NodeId id, adc::sim::NodeKind kind) : Node(id, kind, "sink") {}
  void on_message(adc::sim::Transport&, const adc::sim::Message&) override {}
};

adc::sim::Message sample_message(ObjectId object, std::size_t i) {
  adc::sim::Message msg;
  msg.kind = adc::sim::MessageKind::kRequest;
  msg.request_id = i + 1;
  msg.object = object;
  msg.sender = 0;
  msg.target = 1;
  msg.client = 6;
  msg.hops = 1;
  return msg;
}

}  // namespace

LayerCosts measure_layer_costs(const LayerInputs& in, SpanRecorder& spans, std::uint64_t run_id) {
  namespace sim = adc::sim;
  const std::vector<ObjectId>& objects = *in.objects;
  const std::size_t n = objects.size();
  // Per-object loops whose calls are costly run on a prefix of the stream.
  const std::size_t n_small = std::min<std::size_t>(n, 100'000);
  const int proxies = std::max(in.proxies, 1);
  LayerCosts out;
  std::uint64_t acc = 0;

  {  // sim: one schedule + pop at the workload's queue depth
    const auto layer = spans.span("layer.sim", run_id);
    sim::EventQueue queue;
    const adc::SimTime far = adc::SimTime{1} << 40;
    for (std::size_t d = 0; d < in.queue_depth; ++d) {
      const sim::Message msg = sample_message(objects[d % n], d);
      queue.schedule(far + static_cast<adc::SimTime>(d), [msg, &acc]() { acc += msg.object; });
    }
    timed_calls(spans, "sim.queue", run_id, n, [&](std::size_t i) {
      const sim::Message msg = sample_message(objects[i], i);
      queue.schedule(static_cast<adc::SimTime>(i) + 1, [msg, &acc]() { acc += msg.object; });
      sim::EventQueue::Popped popped = queue.pop_next();
      popped.action();
    });
    out.queue_ns = spans.ns_per_call("sim.queue");
  }

  {  // core: Update_Entry over the stream, then lookups on the filled tables
    const auto layer = spans.span("layer.core", run_id);
    adc::core::MappingTables tables(in.adc);
    timed_calls(spans, "core.update_entry", run_id, n, [&](std::size_t i) {
      const auto result = tables.update_entry(objects[i], static_cast<NodeId>(i % proxies),
                                              static_cast<adc::SimTime>(i));
      acc += result.created ? 1 : 0;
    });
    timed_calls(spans, "core.lookup", run_id, n, [&](std::size_t i) {
      acc += tables.is_cached(objects[i]) ? 1 : 0;
      acc += static_cast<std::uint64_t>(tables.forward_location(objects[i]).value_or(0));
    });
    out.update_entry_ns = spans.ns_per_call("core.update_entry");
    out.lookup_ns = spans.ns_per_call("core.lookup");
  }

  std::vector<std::size_t> owners(n);
  {  // hash: CARP owner of every request
    const auto layer = spans.span("layer.hash", run_id);
    std::vector<adc::hash::CarpArray::Member> members;
    for (int i = 0; i < proxies; ++i) {
      members.push_back({"proxy[" + std::to_string(i) + "]", static_cast<NodeId>(i), 1.0});
    }
    const adc::hash::CarpArray carp(std::move(members));
    timed_calls(spans, "hash.carp_owner", run_id, n, [&](std::size_t i) {
      owners[i] = carp.owner_index(objects[i]);
    });
    out.carp_owner_ns = spans.ns_per_call("hash.carp_owner");
  }

  {  // cache: the baseline LRU on each owner's request stream
    const auto layer = spans.span("layer.cache", run_id);
    std::vector<std::unique_ptr<adc::cache::CacheSet>> caches;
    for (int i = 0; i < proxies; ++i) {
      caches.push_back(adc::cache::make_cache(in.lru_capacity, adc::cache::Policy::kLru));
    }
    timed_calls(spans, "cache.lru_access", run_id, n, [&](std::size_t i) {
      adc::cache::CacheSet& cache = *caches[owners[i]];
      if (cache.contains(objects[i])) {
        cache.touch(objects[i]);
        ++acc;
      } else {
        acc += cache.insert(objects[i]).value_or(0);
      }
    });
    out.lru_access_ns = spans.ns_per_call("cache.lru_access");
  }

  adc::store::PayloadConfig payload = in.payload;
  payload.enabled = true;
  const adc::store::PayloadStore store(payload);
  std::vector<std::uint64_t> sizes(n);
  {  // store: sizes (memoised by the store), then one body sample each
    const auto layer = spans.span("layer.store", run_id);
    timed_calls(spans, "store.size_of", run_id, n,
                [&](std::size_t i) { sizes[i] = store.size_of(objects[i]); });
    std::array<std::uint8_t, adc::store::kMaxBodySample> body{};
    timed_calls(spans, "store.body", run_id, n_small, [&](std::size_t i) {
      const std::size_t len = store.fill_body(objects[i], body.data(), body.size());
      acc += store.checksum(objects[i], sizes[i], body.data(), len);
    });
    out.size_of_ns = spans.ns_per_call("store.size_of");
    out.body_ns = spans.ns_per_call("store.body");
  }

  {  // link: transfers of the workload's sizes through a TransferScheduler
    const auto layer = spans.span("layer.link", run_id);
    sim::Simulator simulator(run_id);
    for (int i = 0; i < proxies; ++i) {
      simulator.add_node(std::make_unique<Sink>(static_cast<NodeId>(i), sim::NodeKind::kProxy));
    }
    const NodeId origin = static_cast<NodeId>(proxies);
    simulator.add_node(std::make_unique<Sink>(origin, sim::NodeKind::kOrigin));
    adc::link::TransferScheduler scheduler(simulator, adc::link::LinkModel(capped_links(), origin));
    std::uint64_t delivered = 0;
    constexpr std::size_t kWave = 64;  // transfers queued before the clock advances
    timed_calls(spans, "link.schedule", run_id, n_small, [&](std::size_t i) {
      sim::Message msg = sample_message(objects[i], i);
      msg.kind = sim::MessageKind::kReply;
      msg.payload_bytes = sizes[i];
      // Two in three transfers leave the origin, the rest go proxy to proxy.
      const bool from_origin = i % 3 != 2;
      msg.sender = from_origin ? origin : static_cast<NodeId>(i % proxies);
      msg.target = static_cast<NodeId>((i + 1) % proxies);
      const sim::NodeKind from = from_origin ? sim::NodeKind::kOrigin : sim::NodeKind::kProxy;
      const bool owned = scheduler.on_send(msg, from, sim::NodeKind::kProxy, simulator.now(), 2,
                                           [&delivered](adc::SimTime) { ++delivered; });
      if (!owned) ++delivered;
      if (i % kWave == kWave - 1 || i + 1 == n_small) simulator.run();
    });
    acc += delivered;
    out.schedule_ns = spans.ns_per_call("link.schedule");
  }

  {  // net: a request frame and a reply frame with its body sample per object
    const auto layer = spans.span("layer.net", run_id);
    std::vector<adc::net::WireMessage> frames;
    frames.reserve(2 * n_small);
    std::array<std::uint8_t, adc::store::kMaxBodySample> body{};
    for (std::size_t i = 0; i < n_small; ++i) {
      adc::net::WireMessage request;
      request.msg = sample_message(objects[i], i);
      request.path = {6, static_cast<NodeId>(i % proxies)};
      adc::net::WireMessage reply = request;
      reply.msg.kind = sim::MessageKind::kReply;
      reply.msg.proxy_hit = i % 2 == 0;
      reply.msg.payload_bytes = sizes[i];
      const std::size_t len = store.fill_body(objects[i], body.data(), body.size());
      reply.body.assign(body.begin(), body.begin() + static_cast<std::ptrdiff_t>(len));
      reply.checksum = store.checksum(objects[i], sizes[i], body.data(), len);
      frames.push_back(std::move(request));
      frames.push_back(std::move(reply));
    }
    // Each frame is encoded into a buffer of its own, as the daemon does.
    std::vector<std::vector<std::uint8_t>> encoded(frames.size());
    timed_calls(spans, "net.encode", run_id, frames.size(),
                [&](std::size_t i) { adc::net::encode_message(frames[i], &encoded[i]); });
    adc::net::Frame frame;
    std::size_t decoded = 0;
    timed_calls(spans, "net.decode", run_id, frames.size(), [&](std::size_t i) {
      std::size_t consumed = 0;
      const auto result =
          adc::net::decode_frame(encoded[i].data(), encoded[i].size(), &consumed, &frame);
      if (result == adc::net::DecodeResult::kFrame && consumed == encoded[i].size()) {
        ++decoded;
        acc += frame.message.msg.object;
      }
    });
    if (decoded != frames.size()) throw std::runtime_error("net: encoded frames failed to decode");
    out.encode_ns = spans.ns_per_call("net.encode");
    out.decode_ns = spans.ns_per_call("net.decode");
  }

  consume(acc);
  return out;
}

}  // namespace perfbench
