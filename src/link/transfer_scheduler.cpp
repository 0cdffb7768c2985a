#include "link/transfer_scheduler.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace adc::link {

TransferScheduler::TransferScheduler(sim::Simulator& sim, LinkModel model)
    : sim_(sim), model_(std::move(model)), wait_(1 << 16) {}

bool TransferScheduler::on_send(const sim::Message& msg, sim::NodeKind /*from*/,
                                sim::NodeKind /*to*/, SimTime now, SimTime base_delay,
                                Deliver deliver) {
  const std::uint64_t rate = model_.transfer_rate(msg.sender, msg.target);
  if (rate == 0) {
    ++stats_.passthrough;
    return false;  // unlimited end to end: plain delivery, bit-identical
  }

  const std::uint64_t bytes = model_.transfer_bytes(msg);
  ++stats_.transfers;
  stats_.bytes += bytes;

  const auto from = static_cast<std::size_t>(msg.sender);
  const auto to = static_cast<std::size_t>(msg.target);
  if (from >= egress_.size()) egress_.resize(from + 1);
  Egress& e = egress_[from];
  if (to >= e.queues.size()) {
    e.queues.resize(to + 1);
    e.deficit.resize(to + 1, 0);
  }
  auto& q = e.queues[to];
  if (q.empty()) e.ring.push_back(msg.target);

  Transfer t;
  t.deliver = std::move(deliver);
  t.remaining = bytes;
  t.rate = rate;
  t.enqueued = now;
  t.base_delay = base_delay;
  q.push_back(std::move(t));

  e.backlog += bytes;
  stats_.max_backlog_bytes = std::max(stats_.max_backlog_bytes, e.backlog);

  kick(msg.sender);
  return true;
}

void TransferScheduler::kick(NodeId node) {
  Egress& e = egress_[static_cast<std::size_t>(node)];
  if (e.busy || e.ring.empty()) return;

  // The ring holds exactly the destinations with queued transfers: a
  // destination joins when its queue turns non-empty and leaves when the
  // last transfer is delivered.
  const auto dest = static_cast<std::size_t>(e.ring.front());
  assert(!e.queues[dest].empty());
  Transfer& t = e.queues[dest].front();

  // One quantum of credit per ring visit; the burst spends accumulated
  // credit, so destinations short-changed by a sub-quantum burst catch up
  // on their next turn (classic DRR byte fairness).
  std::uint64_t& deficit = e.deficit[dest];
  deficit += model_.config().pacing_bytes;
  const std::uint64_t burst = std::min(t.remaining, deficit);
  deficit -= burst;

  if (!t.started) {
    t.started = true;
    const SimTime waited = sim_.now() - t.enqueued;
    wait_.add(static_cast<double>(waited));
    stats_.total_wait += waited;
    stats_.max_wait = std::max(stats_.max_wait, waited);
    if (waited > 0) ++stats_.queued;
  }

  ++stats_.bursts;
  e.busy = true;
  e.burst = burst;
  const SimTime tx = model_.serialization_ticks(burst, t.rate);
  sim_.schedule_after(tx, [this, node]() { on_burst_done(node); });
}

void TransferScheduler::on_burst_done(NodeId node) {
  Egress& e = egress_[static_cast<std::size_t>(node)];
  e.busy = false;

  // The serving destination sits at the ring front for the whole burst:
  // kick() never rotates while the egress is busy, and arrivals only
  // append to the back.
  assert(!e.ring.empty());
  const NodeId dest = e.ring.front();
  auto& q = e.queues[static_cast<std::size_t>(dest)];
  assert(!q.empty());
  Transfer& t = q.front();
  const std::uint64_t burst = e.burst;
  assert(burst <= t.remaining && burst <= e.backlog);

  t.remaining -= burst;
  e.backlog -= burst;

  // End of this destination's turn either way: rotate so destinations
  // sharing the egress interleave at pacing granularity.
  e.ring.pop_front();
  if (t.remaining == 0) {
    // Fully serialized; the last byte still propagates for the latency
    // the plain simulator would charge.
    t.deliver(sim_.now() + t.base_delay);
    q.pop_front();
    if (q.empty()) {
      e.deficit[static_cast<std::size_t>(dest)] = 0;
    } else {
      e.ring.push_back(dest);
    }
  } else {
    e.ring.push_back(dest);
  }

  kick(node);
}

std::uint64_t TransferScheduler::backlog_bytes(NodeId node) const noexcept {
  const auto i = static_cast<std::size_t>(node);
  return i < egress_.size() ? egress_[i].backlog : 0;
}

std::size_t TransferScheduler::queue_depth(NodeId node) const noexcept {
  const auto i = static_cast<std::size_t>(node);
  if (i >= egress_.size()) return 0;
  std::size_t depth = 0;
  for (const auto& q : egress_[i].queues) depth += q.size();
  return depth;
}

}  // namespace adc::link
