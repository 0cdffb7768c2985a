// MemberAgent: wraps a MemberNode with a SwimDetector and a
// RepairScheduler so membership runs *next to* the protocol agent, not
// inside it.  The wrapped agent stays byte-for-byte the code that runs
// without membership; the wrapper routes SWIM control traffic to the
// detector and everything else (requests, replies, repair opinions) to the
// inner node, and a periodic tick() — driven by the simulator's event
// queue or the daemon's poll loop — advances probes, timeouts, and repair
// rounds.  It is the only driver of SWIM and repair rounds in both hosts.
//
// Reactions to membership changes are the scheme's own (MemberNode's
// handle_peer_dead / handle_peer_joined / repair_round); the wrapper
// itself knows nothing about tables or owner maps.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "membership/member_node.h"
#include "membership/repair.h"
#include "membership/swim.h"
#include "sim/node.h"
#include "sim/transport.h"
#include "util/types.h"

namespace adc::membership {

struct MembershipConfig {
  SwimConfig swim;
  RepairConfig repair;

  /// Cadence at which the host drives MemberAgent::tick (transport clock
  /// units).  Must be finer than the SWIM timeouts.
  SimTime tick_every = 50;
};

class MemberAgent final : public sim::Node {
 public:
  /// `peers` is the candidate membership this node watches (its own id is
  /// filtered out).  Seeds are derived per node from config.swim.seed so
  /// each member's private probe order differs but stays reproducible.
  MemberAgent(std::unique_ptr<MemberNode> inner, std::vector<NodeId> peers,
              MembershipConfig config);

  void on_message(sim::Transport& net, const sim::Message& msg) override;

  /// A cold restart wipes the protocol agent's state; membership survives.
  void flush() override { inner_->flush(); }

  /// Advances the detector and, when armed, fires a repair round offering
  /// opinions to every currently-alive peer.
  void tick(sim::Transport& net, SimTime now);

  MemberNode& inner() noexcept { return *inner_; }
  const MemberNode& inner() const noexcept { return *inner_; }
  SwimDetector& detector() noexcept { return detector_; }
  const SwimDetector& detector() const noexcept { return detector_; }
  const RepairScheduler& repair() const noexcept { return repair_; }
  const MembershipConfig& config() const noexcept { return config_; }

 private:
  std::unique_ptr<MemberNode> inner_;
  MembershipConfig config_;
  SwimDetector detector_;
  RepairScheduler repair_;
  bool transition_pending_ = false;
};

}  // namespace adc::membership
