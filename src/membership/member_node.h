// MemberNode: the protocol agents that live in a flat membership — the ADC
// proxy and the hashing baselines (CARP, ring, HRW).  A MemberAgent drives
// exactly this interface, under the Simulator and inside adcd alike, so the
// membership reactions are the agent's own code, not host-side wiring:
// ADC prunes its mapping tables and forwarding membership and offers
// anti-entropy; the hashing schemes rebuild their owner map; both may host
// an erasure tier whose re-stripe repair rides the same repair rounds.
#pragma once

#include <cstddef>
#include <memory>
#include <vector>

#include "sim/node.h"
#include "sim/transport.h"
#include "store/erasure_tier.h"
#include "util/types.h"

namespace adc::membership {

class MemberNode : public sim::Node {
 public:
  using sim::Node::Node;

  /// Confirmed death / rejoin of a peer (after the detector's epoch
  /// advanced).
  virtual void handle_peer_dead(NodeId peer) = 0;
  virtual void handle_peer_joined(NodeId peer) = 0;

  /// One repair round over the currently-alive peers.  The default runs the
  /// hosted tier's re-stripe round (a no-op without a tier or with
  /// re-stripe off); ADC first offers up to `batch` resolver opinions to
  /// each peer.
  virtual void repair_round(sim::Transport& net, const std::vector<NodeId>& /*alive_peers*/,
                            std::size_t /*batch*/) {
    if (erasure_ != nullptr) erasure_->restripe_round(net);
  }

  /// True while re-stripe repair items remain queued on the hosted tier —
  /// the host keeps repair rounds (and the sim's tick) alive until then.
  bool repair_pending() const noexcept {
    return erasure_ != nullptr && erasure_->restripe_pending();
  }

  /// The hosted erasure tier, or nullptr while the payload store or its
  /// erasure coding is off.
  const store::ErasureTier* erasure() const noexcept { return erasure_.get(); }
  store::ErasureTier* erasure_tier() noexcept { return erasure_.get(); }

 protected:
  /// Built by the concrete proxy's enable_store when the store asks for it.
  std::unique_ptr<store::ErasureTier> erasure_;
};

}  // namespace adc::membership
