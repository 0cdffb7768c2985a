// Simulated node interface.
#pragma once

#include <string>

#include "sim/message.h"
#include "util/types.h"

namespace adc::sim {

class Transport;

enum class NodeKind : std::uint8_t {
  kClient,
  kProxy,
  kOrigin,
};

/// A participant in the system.  Nodes communicate exclusively through
/// Transport::send(); direct calls between nodes are not allowed, keeping
/// hop accounting and delivery ordering in one place.  The same node runs
/// unchanged under the discrete-event Simulator or a live TCP daemon.
class Node {
 public:
  Node(NodeId id, NodeKind kind, std::string name)
      : id_(id), kind_(kind), name_(std::move(name)) {}
  virtual ~Node() = default;

  Node(const Node&) = delete;
  Node& operator=(const Node&) = delete;

  NodeId id() const noexcept { return id_; }
  NodeKind kind() const noexcept { return kind_; }
  const std::string& name() const noexcept { return name_; }

  /// Delivery callback; `msg` is the node's to own.
  virtual void on_message(Transport& net, const Message& msg) = 0;

  /// Fault injection: a cold restart wipes learned state (caches, tables)
  /// while connectivity and in-flight journeys survive.  Nodes that learn
  /// nothing (client, origin) keep the no-op.
  virtual void flush() {}

 private:
  NodeId id_;
  NodeKind kind_;
  std::string name_;
};

}  // namespace adc::sim
