// Per-layer cost measurements of a traced run: each call goes through a
// module's public functions from the benchmark's own code, fed with the
// workload's own inputs, and is recorded as spans of batched calls.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "bench.h"
#include "core/adc_config.h"
#include "link/link_model.h"
#include "store/payload.h"
#include "util/types.h"

namespace perfbench {

/// The link capacities of sim-carp-bytes: proxies send at 64 MiB/s and the
/// origin at 4 MiB/s.  Every workload's link.schedule_ns runs on these, so
/// the scheduler is measured with real queueing everywhere.
inline adc::link::LinkConfig capped_links() {
  adc::link::LinkConfig link;
  link.enabled = true;
  link.node_egress_bytes_per_sec = 64u << 20;
  link.origin_egress_bytes_per_sec = 4u << 20;
  return link;
}

struct LayerInputs {
  const std::vector<adc::ObjectId>* objects = nullptr;  // the workload's request stream
  adc::core::AdcConfig adc;               // mapping-table sizes
  int proxies = 5;                        // CARP members and LRU owners
  std::size_t lru_capacity = 1000;        // per-owner baseline LRU capacity
  adc::store::PayloadConfig payload;      // size and body derivation
  std::size_t queue_depth = 1;            // events the workload keeps queued
};

/// Nanoseconds per call of each layer's public entry points.
struct LayerCosts {
  double queue_ns = 0.0;         // EventQueue::schedule + pop_next
  double update_entry_ns = 0.0;  // MappingTables::update_entry
  double lookup_ns = 0.0;        // MappingTables::is_cached + forward_location
  double carp_owner_ns = 0.0;    // CarpArray::owner(ObjectId)
  double lru_access_ns = 0.0;    // baseline LRU contains/touch/insert
  double size_of_ns = 0.0;       // PayloadStore::size_of
  double body_ns = 0.0;          // PayloadStore::fill_body + checksum
  double schedule_ns = 0.0;      // TransferScheduler::on_send + its bursts
  double encode_ns = 0.0;        // net::encode_message, per frame
  double decode_ns = 0.0;        // net::decode_frame, per frame
};

LayerCosts measure_layer_costs(const LayerInputs& inputs, SpanRecorder& spans,
                               std::uint64_t run_id);

}  // namespace perfbench
