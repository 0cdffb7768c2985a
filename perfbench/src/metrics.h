// The metric sets every workload reports, in one fixed order, so each run
// prints the same names and units whatever the workload.  A layer that does
// no work in a workload reports 0 for its counts and thread clocks there;
// per-call costs are measured on every workload's own inputs.
#pragma once

#include "bench.h"
#include "layers.h"

namespace perfbench {

struct EndToEnd {
  double setup_s = 0.0;
  double req_per_s = 0.0;
  double peak_rss_mb = 0.0;
  double hit_rate = 0.0;
  double mean_hops = 0.0;
  double latency_p50_us = 0.0;
  double latency_p99_us = 0.0;
  double cpu_us_per_req = 0.0;
};

inline void add_end_to_end(Outcome& out, const EndToEnd& m) {
  out.add("setup_s", m.setup_s, "s");
  out.add("req_per_s", m.req_per_s, "req/s");
  out.add("peak_rss_mb", m.peak_rss_mb, "MiB");
  out.add("hit_rate", m.hit_rate, "ratio");
  out.add("mean_hops", m.mean_hops, "hops/req");
  out.add("latency_p50_us", m.latency_p50_us, "us");
  out.add("latency_p99_us", m.latency_p99_us, "us");
  out.add("cpu_us_per_req", m.cpu_us_per_req, "us");
}

struct PerLayer {
  double events_per_req = 0.0;
  double ns_per_event = 0.0;
  double unaccounted_ns_per_req = 0.0;
  double loop_s = 0.0;
  double outside_loop_s = 0.0;
  double trace_gen_s = 0.0;
  double forwards_per_req = 0.0;
  double learned_forward_ratio = 0.0;
  double byte_hit_rate = 0.0;
  double store_msgs_per_req = 0.0;
  double link_transfers_per_req = 0.0;
  double link_queued_per_req = 0.0;
  double control_msgs_per_req = 0.0;
  double frames_per_req = 0.0;
  double proxy_cpu_us_per_req = 0.0;
  double origin_cpu_us_per_req = 0.0;
  double loadgen_cpu_us_per_req = 0.0;
  double busiest_daemon_busy = 0.0;
  double sys_us_per_req = 0.0;
  double ctx_switches_per_req = 0.0;
  double unaccounted_cpu_us_per_req = 0.0;
  double traced_req_per_s = 0.0;
};

inline void add_per_layer(Outcome& out, const PerLayer& m, const LayerCosts& c) {
  out.add("sim.events_per_req", m.events_per_req, "events/req");
  out.add("sim.ns_per_event", m.ns_per_event, "ns");
  out.add("sim.queue_ns", c.queue_ns, "ns");
  out.add("sim.unaccounted_ns_per_req", m.unaccounted_ns_per_req, "ns");
  out.add("driver.loop_s", m.loop_s, "s");
  out.add("driver.outside_loop_s", m.outside_loop_s, "s");
  out.add("workload.trace_gen_s", m.trace_gen_s, "s");
  out.add("core.update_entry_ns", c.update_entry_ns, "ns");
  out.add("core.lookup_ns", c.lookup_ns, "ns");
  out.add("core.forwards_per_req", m.forwards_per_req, "forwards/req");
  out.add("core.learned_forward_ratio", m.learned_forward_ratio, "ratio");
  out.add("hash.carp_owner_ns", c.carp_owner_ns, "ns");
  out.add("cache.lru_access_ns", c.lru_access_ns, "ns");
  out.add("store.size_of_ns", c.size_of_ns, "ns");
  out.add("store.body_ns", c.body_ns, "ns");
  out.add("store.byte_hit_rate", m.byte_hit_rate, "ratio");
  out.add("store.store_msgs_per_req", m.store_msgs_per_req, "msgs/req");
  out.add("link.transfers_per_req", m.link_transfers_per_req, "transfers/req");
  out.add("link.queued_per_req", m.link_queued_per_req, "transfers/req");
  out.add("link.schedule_ns", c.schedule_ns, "ns");
  out.add("membership.control_msgs_per_req", m.control_msgs_per_req, "msgs/req");
  out.add("net.encode_ns", c.encode_ns, "ns/frame");
  out.add("net.decode_ns", c.decode_ns, "ns/frame");
  out.add("net.frames_per_req", m.frames_per_req, "frames/req");
  out.add("server.proxy_cpu_us_per_req", m.proxy_cpu_us_per_req, "us");
  out.add("server.origin_cpu_us_per_req", m.origin_cpu_us_per_req, "us");
  out.add("server.loadgen_cpu_us_per_req", m.loadgen_cpu_us_per_req, "us");
  out.add("server.busiest_daemon_busy", m.busiest_daemon_busy, "share");
  out.add("server.sys_us_per_req", m.sys_us_per_req, "us");
  out.add("server.ctx_switches_per_req", m.ctx_switches_per_req, "switches/req");
  out.add("server.unaccounted_cpu_us_per_req", m.unaccounted_cpu_us_per_req, "us");
  out.add("trace.req_per_s", m.traced_req_per_s, "req/s");
}

}  // namespace perfbench
