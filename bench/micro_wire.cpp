// Micro-benchmarks of the wire-protocol codec: frame encode and decode
// throughput for the payloads the live runtime actually moves — bare
// messages (the common case), journey paths of typical random-walk depth,
// and the maximum-size backward stack.  Bytes/sec is the number to watch:
// the daemon encodes or decodes every frame on its event-loop thread, so
// codec cost bounds per-node message throughput.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "net/wire.h"
#include "util/rng.h"

namespace {

using namespace adc;

net::WireMessage sample_message(std::size_t path_len) {
  util::Rng rng(1234 + path_len);
  net::WireMessage wire;
  wire.msg.kind = sim::MessageKind::kReply;
  wire.msg.request_id = make_request_id(6, 999);
  wire.msg.object = rng.next();
  wire.msg.sender = 3;
  wire.msg.target = 1;
  wire.msg.client = 6;
  wire.msg.forward_count = 4;
  wire.msg.hops = 9;
  wire.msg.resolver = 2;
  wire.msg.cached = true;
  wire.msg.proxy_hit = true;
  wire.msg.version = 7;
  wire.msg.issued_at = 123456789;
  for (std::size_t i = 0; i < path_len; ++i) {
    wire.path.push_back(static_cast<NodeId>(rng.index(64)));
  }
  return wire;
}

void BM_WireEncode(benchmark::State& state) {
  const net::WireMessage wire = sample_message(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> out;
  std::size_t frame_bytes = 0;
  for (auto _ : state) {
    out.clear();
    net::encode_message(wire, &out);
    benchmark::DoNotOptimize(out.data());
    frame_bytes = out.size();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(frame_bytes));
}

void BM_WireDecode(benchmark::State& state) {
  const net::WireMessage wire = sample_message(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> bytes;
  net::encode_message(wire, &bytes);
  net::Frame frame;
  for (auto _ : state) {
    std::size_t consumed = 0;
    net::decode_frame(bytes.data(), bytes.size(), &consumed, &frame);
    benchmark::DoNotOptimize(frame);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetBytesProcessed(state.iterations() * static_cast<std::int64_t>(bytes.size()));
}

void BM_WireEncodeHello(benchmark::State& state) {
  std::vector<std::uint8_t> out;
  for (auto _ : state) {
    out.clear();
    net::encode_hello(net::Hello{6, sim::NodeKind::kClient}, &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_WireRoundTrip(benchmark::State& state) {
  // Encode + decode back to back: the cost one forwarded message adds on
  // top of the protocol logic itself.
  const net::WireMessage wire = sample_message(static_cast<std::size_t>(state.range(0)));
  std::vector<std::uint8_t> bytes;
  net::Frame frame;
  for (auto _ : state) {
    bytes.clear();
    net::encode_message(wire, &bytes);
    std::size_t consumed = 0;
    net::decode_frame(bytes.data(), bytes.size(), &consumed, &frame);
    benchmark::DoNotOptimize(frame);
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

// Path depths: none, a typical random walk (8), a deep walk, the cap.
BENCHMARK(BM_WireEncode)->Arg(0)->Arg(8)->Arg(64)->Arg(1024);
BENCHMARK(BM_WireDecode)->Arg(0)->Arg(8)->Arg(64)->Arg(1024);
BENCHMARK(BM_WireEncodeHello);
BENCHMARK(BM_WireRoundTrip)->Arg(0)->Arg(8);
