// Micro-benchmarks of the hashing substrate: MD5 digesting, FNV-1a,
// CRC-32, the CARP combine, and full owner selection for all three
// allocation schemes, plus a key-distribution spot check.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>
#include <vector>

#include "hash/carp.h"
#include "hash/consistent_hash.h"
#include "hash/crc32.h"
#include "hash/fnv.h"
#include "hash/md5.h"
#include "hash/rendezvous.h"
#include "util/rng.h"
#include "workload/url_space.h"

namespace {

using namespace adc;

std::vector<std::string> sample_urls(std::size_t count) {
  workload::UrlSpace space;
  std::vector<std::string> urls;
  urls.reserve(count);
  for (std::size_t i = 0; i < count; ++i) urls.push_back(space.url_for(i + 1));
  return urls;
}

void BM_Md5Digest64(benchmark::State& state) {
  const auto urls = sample_urls(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::Md5::digest64(urls[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Fnv1a64(benchmark::State& state) {
  const auto urls = sample_urls(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::fnv1a64(urls[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_Crc32(benchmark::State& state) {
  const auto urls = sample_urls(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::crc32(urls[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_CarpUrlHash(benchmark::State& state) {
  const auto urls = sample_urls(1024);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(hash::carp_url_hash(urls[i++ & 1023]));
  }
  state.SetItemsProcessed(state.iterations());
}

hash::CarpArray make_array(int members) {
  std::vector<hash::CarpArray::Member> list;
  for (int i = 0; i < members; ++i) {
    list.push_back({"proxy[" + std::to_string(i) + "]", static_cast<NodeId>(i), 1.0});
  }
  return hash::CarpArray(std::move(list));
}

void BM_CarpOwner(benchmark::State& state) {
  const auto array = make_array(static_cast<int>(state.range(0)));
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(array.owner(static_cast<ObjectId>(rng.next())));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RingOwner(benchmark::State& state) {
  hash::ConsistentHashRing ring;
  for (int i = 0; i < state.range(0); ++i) {
    ring.add_member(static_cast<NodeId>(i), "proxy[" + std::to_string(i) + "]");
  }
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ring.owner(static_cast<ObjectId>(rng.next())));
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_RendezvousOwner(benchmark::State& state) {
  hash::RendezvousHash hrw;
  for (int i = 0; i < state.range(0); ++i) {
    hrw.add_member(static_cast<NodeId>(i), "proxy[" + std::to_string(i) + "]");
  }
  util::Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(hrw.owner(static_cast<ObjectId>(rng.next())));
  }
  state.SetItemsProcessed(state.iterations());
}

}  // namespace

BENCHMARK(BM_Md5Digest64);
BENCHMARK(BM_Fnv1a64);
BENCHMARK(BM_Crc32);
BENCHMARK(BM_CarpUrlHash);
BENCHMARK(BM_CarpOwner)->Arg(5)->Arg(16)->Arg(64);
BENCHMARK(BM_RingOwner)->Arg(5)->Arg(16)->Arg(64);
BENCHMARK(BM_RendezvousOwner)->Arg(5)->Arg(16)->Arg(64);
