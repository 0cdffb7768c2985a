// Unit tests of the benchmark's reference models on small traces whose
// answers are worked out by hand in the comments.  Exits nonzero on the
// first failed expectation.
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <vector>

#include "../src/models.h"

namespace {

int failures = 0;

void expect_eq(std::uint64_t got, std::uint64_t want, const char* what) {
  if (got == want) return;
  ++failures;
  std::cerr << "FAIL " << what << ": got " << got << ", want " << want << '\n';
}

using perfbench::Key;

void belady() {
  const std::vector<Key> abcabc = {1, 2, 3, 1, 2, 3};
  // Capacity 2: keep 1 and 2, bypass 3 (it returns last); 1 and 2 hit.
  expect_eq(perfbench::belady_bypass_hits(abcabc, 2), 2, "belady abcabc cap 2");
  // Capacity 3 holds everything: every repeat hits.
  expect_eq(perfbench::belady_bypass_hits(abcabc, 3), 3, "belady abcabc cap 3");
  expect_eq(perfbench::belady_bypass_hits(abcabc, 0), 0, "belady cap 0");

  // Capacity 1 on a b a c b a: keep a across both of its repeats (b and c
  // bypass); holding b instead would give up both a hits for one b hit.
  const std::vector<Key> abacba = {1, 2, 1, 3, 2, 1};
  expect_eq(perfbench::belady_bypass_hits(abacba, 1), 2, "belady abacba cap 1");
  // Capacity 2: a stays, b is admitted beside it; c bypasses.  a, b, a hit.
  expect_eq(perfbench::belady_bypass_hits(abacba, 2), 3, "belady abacba cap 2");

  // Eviction by farthest next use: a b c b a with capacity 2.  At c the
  // cache holds a (next at 4) and b (next at 3); c never returns, so it is
  // bypassed and both b and a hit.
  expect_eq(perfbench::belady_bypass_hits({1, 2, 3, 2, 1}, 2), 2, "belady abcba cap 2");
  // a b c c a b with capacity 2: at c, a (next 4) and b (next 5) are cached
  // and c is wanted at 3, so b is evicted; c hits, a hits, b misses.
  expect_eq(perfbench::belady_bypass_hits({1, 2, 3, 3, 1, 2}, 2), 2, "belady abccab cap 2");
}

void compulsory() {
  expect_eq(perfbench::compulsory_hit_bound({1, 1, 2, 3, 2}), 2, "compulsory 11232");
  expect_eq(perfbench::compulsory_hit_bound({}), 0, "compulsory empty");
  expect_eq(perfbench::compulsory_hit_bound({7, 7, 7}), 2, "compulsory 777");
}

void per_owner_lru() {
  const auto parity = [](Key k) { return static_cast<std::size_t>(k % 2); };
  const auto tens = [](Key k) { return static_cast<std::uint64_t>(k * 10); };
  const std::vector<Key> trace = {1, 3, 1, 2, 4, 4, 3, 2};
  // Owner 1 sees 1 3 1 3, owner 0 sees 2 4 4 2.  Capacity 1: owner 1
  // alternates and never hits; owner 0 hits the second 4 only.
  auto one = perfbench::per_owner_lru(trace, 2, 1, parity, tens);
  expect_eq(one.hits, 1, "lru cap 1 hits");
  expect_eq(one.hit_bytes, 40, "lru cap 1 hit bytes");
  expect_eq(one.bytes, 200, "lru cap 1 bytes");
  // Capacity 2: both owners keep their two keys; 1, 3, 4, 2 hit.
  auto two = perfbench::per_owner_lru(trace, 2, 2, parity, tens);
  expect_eq(two.hits, 4, "lru cap 2 hits");
  expect_eq(two.hit_bytes, 100, "lru cap 2 hit bytes");

  // Recency, not insertion order, picks the victim: 1 2 1 3 2 with one
  // owner of capacity 2.  The hit on 1 makes 2 the least recent, so 3
  // evicts 2 and the final 2 misses (FIFO would have hit it).
  const auto single = [](Key) { return std::size_t{0}; };
  auto lru = perfbench::per_owner_lru({1, 2, 1, 3, 2}, 1, 2, single, tens);
  expect_eq(lru.hits, 1, "lru recency hits");
  expect_eq(lru.hit_bytes, 10, "lru recency hit bytes");
}

}  // namespace

int main() {
  belady();
  compulsory();
  per_owner_lru();
  if (failures != 0) {
    std::cerr << failures << " reference-model expectation(s) failed\n";
    return 1;
  }
  std::cerr << "reference-model tests passed\n";
  return 0;
}
