// Reference models the benchmark checks the program's outputs against.
//
// They are computed apart from the program: the only inputs taken from it
// are the request stream, the owner function (which proxy a key hashes
// to) and the object size function.  Nothing here calls into src/.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <vector>

namespace perfbench {

using Key = std::uint64_t;

/// Hits of one offline-optimal cache of `capacity` unit-size objects that
/// may decline to admit a missed object (Belady's MIN with bypass): on a
/// miss it keeps whichever of the candidates is requested again soonest.
/// No online policy over the same aggregate capacity gets more hits.
std::uint64_t belady_bypass_hits(const std::vector<Key>& requests, std::size_t capacity);

/// Requests minus distinct objects: every object's first request misses in
/// any cache, so no capacity gives more hits than this.
std::uint64_t compulsory_hit_bound(const std::vector<Key>& requests);

struct LruReplay {
  std::uint64_t hits = 0;
  std::uint64_t hit_bytes = 0;
  std::uint64_t bytes = 0;  // bytes of every request
};

/// Replays `requests` one at a time through `owners` independent LRU
/// caches of `capacity` objects each; request k goes to cache owner(k).
/// This is CARP with one request in flight: every object has one home,
/// and that home's cache sees its requests in trace order.
LruReplay per_owner_lru(const std::vector<Key>& requests, std::size_t owners,
                        std::size_t capacity, const std::function<std::size_t(Key)>& owner,
                        const std::function<std::uint64_t(Key)>& size);

}  // namespace perfbench
