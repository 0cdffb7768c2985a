#include "models.h"

#include <limits>
#include <list>
#include <set>
#include <stdexcept>
#include <unordered_map>
#include <unordered_set>
#include <utility>

namespace perfbench {

std::uint64_t belady_bypass_hits(const std::vector<Key>& requests, std::size_t capacity) {
  constexpr std::size_t kNever = std::numeric_limits<std::size_t>::max();
  const std::size_t n = requests.size();

  // next_use[i]: index of the next request for requests[i], or kNever.
  std::vector<std::size_t> next_use(n, kNever);
  {
    std::unordered_map<Key, std::size_t> seen;
    seen.reserve(n / 2 + 1);
    for (std::size_t i = n; i-- > 0;) {
      const auto [it, fresh] = seen.try_emplace(requests[i], i);
      if (!fresh) {
        next_use[i] = it->second;
        it->second = i;
      }
    }
  }

  // Cached objects ordered by next use; the last one is the eviction victim.
  std::set<std::pair<std::size_t, Key>> by_next;
  std::unordered_set<Key> cached;
  std::uint64_t hits = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Key key = requests[i];
    const std::size_t next = next_use[i];
    if (cached.count(key) != 0) {
      ++hits;
      by_next.erase({i, key});  // its stored next use was this request
      if (next == kNever) {
        cached.erase(key);  // never wanted again: free the slot
      } else {
        by_next.emplace(next, key);
      }
      continue;
    }
    if (next == kNever || capacity == 0) continue;  // bypass
    if (cached.size() < capacity) {
      by_next.emplace(next, key);
      cached.insert(key);
      continue;
    }
    const auto victim = std::prev(by_next.end());
    if (victim->first <= next) continue;  // every cached object is wanted sooner
    cached.erase(victim->second);
    by_next.erase(victim);
    by_next.emplace(next, key);
    cached.insert(key);
  }
  return hits;
}

std::uint64_t compulsory_hit_bound(const std::vector<Key>& requests) {
  const std::unordered_set<Key> distinct(requests.begin(), requests.end());
  return requests.size() - distinct.size();
}

namespace {

/// Count-bounded LRU set: most recent at the front.
class Lru {
 public:
  explicit Lru(std::size_t capacity) : capacity_(capacity) {}

  /// True on a hit (and refreshes recency); on a miss admits the key,
  /// evicting the least recently used one when full.
  bool access(Key key) {
    if (const auto it = where_.find(key); it != where_.end()) {
      order_.splice(order_.begin(), order_, it->second);
      return true;
    }
    if (capacity_ == 0) return false;
    if (where_.size() == capacity_) {
      where_.erase(order_.back());
      order_.pop_back();
    }
    order_.push_front(key);
    where_.emplace(key, order_.begin());
    return false;
  }

 private:
  std::size_t capacity_;
  std::list<Key> order_;
  std::unordered_map<Key, std::list<Key>::iterator> where_;
};

}  // namespace

LruReplay per_owner_lru(const std::vector<Key>& requests, std::size_t owners,
                        std::size_t capacity, const std::function<std::size_t(Key)>& owner,
                        const std::function<std::uint64_t(Key)>& size) {
  std::vector<Lru> caches(owners, Lru(capacity));
  LruReplay out;
  for (const Key key : requests) {
    const std::size_t home = owner(key);
    if (home >= owners) throw std::out_of_range("owner index out of range");
    const std::uint64_t bytes = size(key);
    out.bytes += bytes;
    if (caches[home].access(key)) {
      ++out.hits;
      out.hit_bytes += bytes;
    }
  }
  return out;
}

}  // namespace perfbench
