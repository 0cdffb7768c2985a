#include "util/ring_queue.h"

#include <gtest/gtest.h>

#include <deque>
#include <memory>

namespace adc::util {
namespace {

// Against std::deque as the reference: pushes and pops interleaved so the
// ring wraps around, and grows while wrapped (head past slot 0).
TEST(RingQueue, MatchesDequeAcrossWrapAndGrowth) {
  RingQueue<int> ring;
  std::deque<int> reference;
  int next = 0;
  for (int round = 0; round < 200; ++round) {
    const int pushes = 1 + round % 7;
    const int pops = round % 5;
    for (int i = 0; i < pushes; ++i) {
      ring.push_back(next);
      reference.push_back(next);
      ++next;
    }
    for (int i = 0; i < pops && !reference.empty(); ++i) {
      ASSERT_EQ(ring.front(), reference.front());
      ring.pop_front();
      reference.pop_front();
    }
    ASSERT_EQ(ring.size(), reference.size());
  }
  while (!reference.empty()) {
    ASSERT_EQ(ring.front(), reference.front());
    ring.pop_front();
    reference.pop_front();
  }
  EXPECT_TRUE(ring.empty());
}

TEST(RingQueue, PopReleasesTheElement) {
  RingQueue<std::shared_ptr<int>> ring;
  auto held = std::make_shared<int>(7);
  ring.push_back(held);
  ring.push_back(std::make_shared<int>(8));
  EXPECT_EQ(held.use_count(), 2);
  ring.pop_front();
  EXPECT_EQ(held.use_count(), 1);
  EXPECT_EQ(*ring.front(), 8);
}

}  // namespace
}  // namespace adc::util
