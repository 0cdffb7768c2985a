// A FIFO over a power-of-two ring buffer that only ever grows.
//
// std::deque frees and reallocates a block every few hundred elements that
// pass through it, even at a constant depth; this queue allocates only
// when its depth exceeds every depth seen before, so a steady-state
// push_back/pop_front cycle allocates nothing.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace adc::util {

template <typename T>
class RingQueue {
 public:
  bool empty() const noexcept { return size_ == 0; }
  std::size_t size() const noexcept { return size_; }

  T& front() noexcept {
    assert(size_ > 0);
    return slots_[head_];
  }

  void push_back(T value) {
    if (size_ == slots_.size()) grow();
    slots_[(head_ + size_) & (slots_.size() - 1)] = std::move(value);
    ++size_;
  }

  /// Drops the front element; its slot is reset to T{} so whatever it
  /// held is released now, not when the slot is next overwritten.
  void pop_front() {
    assert(size_ > 0);
    slots_[head_] = T{};
    head_ = (head_ + 1) & (slots_.size() - 1);
    --size_;
  }

 private:
  void grow() {
    std::vector<T> bigger(std::max<std::size_t>(4, 2 * slots_.size()));
    for (std::size_t i = 0; i < size_; ++i) {
      bigger[i] = std::move(slots_[(head_ + i) & (slots_.size() - 1)]);
    }
    slots_.swap(bigger);
    head_ = 0;
  }

  std::vector<T> slots_;  // size is 0 or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace adc::util
