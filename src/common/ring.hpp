// A FIFO queue on a circular buffer that keeps its storage.
//
// The interaction-point inboxes and the transport entity's send queues
// (estelle/interaction.hpp, osi/transport.hpp) are built in large numbers
// (hundreds per Fig. 2 testbed) and then carry a steady trickle of
// messages. A Ring allocates nothing when it is built, grows by doubling
// when a push finds it full and never shrinks, so once a queue has seen its
// largest backlog, pushes and pops allocate nothing.
//
// A push may grow the storage, which moves every element: a reference or
// pointer to an element stays valid until the next push_back() or
// pop_front().
#pragma once

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace mcam::common {

template <typename T>
class Ring {
 public:
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

  /// The oldest element; the ring must not be empty.
  [[nodiscard]] const T& front() const noexcept { return slots_[head_]; }
  /// The i-th element from the front, i < size().
  [[nodiscard]] T& operator[](std::size_t i) noexcept {
    return slots_[(head_ + i) & mask_];
  }

  void push_back(T value) {
    if (size_ == capacity()) grow();
    slots_[(head_ + size_) & mask_] = std::move(value);
    ++size_;
  }
  /// Move the front element out; the ring must not be empty.
  T pop_front() noexcept(std::is_nothrow_move_constructible_v<T>) {
    T value = std::move(slots_[head_]);
    head_ = (head_ + 1) & mask_;
    --size_;
    return value;
  }
  /// Destroy the elements' contents (each slot is reset to T{}); the
  /// storage stays.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) (*this)[i] = T{};
    head_ = 0;
    size_ = 0;
  }

 private:
  static constexpr std::size_t kFirstCapacity = 8;

  [[nodiscard]] std::size_t capacity() const noexcept {
    return slots_ ? mask_ + 1 : 0;
  }
  void grow() {
    const std::size_t cap = slots_ ? 2 * (mask_ + 1) : kFirstCapacity;
    auto bigger = std::make_unique<T[]>(cap);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    slots_ = std::move(bigger);
    mask_ = cap - 1;
    head_ = 0;
  }

  std::unique_ptr<T[]> slots_;  // capacity mask_ + 1, a power of two
  std::size_t mask_ = 0;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace mcam::common
