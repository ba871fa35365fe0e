// Growable ring-buffer FIFO.
//
// The queue behind every per-object in-flight list on the packet path (a
// link's packets between admission and exit, a TCP connection's
// unacknowledged segments and its unsegmented messages), a KECho channel's
// receive queue, and CPU_MON's sample window. Storage is one power-of-two
// array that doubles when full and is reused forever after, so a warm queue
// never touches the heap. Nothing is reserved up front — an idle queue
// costs no allocation at all — and the first buffer holds two elements:
// most queues (a client endpoint's one message per period) never hold more,
// and the ones that do double their way up in a few steps.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

namespace dproc {

template <typename T>
class Fifo {
 public:
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::size_t size() const { return size_; }
  /// Elements the current buffer holds before the next growth.
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }

  /// Element i counted from the front (0 == oldest).
  [[nodiscard]] T& operator[](std::size_t i) {
    return buf_[(head_ + i) & (buf_.size() - 1)];
  }
  [[nodiscard]] T& front() { return buf_[head_]; }
  [[nodiscard]] T& back() { return (*this)[size_ - 1]; }

  void push_back(T value) {
    if (size_ == buf_.size()) grow();
    (*this)[size_] = std::move(value);
    ++size_;
  }

  /// Moves the front element out. The vacated cell is left moved-from, so
  /// owning members (shared pointers) are released here, not on reuse.
  T pop_front() {
    T value = std::move(buf_[head_]);
    head_ = (head_ + 1) & (buf_.size() - 1);
    --size_;
    return value;
  }

  /// Empties the queue, keeping its buffer. Every element is reset to a
  /// default value, so what the elements own is released now.
  void clear() {
    for (std::size_t i = 0; i < size_; ++i) (*this)[i] = T{};
    head_ = 0;
    size_ = 0;
  }

 private:
  void grow() {
    std::vector<T> bigger(buf_.empty() ? 2 : buf_.size() * 2);
    for (std::size_t i = 0; i < size_; ++i) bigger[i] = std::move((*this)[i]);
    buf_ = std::move(bigger);
    head_ = 0;
  }

  std::vector<T> buf_;  // capacity, always zero or a power of two
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dproc
