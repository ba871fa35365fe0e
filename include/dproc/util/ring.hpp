// Fixed-capacity ring that overwrites its oldest entry when full.
//
// The bounded history behind the telemetry span and hop logs, the flight
// recorder and the health engine's per-metric series. Storage is sized once
// by reset() — typically when the owning gate is first enabled — and never
// grows, so recording never touches the heap. A ring that was never sized
// holds nothing and ignores pushes.
#pragma once

#include <cstddef>
#include <vector>

namespace dproc {

template <typename T>
class Ring {
 public:
  /// Sizes the ring to `capacity` slots and forgets every retained entry.
  void reset(std::size_t capacity) {
    buf_.assign(capacity, T{});
    clear();
  }
  /// Forgets every retained entry; the storage stays.
  void clear() {
    head_ = 0;
    size_ = 0;
  }

  /// Appends `value`. Returns true when the ring was full and the oldest
  /// entry was overwritten.
  bool push(const T& value) {
    if (buf_.empty()) return false;
    buf_[(head_ + size_) % buf_.size()] = value;
    if (size_ < buf_.size()) {
      ++size_;
      return false;
    }
    head_ = (head_ + 1) % buf_.size();
    return true;
  }

  [[nodiscard]] std::size_t size() const { return size_; }
  [[nodiscard]] std::size_t capacity() const { return buf_.size(); }
  /// Entry i counted from the oldest retained (0 == oldest).
  [[nodiscard]] const T& operator[](std::size_t i) const {
    return buf_[(head_ + i) % buf_.size()];
  }

 private:
  std::vector<T> buf_;
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

}  // namespace dproc
