// A window over the last N values of a stream, stored inline.
//
// push_back appends and, once the window is full, overwrites the oldest
// value, so a rolling history costs no allocation per entry (a std::deque
// allocates a block every few pushes and frees it again as the front pops).
// Index 0 is the oldest value, size() - 1 the newest.

#ifndef SRC_COMMON_FIXED_RING_H_
#define SRC_COMMON_FIXED_RING_H_

#include <array>
#include <cstddef>

namespace themis {

template <typename T, size_t N>
class FixedRing {
  static_assert(N > 0 && (N & (N - 1)) == 0, "the capacity must be a power of two");

 public:
  static constexpr size_t capacity() { return N; }
  size_t size() const { return size_; }
  bool full() const { return size_ == N; }

  const T& operator[](size_t i) const { return slots_[(head_ + i) & (N - 1)]; }
  const T& front() const { return slots_[head_]; }
  const T& back() const { return (*this)[size_ - 1]; }

  void push_back(const T& value) {
    if (size_ < N) {
      slots_[(head_ + size_) & (N - 1)] = value;
      ++size_;
    } else {
      slots_[head_] = value;
      head_ = (head_ + 1) & (N - 1);
    }
  }
  void clear() {
    head_ = 0;
    size_ = 0;
  }

 private:
  std::array<T, N> slots_{};
  size_t head_ = 0;
  size_t size_ = 0;
};

}  // namespace themis

#endif  // SRC_COMMON_FIXED_RING_H_
