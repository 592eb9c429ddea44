// A vector that keeps its first N elements inline.
//
// Query results are nearly always tiny: an Exists evaluation returns one
// match, and a point read's match reads one tuple. As std::vectors, each
// would be a heap allocation and a free per evaluation; on a point read
// that sleeps between requests, a cold malloc/free pair costs about a
// tenth of a microsecond. Tuples are short too, and keeping their fields
// inline puts a resident record's fields next to its index links.
// SmallVector allocates only once it outgrows N elements; until then the
// elements live in the object.
//
// It offers the subset of std::vector's interface its users need.
// Moving an inline SmallVector moves its elements one by one, so keep N
// small.
#pragma once

#include <algorithm>
#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>

namespace sdl {

template <class T, std::size_t N>
class SmallVector {
  static_assert(N > 0, "use std::vector for no inline capacity");

 public:
  using value_type = T;
  using size_type = std::size_t;
  using reference = T&;
  using const_reference = const T&;
  using iterator = T*;
  using const_iterator = const T*;

  // User-provided rather than defaulted, so that a const SmallVector (or
  // a const object holding one) can be default-initialized.
  SmallVector() noexcept {}  // NOLINT(modernize-use-equals-default)
  SmallVector(const SmallVector& other) { append(other); }
  SmallVector(SmallVector&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    take(other);
  }
  SmallVector& operator=(const SmallVector& other) {
    if (this != &other) {
      clear();
      append(other);
    }
    return *this;
  }
  SmallVector& operator=(SmallVector&& other) noexcept(
      std::is_nothrow_move_constructible_v<T>) {
    if (this != &other) {
      clear();
      release();
      take(other);
    }
    return *this;
  }
  ~SmallVector() {
    clear();
    release();
  }

  [[nodiscard]] size_type size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] size_type capacity() const { return capacity_; }
  [[nodiscard]] T* data() { return data_; }
  [[nodiscard]] const T* data() const { return data_; }
  [[nodiscard]] iterator begin() { return data_; }
  [[nodiscard]] iterator end() { return data_ + size_; }
  [[nodiscard]] const_iterator begin() const { return data_; }
  [[nodiscard]] const_iterator end() const { return data_ + size_; }
  [[nodiscard]] T& operator[](size_type i) { return data_[i]; }
  [[nodiscard]] const T& operator[](size_type i) const { return data_[i]; }
  [[nodiscard]] T& back() { return data_[size_ - 1]; }
  [[nodiscard]] const T& back() const { return data_[size_ - 1]; }

  void reserve(size_type n) {
    if (n > capacity_) reallocate(n);
  }

  /// Unlike std::vector's, the arguments must not refer to an element of
  /// this SmallVector: growth moves the elements before constructing.
  template <class... Args>
  T& emplace_back(Args&&... args) {
    if (size_ == capacity_) reallocate(capacity_ * 2);
    T* slot = std::construct_at(data_ + size_, std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }
  void push_back(const T& v) { emplace_back(v); }
  void push_back(T&& v) { emplace_back(std::move(v)); }
  void pop_back() {
    --size_;
    std::destroy_at(data_ + size_);
  }

  void clear() noexcept {
    std::destroy(begin(), end());
    size_ = 0;
  }

  friend bool operator==(const SmallVector& a, const SmallVector& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }

 private:
  [[nodiscard]] T* inline_data() { return reinterpret_cast<T*>(inline_); }
  [[nodiscard]] bool is_inline() const {
    return data_ == reinterpret_cast<const T*>(inline_);
  }

  /// Moves the elements to a heap block of `n` slots (n >= size_).
  void reallocate(size_type n) {
    std::allocator<T> alloc;
    T* fresh = alloc.allocate(n);
    try {
      std::uninitialized_move(begin(), end(), fresh);
    } catch (...) {
      alloc.deallocate(fresh, n);
      throw;
    }
    std::destroy(begin(), end());
    release();
    data_ = fresh;
    capacity_ = n;
  }

  /// Frees a heap block (elements already destroyed) and goes back to
  /// the inline storage.
  void release() noexcept {
    if (!is_inline()) std::allocator<T>().deallocate(data_, capacity_);
    data_ = inline_data();
    capacity_ = N;
  }

  /// Takes `other`'s elements into this empty, inline SmallVector: steals
  /// a heap block outright, moves inline elements one by one. Leaves
  /// `other` empty and inline.
  void take(SmallVector& other) {
    if (other.is_inline()) {
      std::uninitialized_move(other.begin(), other.end(), data_);
      size_ = other.size_;
      other.clear();
      return;
    }
    data_ = other.data_;
    size_ = other.size_;
    capacity_ = other.capacity_;
    other.data_ = other.inline_data();
    other.size_ = 0;
    other.capacity_ = N;
  }

  void append(const SmallVector& other) {
    reserve(size_ + other.size_);
    std::uninitialized_copy(other.begin(), other.end(), end());
    size_ += other.size_;
  }

  T* data_ = reinterpret_cast<T*>(inline_);
  size_type size_ = 0;
  size_type capacity_ = N;
  alignas(T) std::byte inline_[N * sizeof(T)];
};

}  // namespace sdl
