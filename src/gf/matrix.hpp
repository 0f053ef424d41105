#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <memory>
#include <new>
#include <vector>

#include "util/assert.hpp"
#include "util/rng.hpp"

namespace nab::gf {

namespace detail {

#if defined(__SANITIZE_ADDRESS__)
inline constexpr bool address_sanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
inline constexpr bool address_sanitized = true;
#else
inline constexpr bool address_sanitized = false;
#endif
#else
inline constexpr bool address_sanitized = false;
#endif

/// Matrix storage allocator: blocks of 1 MiB or more are mapped straight
/// from the OS and unmapped when freed, smaller ones come from the heap.
/// Through malloc, freeing one large block raises glibc's dynamic mmap
/// threshold, so the next block of that size lands in the brk heap, and the
/// process's peak RSS then depends on how that heap happens to be
/// fragmented. Under AddressSanitizer every block comes from the heap, so
/// the largest matrices keep their redzones and an index past the last row
/// is reported instead of landing in page slack.
template <class T>
struct large_block_allocator {
  using value_type = T;
  static constexpr std::size_t min_mapped_bytes =
      address_sanitized ? ~std::size_t{0} : std::size_t{1} << 20;

  large_block_allocator() = default;
  template <class U>
  large_block_allocator(const large_block_allocator<U>&) noexcept {}

  T* allocate(std::size_t n) {
    if (n * sizeof(T) < min_mapped_bytes) return std::allocator<T>{}.allocate(n);
    void* p = ::mmap(nullptr, n * sizeof(T), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    return static_cast<T*>(p);
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (n * sizeof(T) < min_mapped_bytes) {
      std::allocator<T>{}.deallocate(p, n);
      return;
    }
    ::munmap(p, n * sizeof(T));
  }

  friend bool operator==(const large_block_allocator&, const large_block_allocator&) {
    return true;
  }
};

}  // namespace detail

/// Dense row-major matrix over a binary extension field.
///
/// `F` is a stateless field tag (gf2_16 in the library) exposing
/// value_type, zero/one, add/sub/mul/inv/div. The matrix owns its storage;
/// copying is explicit. The largest matrices are the certification check
/// matrices: K_64's is 3968 x 4032 (32 MB), which is why storage of 1 MiB
/// or more goes straight to and from the OS (detail::large_block_allocator).
template <class F>
class matrix {
 public:
  using field = F;
  using value_type = typename F::value_type;

  matrix() = default;

  /// rows x cols zero matrix.
  matrix(std::size_t rows, std::size_t cols)
      : rows_(rows), cols_(cols), data_(rows * cols, F::zero()) {}

  static matrix identity(std::size_t n) {
    matrix m(n, n);
    for (std::size_t i = 0; i < n; ++i) m.at(i, i) = F::one();
    return m;
  }

  /// Matrix with entries drawn independently and uniformly from F — exactly
  /// the coding-matrix distribution of Theorem 1.
  static matrix random(std::size_t rows, std::size_t cols, rng& rand) {
    matrix m(rows, cols);
    for (auto& v : m.data_)
      v = static_cast<value_type>(rand.below(F::order));
    return m;
  }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return data_.empty(); }

  value_type& at(std::size_t r, std::size_t c) {
    NAB_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }
  const value_type& at(std::size_t r, std::size_t c) const {
    NAB_ASSERT(r < rows_ && c < cols_, "matrix index out of range");
    return data_[r * cols_ + c];
  }

  /// Contiguous storage of row r (rows are row-major) — the batched row
  /// kernels (F::axpy / F::scale) operate directly on these.
  value_type* row_ptr(std::size_t r) {
    NAB_ASSERT(r < rows_, "matrix row out of range");
    return data_.data() + r * cols_;
  }
  const value_type* row_ptr(std::size_t r) const {
    NAB_ASSERT(r < rows_, "matrix row out of range");
    return data_.data() + r * cols_;
  }

  bool operator==(const matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_ && data_ == other.data_;
  }

  matrix transpose() const {
    matrix t(cols_, rows_);
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t c = 0; c < cols_; ++c) t.at(c, r) = at(r, c);
    return t;
  }

  /// Entry-wise sum. Precondition: identical shapes.
  friend matrix operator+(const matrix& a, const matrix& b) {
    NAB_ASSERT(a.rows_ == b.rows_ && a.cols_ == b.cols_, "matrix shape mismatch in +");
    matrix out(a.rows_, a.cols_);
    for (std::size_t i = 0; i < a.data_.size(); ++i)
      out.data_[i] = F::add(a.data_[i], b.data_[i]);
    return out;
  }

  /// Matrix product. Precondition: a.cols() == b.rows().
  friend matrix operator*(const matrix& a, const matrix& b) {
    NAB_ASSERT(a.cols_ == b.rows_, "matrix shape mismatch in *");
    matrix out(a.rows_, b.cols_);
    for (std::size_t r = 0; r < a.rows_; ++r) {
      for (std::size_t k = 0; k < a.cols_; ++k) {
        const value_type arv = a.at(r, k);
        if (arv == F::zero()) continue;
        for (std::size_t c = 0; c < b.cols_; ++c) {
          out.at(r, c) = F::add(out.at(r, c), F::mul(arv, b.at(k, c)));
        }
      }
    }
    return out;
  }

  /// Horizontal concatenation [a | b]. Precondition: equal row counts.
  static matrix hconcat(const matrix& a, const matrix& b) {
    NAB_ASSERT(a.rows_ == b.rows_, "hconcat row mismatch");
    matrix out(a.rows_, a.cols_ + b.cols_);
    for (std::size_t r = 0; r < a.rows_; ++r) {
      for (std::size_t c = 0; c < a.cols_; ++c) out.at(r, c) = a.at(r, c);
      for (std::size_t c = 0; c < b.cols_; ++c) out.at(r, a.cols_ + c) = b.at(r, c);
    }
    return out;
  }

  /// Copy of the given columns, in the given order.
  matrix select_columns(const std::vector<std::size_t>& cols) const {
    matrix out(rows_, cols.size());
    for (std::size_t r = 0; r < rows_; ++r)
      for (std::size_t j = 0; j < cols.size(); ++j) {
        NAB_ASSERT(cols[j] < cols_, "select_columns index out of range");
        out.at(r, j) = at(r, cols[j]);
      }
    return out;
  }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<value_type, detail::large_block_allocator<value_type>> data_;
};

}  // namespace nab::gf
