// Hierarchical-bitmap ordered set over a fixed universe [0, n).
//
// The million-job scheduler event loop (DESIGN.md "Million-job event loop")
// needs a pending-queue index with O(log n) insert/erase and in-order
// traversal that never allocates after construction. IndexSet stores one bit
// per universe element plus a 64-ary summary tree over the words: every
// operation touches at most ceil(log64 n) + 1 cache lines, and all storage
// is reserved up front by reset(), so steady-state scheduler events perform
// no heap allocation.
//
// The element values are *ranks* in some externally defined total order
// (e.g. the queue-policy order of a job log); the set itself is just a fast
// ordered bag of integers.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace commsched {

class IndexSet {
 public:
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  /// Elements per word() of membership bits.
  static constexpr std::size_t kWordBits = 64;

  IndexSet() = default;
  explicit IndexSet(std::size_t universe) { reset(universe); }

  /// Resize to an empty set over [0, universe). The only allocating call.
  void reset(std::size_t universe);

  std::size_t universe() const noexcept { return universe_; }
  std::size_t size() const noexcept { return count_; }
  bool empty() const noexcept { return count_ == 0; }

  bool contains(std::size_t r) const;

  // hot-path: no-alloc
  void insert(std::size_t r);

  // hot-path: no-alloc
  void erase(std::size_t r);

  /// Smallest element, or npos when empty.
  // hot-path: no-alloc
  std::size_t first() const;

  /// Smallest element strictly greater than `r`, or npos.
  // hot-path: no-alloc
  std::size_t next(std::size_t r) const;

  /// The membership bits of elements [64 w, 64 w + 64): bit b is set iff
  /// 64 w + b is in the set. w < ceil(universe / 64).
  // hot-path: no-alloc
  std::uint64_t word(std::size_t w) const;

 private:
  // levels_[0] holds the element bits; levels_[k][w] bit b summarizes
  // whether word (w * 64 + b) of level k-1 is non-zero. The top level is a
  // single word.
  std::vector<std::vector<std::uint64_t>> levels_;
  std::size_t universe_ = 0;
  std::size_t count_ = 0;
};

}  // namespace commsched
