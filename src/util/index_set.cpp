#include "util/index_set.hpp"

#include <bit>

#include "util/assert.hpp"

namespace commsched {

namespace {
std::size_t words_for(std::size_t bits) {
  return (bits + IndexSet::kWordBits - 1) / IndexSet::kWordBits;
}
}  // namespace

void IndexSet::reset(std::size_t universe) {
  universe_ = universe;
  count_ = 0;
  levels_.clear();
  std::size_t bits = universe == 0 ? 1 : universe;
  for (;;) {
    const std::size_t words = words_for(bits);
    levels_.emplace_back(words, std::uint64_t{0});
    if (words == 1) break;
    bits = words;
  }
}

bool IndexSet::contains(std::size_t r) const {
  COMMSCHED_ASSERT_LT_MSG(r, universe_, "IndexSet element out of range");
  return (levels_[0][r / kWordBits] >> (r % kWordBits)) & 1u;
}

// hot-path: no-alloc
void IndexSet::insert(std::size_t r) {
  COMMSCHED_ASSERT_LT_MSG(r, universe_, "IndexSet element out of range");
  if (contains(r)) return;
  ++count_;
  for (auto& level : levels_) {
    const std::size_t word = r / kWordBits;
    const std::uint64_t bit = std::uint64_t{1} << (r % kWordBits);
    const bool was_empty = level[word] == 0;
    level[word] |= bit;
    if (!was_empty) return;  // summaries above are already set
    r = word;
  }
}

// hot-path: no-alloc
void IndexSet::erase(std::size_t r) {
  COMMSCHED_ASSERT_LT_MSG(r, universe_, "IndexSet element out of range");
  if (!contains(r)) return;
  --count_;
  for (auto& level : levels_) {
    const std::size_t word = r / kWordBits;
    const std::uint64_t bit = std::uint64_t{1} << (r % kWordBits);
    level[word] &= ~bit;
    if (level[word] != 0) return;  // word still summarized as non-empty
    r = word;
  }
}

// hot-path: no-alloc
std::size_t IndexSet::first() const {
  if (count_ == 0) return npos;
  // Descend from the single top word, following lowest set bits.
  std::size_t word = 0;
  for (std::size_t k = levels_.size(); k-- > 0;) {
    const std::uint64_t w = levels_[k][word];
    COMMSCHED_ASSERT_MSG(w != 0, "IndexSet summary desynchronized");
    word = word * kWordBits +
           static_cast<std::size_t>(std::countr_zero(w));
  }
  return word;
}

// hot-path: no-alloc
std::size_t IndexSet::next(std::size_t r) const {
  COMMSCHED_ASSERT_LT_MSG(r, universe_, "IndexSet element out of range");
  // Climb until a word holds a set bit above the current position, then
  // descend to the lowest set bit of that subtree.
  std::size_t k = 0;
  std::size_t pos = r;
  for (; k < levels_.size(); ++k) {
    const std::size_t word = pos / kWordBits;
    const std::size_t bit = pos % kWordBits;
    if (bit + 1 < kWordBits) {
      const std::uint64_t above = levels_[k][word] >> (bit + 1);
      if (above != 0) {
        pos = word * kWordBits + bit + 1 +
              static_cast<std::size_t>(std::countr_zero(above));
        break;
      }
    }
    pos = word;
  }
  if (k == levels_.size()) return npos;
  for (std::size_t j = k; j-- > 0;) {
    const std::uint64_t w = levels_[j][pos];
    COMMSCHED_ASSERT_MSG(w != 0, "IndexSet summary desynchronized");
    pos = pos * kWordBits + static_cast<std::size_t>(std::countr_zero(w));
  }
  return pos < universe_ ? pos : npos;
}

// hot-path: no-alloc
std::uint64_t IndexSet::word(std::size_t w) const {
  COMMSCHED_ASSERT_LT_MSG(w, levels_[0].size(), "IndexSet word out of range");
  return levels_[0][w];
}

}  // namespace commsched
