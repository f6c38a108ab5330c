// A flat first-seen numbering of keys for the history oracles.
//
// Insert gives each new key the next dense index (0, 1, 2, ...) and keys()
// lists the keys in that order, so per-key state lives in plain vectors
// indexed alongside. The table is open addressing with linear probing over
// a power-of-two slot array that holds dense indices; it stays at most half
// full. Keys are never erased, which is all a batch pass over a history
// needs.

#ifndef HERMES_HISTORY_DENSE_INDEX_H_
#define HERMES_HISTORY_DENSE_INDEX_H_

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <numeric>
#include <vector>

namespace hermes::history {

template <typename Key, typename Hash = std::hash<Key>>
class DenseIndex {
 public:
  static constexpr uint32_t kAbsent = UINT32_MAX;

  // Sized so that `expected` keys fit without a rehash.
  explicit DenseIndex(size_t expected = 0) {
    Rehash(std::bit_ceil(std::max<size_t>(2 * expected, 16)));
  }

  // The index of `key`, numbering it first if it is new (the new index is
  // then size() - 1).
  uint32_t Insert(const Key& key) {
    if (2 * (keys_.size() + 1) > slots_.size()) Rehash(2 * slots_.size());
    for (size_t s = Home(key);; s = (s + 1) & mask_) {
      if (slots_[s] == kAbsent) {
        slots_[s] = static_cast<uint32_t>(keys_.size());
        keys_.push_back(key);
        return slots_[s];
      }
      if (keys_[slots_[s]] == key) return slots_[s];
    }
  }

  // The index of `key`, or kAbsent.
  uint32_t Find(const Key& key) const {
    for (size_t s = Home(key);; s = (s + 1) & mask_) {
      if (slots_[s] == kAbsent || keys_[slots_[s]] == key) return slots_[s];
    }
  }

  bool Contains(const Key& key) const { return Find(key) != kAbsent; }
  size_t size() const { return keys_.size(); }
  // Keys by index, in first-seen order.
  const std::vector<Key>& keys() const { return keys_; }
  const Key& operator[](uint32_t i) const { return keys_[i]; }

  // The indices 0 .. size() - 1, ordered by key.
  std::vector<uint32_t> IndicesByKey() const {
    std::vector<uint32_t> order(keys_.size());
    std::iota(order.begin(), order.end(), 0);
    std::sort(order.begin(), order.end(),
              [&](uint32_t a, uint32_t b) { return keys_[a] < keys_[b]; });
    return order;
  }

 private:
  // Fibonacci hashing: the top bits of hash * 2^64/phi pick the home slot,
  // so a hash that varies only in its low bits still spreads.
  size_t Home(const Key& key) const {
    return static_cast<size_t>((static_cast<uint64_t>(Hash{}(key)) *
                                0x9E3779B97F4A7C15ULL) >>
                               shift_);
  }

  void Rehash(size_t slots) {
    slots_.assign(slots, kAbsent);
    mask_ = slots - 1;
    shift_ = 64 - std::countr_zero(slots);
    for (uint32_t i = 0; i < keys_.size(); ++i) {
      size_t s = Home(keys_[i]);
      while (slots_[s] != kAbsent) s = (s + 1) & mask_;
      slots_[s] = i;
    }
  }

  std::vector<Key> keys_;
  std::vector<uint32_t> slots_;
  size_t mask_ = 0;
  int shift_ = 64;
};

}  // namespace hermes::history

#endif  // HERMES_HISTORY_DENSE_INDEX_H_
