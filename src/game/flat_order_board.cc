#include "game/flat_order_board.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>

#include "common/math_util.h"
#include "game/kernels.h"

namespace itrim {

namespace {

// Upper-bound position of `value` inside one sorted leaf: the index of the
// first element > value, i.e. n - |{v : v > value}|. The strictly-greater
// tail count is exactly kernels::CountGreater, which sweeps the <= 64
// contiguous doubles branchlessly (vectorized when the CPU allows) — faster
// in practice than a branchy binary search at this width. NaN is handled by
// the callers (NaN inserts leftmost and never matches).
size_t UpperBoundInLeaf(const double* values, size_t n, double value) {
  return n - kernels::CountGreater(values, n, value);
}

// Lower-bound position: index of the first element >= value, via the
// at-least tail count (kernels::CountAtLeast).
size_t LowerBoundInLeaf(const double* values, size_t n, double value) {
  return n - kernels::CountAtLeast(values, n, value);
}

}  // namespace

uint32_t FlatOrderBoard::AllocLeaf() {
  uint32_t slot;
  if (!free_.empty()) {
    slot = free_.back();
    free_.pop_back();
    pool_[slot].n = 0;
  } else {
    slot = static_cast<uint32_t>(pool_.size());
    pool_.emplace_back();
  }
  return slot;
}

size_t FlatOrderBoard::FindInsertLeaf(double value) const {
  // First leaf whose max key is > value (NaN value: every comparison is
  // false, so this is position 0 — the new NaN lands leftmost). When every
  // leaf max is <= value the last leaf absorbs the append.
  const double* begin = max_key_.data();
  const double* end = begin + max_key_.size();
  const double* it = std::partition_point(
      begin, end, [value](double max) { return max <= value; });
  size_t pos = static_cast<size_t>(it - begin);
  return pos == order_.size() ? pos - 1 : pos;
}

void FlatOrderBoard::SplitLeaf(size_t pos) {
  const uint32_t right_slot = AllocLeaf();  // may grow pool_: refs after
  Leaf& left = pool_[order_[pos]];
  Leaf& right = pool_[right_slot];
  constexpr size_t kHalf = kLeafCapacity / 2;
  std::memcpy(right.values, left.values + kHalf, kHalf * sizeof(double));
  right.n = kHalf;
  left.n = kHalf;
  order_.insert(order_.begin() + static_cast<long>(pos) + 1, right_slot);
  max_key_.insert(max_key_.begin() + static_cast<long>(pos) + 1,
                  right.values[kHalf - 1]);
  max_key_[pos] = left.values[kHalf - 1];
  FenwickRebuild();
}

void FlatOrderBoard::Insert(double value) {
  if (order_.empty()) {
    uint32_t slot = AllocLeaf();
    Leaf& leaf = pool_[slot];
    leaf.values[0] = value;
    leaf.n = 1;
    order_.push_back(slot);
    max_key_.push_back(value);
    FenwickRebuild();
    total_ = 1;
    return;
  }
  size_t pos = FindInsertLeaf(value);
  if (pool_[order_[pos]].n == kLeafCapacity) {
    SplitLeaf(pos);
    // Re-aim at the half that now owns the upper-bound position: equal keys
    // stay left iff the left half's new max exceeds the value.
    if (max_key_[pos] <= value) ++pos;
  }
  Leaf& leaf = pool_[order_[pos]];
  const size_t idx = std::isnan(value)
                         ? 0  // nothing compares <= NaN: leftmost
                         : UpperBoundInLeaf(leaf.values, leaf.n, value);
  std::memmove(leaf.values + idx + 1, leaf.values + idx,
               (leaf.n - idx) * sizeof(double));
  leaf.values[idx] = value;
  ++leaf.n;
  max_key_[pos] = leaf.values[leaf.n - 1];
  FenwickAdd(pos, 1);
  ++total_;
}

bool FlatOrderBoard::EraseOne(double value) {
  if (total_ == 0 || std::isnan(value)) return false;
  // First leaf with max >= value; earlier leaves are entirely < value, and
  // if the value exists at all its first occurrence is in this leaf (a
  // later occurrence would force this leaf's max up to the value itself).
  const double* begin = max_key_.data();
  const double* end = begin + max_key_.size();
  const double* it = std::partition_point(
      begin, end, [value](double max) { return max < value; });
  if (it == end) return false;
  const size_t pos = static_cast<size_t>(it - begin);
  Leaf& leaf = pool_[order_[pos]];
  const size_t idx = LowerBoundInLeaf(leaf.values, leaf.n, value);
  if (idx == leaf.n || leaf.values[idx] != value) return false;
  std::memmove(leaf.values + idx, leaf.values + idx + 1,
               (leaf.n - idx - 1) * sizeof(double));
  --leaf.n;
  --total_;
  FenwickSub(pos, 1);
  if (leaf.n > 0) max_key_[pos] = leaf.values[leaf.n - 1];
  if (leaf.n < kLeafMin) RebalanceAfterErase(pos);
  return true;
}

void FlatOrderBoard::MergeLeaves(size_t pos) {
  Leaf& left = pool_[order_[pos]];
  Leaf& right = pool_[order_[pos + 1]];
  assert(left.n + right.n <= kLeafCapacity);
  std::memcpy(left.values + left.n, right.values, right.n * sizeof(double));
  left.n += right.n;
  max_key_[pos] = left.values[left.n - 1];
  free_.push_back(order_[pos + 1]);
  order_.erase(order_.begin() + static_cast<long>(pos) + 1);
  max_key_.erase(max_key_.begin() + static_cast<long>(pos) + 1);
  FenwickRebuild();
}

void FlatOrderBoard::RebalanceAfterErase(size_t pos) {
  const size_t m = LeafCount();
  if (m == 1) {
    // A lone leaf may hold any count; reclaim it only when it empties.
    if (pool_[order_[0]].n == 0) Clear();
    return;
  }
  // Merge with the adjacent sibling when the pair fits in one leaf;
  // otherwise borrow one element across the shared boundary (the erase
  // leaves the leaf exactly one short, so one element restores the
  // invariant and the donor — too full to merge with — stays well above
  // the minimum).
  const size_t left_pos = (pos + 1 < m) ? pos : pos - 1;
  Leaf& left = pool_[order_[left_pos]];
  Leaf& right = pool_[order_[left_pos + 1]];
  if (left.n + right.n <= kLeafCapacity) {
    MergeLeaves(left_pos);
    return;
  }
  if (pos == left_pos) {
    // Borrow the right sibling's smallest onto our tail.
    left.values[left.n] = right.values[0];
    ++left.n;
    std::memmove(right.values, right.values + 1,
                 (right.n - 1) * sizeof(double));
    --right.n;
    max_key_[left_pos] = left.values[left.n - 1];
    FenwickAdd(left_pos, 1);
    FenwickSub(left_pos + 1, 1);
  } else {
    // Borrow the left sibling's largest onto our head.
    std::memmove(right.values + 1, right.values, right.n * sizeof(double));
    right.values[0] = left.values[left.n - 1];
    ++right.n;
    --left.n;
    max_key_[left_pos] = left.values[left.n - 1];
    FenwickAdd(left_pos + 1, 1);
    FenwickSub(left_pos, 1);
  }
}

void FlatOrderBoard::Clear() {
  pool_.clear();
  free_.clear();
  order_.clear();
  max_key_.clear();
  fenwick_.clear();
  total_ = 0;
}

size_t FlatOrderBoard::HeapBytes() const {
  return pool_.capacity() * sizeof(Leaf) + free_.capacity() * sizeof(uint32_t) +
         order_.capacity() * sizeof(uint32_t) +
         max_key_.capacity() * sizeof(double) +
         fenwick_.capacity() * sizeof(uint32_t);
}

void FlatOrderBoard::FenwickRebuild() {
  const size_t m = LeafCount();
  fenwick_.assign(m + 1, 0);
  // One forward pass: add each leaf count at i, push the partial into the
  // parent — O(m) total.
  for (size_t i = 1; i <= m; ++i) {
    fenwick_[i] += pool_[order_[i - 1]].n;
    const size_t parent = i + (i & (~i + 1));
    if (parent <= m) fenwick_[parent] += fenwick_[i];
  }
}

void FlatOrderBoard::FenwickAdd(size_t pos, uint32_t delta) {
  for (size_t i = pos + 1; i <= LeafCount(); i += i & (~i + 1)) {
    fenwick_[i] += delta;
  }
}

void FlatOrderBoard::FenwickSub(size_t pos, uint32_t delta) {
  for (size_t i = pos + 1; i <= LeafCount(); i += i & (~i + 1)) {
    fenwick_[i] -= delta;
  }
}

size_t FlatOrderBoard::FenwickPrefix(size_t pos) const {
  size_t sum = 0;
  for (size_t i = pos; i > 0; i -= i & (~i + 1)) sum += fenwick_[i];
  return sum;
}

double FlatOrderBoard::Kth(size_t k) const {
  assert(k < total_);
  // Binary-lifting descent: find the last order position whose cumulative
  // count is <= k; the remainder indexes into that leaf directly.
  const size_t m = LeafCount();
  size_t bit = 1;
  while ((bit << 1) <= m) bit <<= 1;
  size_t pos = 0;
  size_t remaining = k;
  for (; bit != 0; bit >>= 1) {
    const size_t next = pos + bit;
    if (next <= m && fenwick_[next] <= remaining) {
      pos = next;
      remaining -= fenwick_[next];
    }
  }
  return pool_[order_[pos]].values[remaining];
}

size_t FlatOrderBoard::CountLessEqual(double x) const {
  if (total_ == 0) return 0;
  // NaN probe: !(v > NaN) holds for every v, matching std::upper_bound
  // over the sorted oracle.
  if (std::isnan(x)) return total_;
  // Leaves with max <= x count wholesale; the single straddling leaf (its
  // successor's min is >= this leaf's max > x) contributes its non-greater
  // prefix via the tail-counting kernel.
  const double* begin = max_key_.data();
  const double* end = begin + max_key_.size();
  const double* it = std::partition_point(
      begin, end, [x](double max) { return max <= x; });
  const size_t pos = static_cast<size_t>(it - begin);
  size_t count = FenwickPrefix(pos);
  if (pos < LeafCount()) {
    const Leaf& leaf = pool_[order_[pos]];
    count += leaf.n - kernels::CountGreater(leaf.values, leaf.n, x);
  }
  return count;
}

Result<double> FlatOrderBoard::Quantile(double q) const {
  const size_t n = total_;
  if (n == 0) {
    return Status::FailedPrecondition("flat order board is empty");
  }
  // Literal transcription of QuantileSorted() with Kth() lookups, so the
  // board is bit-identical to the sorted oracle by construction.
  q = Clamp(q, 0.0, 1.0);
  if (n == 1) return Kth(0);
  double pos = q * static_cast<double>(n) - 0.5;
  if (pos <= 0.0) return Kth(0);
  if (pos >= static_cast<double>(n - 1)) return Kth(n - 1);
  size_t lo = static_cast<size_t>(pos);
  double frac = pos - static_cast<double>(lo);
  return Lerp(Kth(lo), Kth(lo + 1), frac);
}

double FlatOrderBoard::PercentileRank(double x) const {
  const size_t n = total_;
  if (n == 0) return 0.0;
  return static_cast<double>(CountLessEqual(x)) / static_cast<double>(n);
}

}  // namespace itrim
