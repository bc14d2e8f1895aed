#include "instance/segment.h"

namespace mm2::instance {

StorageMode ResolveStorageMode(StorageMode requested) { return requested; }

const char* StorageModeName(StorageMode) { return "default"; }

// ---------------------------------------------------------------------------
// Segment
// ---------------------------------------------------------------------------

int Segment::CompareRowPrefix(std::size_t row, const Value* key,
                              std::size_t len,
                              std::uint64_t* compares) const {
  if (compares != nullptr) ++*compares;
  for (std::size_t c = 0; c < len; ++c) {
    const Value& cell = columns_[c][row];
    if (cell < key[c]) return -1;
    if (key[c] < cell) return 1;
  }
  return 0;
}

Segment::RowRange Segment::EqualRange(const Value* key,
                                      std::size_t prefix_len,
                                      SegmentOpStats* stats) const {
  RowRange range;
  if (rows_ == 0 || prefix_len == 0) {
    range.begin = 0;
    range.end = prefix_len == 0 ? rows_ : 0;
    return range;
  }
  // Column-0 bounds make most misses free: rows are sorted, so the first
  // and the last row's leading values bracket every stored prefix.
  if (key[0] < at(0, 0) || at(rows_ - 1, 0) < key[0]) {
    if (stats != nullptr) ++stats->skips;
    return range;
  }
  std::uint64_t* compares = stats != nullptr ? &stats->compares : nullptr;
  // lower bound: first row with row >= key-prefix
  std::size_t lo = 0, hi = rows_;
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    if (CompareRowPrefix(mid, key, prefix_len, compares) < 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  range.begin = lo;
  // upper bound: first row with row > key-prefix
  hi = rows_;
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    if (CompareRowPrefix(mid, key, prefix_len, compares) <= 0) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  range.end = lo;
  return range;
}

// ---------------------------------------------------------------------------
// SegmentInserter
// ---------------------------------------------------------------------------

SegmentPtr SegmentInserter::FromSorted(std::size_t arity,
                                       const std::set<Tuple>& rows,
                                       SegmentOpStats* stats) {
  auto segment = std::make_shared<Segment>();
  segment->arity_ = arity;
  segment->rows_ = rows.size();
  segment->columns_.resize(arity);
  for (std::size_t c = 0; c < arity; ++c) {
    segment->columns_[c].reserve(rows.size());
  }
  for (const Tuple& row : rows) {
    for (std::size_t c = 0; c < arity; ++c) {
      segment->columns_[c].push_back(row[c]);
    }
  }
  if (stats != nullptr) {
    ++stats->seals;
    stats->sealed_rows += segment->rows_;
  }
  return segment;
}

}  // namespace mm2::instance
