#include "instance/segment.h"

#include <algorithm>

namespace mm2::instance {

namespace {

// Lexicographic three-way compare of two length-`len` value runs.
int CompareValues(const Value* a, const Value* b, std::size_t len) {
  for (std::size_t i = 0; i < len; ++i) {
    if (a[i] < b[i]) return -1;
    if (b[i] < a[i]) return 1;
  }
  return 0;
}

void Count(SegmentOpStats* stats, std::uint64_t n) {
  if (stats != nullptr) stats->compares += n;
}

}  // namespace

StorageMode ResolveStorageMode(StorageMode requested) { return requested; }

const char* StorageModeName(StorageMode) { return "default"; }

// ---------------------------------------------------------------------------
// Segment
// ---------------------------------------------------------------------------

void Segment::CopyRow(std::size_t row, Tuple* out) const {
  out->resize(arity_);
  for (std::size_t c = 0; c < arity_; ++c) {
    (*out)[c] = columns_[c][row];
  }
}

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
  // Column-0 bounds make most misses free: sorted rows mean min/max of the
  // leading column bracket every stored prefix.
  if (key[0] < min_[0] || max_[0] < key[0]) {
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

void Segment::FinalizeBounds() {
  min_.assign(arity_, Value());
  max_.assign(arity_, Value());
  if (rows_ == 0) return;
  for (std::size_t c = 0; c < arity_; ++c) {
    const std::vector<Value>& col = columns_[c];
    Value lo = col[0];
    Value hi = col[0];
    for (std::size_t r = 1; r < rows_; ++r) {
      if (col[r] < lo) lo = col[r];
      if (hi < col[r]) hi = col[r];
    }
    min_[c] = lo;
    max_[c] = hi;
  }
}

// ---------------------------------------------------------------------------
// SegmentInserter
// ---------------------------------------------------------------------------

SegmentPtr SegmentInserter::Seal(SegmentOpStats* stats) {
  std::vector<Tuple> rows;
  rows.swap(pending_);
  CountedSort(&rows, stats);
  std::size_t out = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) {
      Count(stats, 1);
      if (rows[i] == rows[out - 1]) continue;
    }
    if (out != i) rows[out] = std::move(rows[i]);
    ++out;
  }
  rows.resize(out);
  auto segment = std::make_shared<Segment>();
  segment->arity_ = arity_;
  segment->rows_ = rows.size();
  segment->columns_.resize(arity_);
  for (std::size_t c = 0; c < arity_; ++c) {
    std::vector<Value>& col = segment->columns_[c];
    col.reserve(rows.size());
    for (const Tuple& row : rows) col.push_back(row[c]);
  }
  segment->FinalizeBounds();
  if (stats != nullptr) {
    ++stats->seals;
    stats->sealed_rows += segment->rows_;
  }
  return segment;
}

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
  segment->FinalizeBounds();
  if (stats != nullptr) {
    ++stats->seals;
    stats->sealed_rows += segment->rows_;
  }
  return segment;
}

// ---------------------------------------------------------------------------
// Sorted-row helpers
// ---------------------------------------------------------------------------

void CountedSort(std::vector<Tuple>* rows, SegmentOpStats* stats) {
  if (stats == nullptr) {
    std::sort(rows->begin(), rows->end());
    return;
  }
  std::uint64_t* compares = &stats->compares;
  std::sort(rows->begin(), rows->end(),
            [compares](const Tuple& a, const Tuple& b) {
              ++*compares;
              return a < b;
            });
}

bool SortedContains(const std::vector<Tuple>& sorted, const Tuple& tuple,
                    SegmentOpStats* stats) {
  std::uint64_t* compares =
      stats != nullptr ? &stats->compares : nullptr;
  std::size_t lo = 0, hi = sorted.size();
  while (lo < hi) {
    std::size_t mid = lo + (hi - lo) / 2;
    if (compares != nullptr) ++*compares;
    int cmp = CompareValues(sorted[mid].data(), tuple.data(),
                            std::min(sorted[mid].size(), tuple.size()));
    if (cmp == 0 && sorted[mid].size() != tuple.size()) {
      cmp = sorted[mid].size() < tuple.size() ? -1 : 1;
    }
    if (cmp < 0) {
      lo = mid + 1;
    } else if (cmp > 0) {
      hi = mid;
    } else {
      return true;
    }
  }
  return false;
}

}  // namespace mm2::instance
