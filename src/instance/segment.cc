#include "instance/segment.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>

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

StorageMode ResolveStorageMode(StorageMode requested) {
  if (requested != StorageMode::kDefault) return requested;
  const char* env = std::getenv("MM2_STORAGE");
  // Segmented is the default since the tiered segment list reached
  // wall-clock parity (EXPERIMENTS.md §C18); "indexed" selects the oracle.
  if (env == nullptr || env[0] == '\0') return StorageMode::kSegmented;
  if (std::strcmp(env, "indexed") == 0) return StorageMode::kIndexed;
  return StorageMode::kSegmented;
}

const char* StorageModeName(StorageMode mode) {
  switch (mode) {
    case StorageMode::kDefault:
      return "default";
    case StorageMode::kIndexed:
      return "indexed";
    case StorageMode::kSegmented:
      return "segmented";
  }
  return "indexed";
}

SegmentPolicy ResolveSegmentPolicy(std::size_t tier_ratio,
                                   std::size_t max_runs) {
  SegmentPolicy defaults;
  auto from_env = [](const char* name, std::size_t fallback) {
    const char* env = std::getenv(name);
    if (env == nullptr || env[0] == '\0') return fallback;
    char* end = nullptr;
    unsigned long v = std::strtoul(env, &end, 10);
    if (end == env || *end != '\0') return fallback;
    return static_cast<std::size_t>(v);
  };
  SegmentPolicy policy;
  policy.tier_ratio = tier_ratio != 0
                          ? tier_ratio
                          : from_env("MM2_SEGMENT_TIER_RATIO",
                                     defaults.tier_ratio);
  policy.max_runs = max_runs != 0
                        ? max_runs
                        : from_env("MM2_SEGMENT_MAX_RUNS", defaults.max_runs);
  if (policy.tier_ratio < 2) policy.tier_ratio = 2;
  if (policy.max_runs < 1) policy.max_runs = 1;
  if (policy.max_runs > SegmentRanges::kMaxRanges) {
    policy.max_runs = SegmentRanges::kMaxRanges;
  }
  return policy;
}

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

bool Segment::Contains(const Tuple& tuple, SegmentOpStats* stats) const {
  if (rows_ == 0 || tuple.size() != arity_) return false;
  RowRange range = EqualRange(tuple.data(), arity_, stats);
  return !range.empty();
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
  std::vector<const Tuple*> refs;
  refs.reserve(rows.size());
  for (const Tuple& row : rows) refs.push_back(&row);
  return FromRefs(arity_, std::move(refs), stats);
}

SegmentPtr SegmentInserter::FromRefs(std::size_t arity,
                                     std::vector<const Tuple*> rows,
                                     SegmentOpStats* stats) {
  auto segment = std::make_shared<Segment>();
  segment->arity_ = arity;
  segment->columns_.resize(arity);
  CountedSort(&rows, stats);
  std::size_t out = 0;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) {
      Count(stats, 1);
      if (*rows[i] == *rows[out - 1]) continue;
    }
    rows[out++] = rows[i];
  }
  rows.resize(out);
  segment->rows_ = rows.size();
  for (std::size_t c = 0; c < arity; ++c) {
    std::vector<Value>& col = segment->columns_[c];
    col.reserve(rows.size());
    for (const Tuple* row : rows) col.push_back((*row)[c]);
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
// SegmentMergeIterator / MergeSegments
// ---------------------------------------------------------------------------

SegmentMergeIterator::SegmentMergeIterator(std::vector<SegmentPtr> segments,
                                           SegmentOpStats* stats)
    : stats_(stats) {
  for (SegmentPtr& segment : segments) {
    if (segment != nullptr && !segment->empty()) {
      cursors_.push_back(Cursor{std::move(segment), 0});
    }
  }
  Materialize();
}

int SegmentMergeIterator::CompareCursors(const Cursor& a, const Cursor& b) {
  Count(stats_, 1);
  const Segment& sa = *a.segment;
  const Segment& sb = *b.segment;
  std::size_t arity = sa.arity();
  for (std::size_t c = 0; c < arity; ++c) {
    const Value& va = sa.at(a.row, c);
    const Value& vb = sb.at(b.row, c);
    if (va < vb) return -1;
    if (vb < va) return 1;
  }
  return 0;
}

void SegmentMergeIterator::Materialize() {
  // Linear scan over the (small) cursor list: find the minimum row, emit
  // it, and advance every cursor positioned on an equal row (dedup).
  current_ = nullptr;
  const Cursor* best = nullptr;
  for (const Cursor& cursor : cursors_) {
    if (cursor.row >= cursor.segment->rows()) continue;
    if (best == nullptr || CompareCursors(cursor, *best) < 0) {
      best = &cursor;
    }
  }
  if (best == nullptr) return;
  current_ = best;
  best->segment->CopyRow(best->row, &row_);
}

void SegmentMergeIterator::Advance() {
  if (current_ == nullptr) return;
  // Step past the emitted row (row_) in every cursor that carries it.
  // Compare against the materialized copy, not *current_ — the current
  // cursor itself advances during this loop.
  for (Cursor& cursor : cursors_) {
    if (cursor.row >= cursor.segment->rows()) continue;
    if (&cursor == current_) {
      ++cursor.row;
      continue;
    }
    Count(stats_, 1);
    if (cursor.segment->CompareRowPrefix(cursor.row, row_.data(),
                                         row_.size(), nullptr) == 0) {
      ++cursor.row;
    }
  }
  Materialize();
}

SegmentPtr MergeSegments(const std::vector<SegmentPtr>& segments,
                         SegmentOpStats* stats) {
  std::vector<SegmentPtr> live;
  for (const SegmentPtr& segment : segments) {
    if (segment != nullptr && !segment->empty()) live.push_back(segment);
  }
  if (live.empty()) {
    // Preserve arity when a (possibly empty) input exists.
    std::size_t arity = 0;
    for (const SegmentPtr& segment : segments) {
      if (segment != nullptr) arity = segment->arity();
    }
    auto empty = std::make_shared<Segment>();
    empty->arity_ = arity;
    empty->columns_.resize(arity);
    empty->FinalizeBounds();
    return empty;
  }
  if (live.size() == 1) return live[0];

  std::size_t arity = live[0]->arity();
  auto merged = std::make_shared<Segment>();
  merged->arity_ = arity;
  merged->columns_.resize(arity);
  SegmentMergeIterator it(live, stats);
  std::size_t rows = 0;
  for (; !it.Done(); it.Advance()) {
    const Tuple& row = it.Row();
    for (std::size_t c = 0; c < arity; ++c) {
      merged->columns_[c].push_back(row[c]);
    }
    ++rows;
  }
  merged->rows_ = rows;
  merged->FinalizeBounds();
  if (stats != nullptr) {
    ++stats->merges;
    stats->merged_rows += rows;
  }
  return merged;
}

// ---------------------------------------------------------------------------
// SegmentRangeCursor
// ---------------------------------------------------------------------------

SegmentRangeCursor::SegmentRangeCursor(const SegmentRanges& ranges)
    : ranges_(&ranges) {
  for (std::size_t i = 0; i < ranges.count; ++i) {
    pos_[i] = ranges.entries[i].begin;
  }
  Pick();
}

void SegmentRangeCursor::Pick() {
  // Linear min-pick across the live per-run cursors. Runs are disjoint, so
  // no dedup step is needed: exactly one cursor holds the global minimum.
  current_ = -1;
  for (std::size_t i = 0; i < ranges_->count; ++i) {
    const SegmentRanges::Entry& entry = ranges_->entries[i];
    if (pos_[i] >= entry.end) continue;
    if (current_ < 0) {
      current_ = static_cast<int>(i);
      continue;
    }
    const SegmentRanges::Entry& best =
        ranges_->entries[static_cast<std::size_t>(current_)];
    const std::size_t arity = entry.segment->arity();
    int cmp = 0;
    for (std::size_t c = 0; c < arity && cmp == 0; ++c) {
      const Value& va = entry.segment->at(pos_[i], c);
      const Value& vb =
          best.segment->at(pos_[static_cast<std::size_t>(current_)], c);
      if (va < vb) cmp = -1;
      else if (vb < va) cmp = 1;
    }
    if (cmp < 0) current_ = static_cast<int>(i);
  }
}

const Tuple& SegmentRangeCursor::Row() const {
  segment()->CopyRow(row(), &row_);
  return row_;
}

void SegmentRangeCursor::Advance() {
  if (current_ < 0) return;
  ++pos_[static_cast<std::size_t>(current_)];
  Pick();
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

void CountedSort(std::vector<const Tuple*>* rows, SegmentOpStats* stats) {
  std::uint64_t* compares = stats != nullptr ? &stats->compares : nullptr;
  std::sort(rows->begin(), rows->end(),
            [compares](const Tuple* a, const Tuple* b) {
              if (compares != nullptr) ++*compares;
              return *a < *b;
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
