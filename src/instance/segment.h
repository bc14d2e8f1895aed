#ifndef MM2_INSTANCE_SEGMENT_H_
#define MM2_INSTANCE_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "instance/value.h"

namespace mm2::instance {

// There is one tuple store (RelationInstance: the ordered set, the insert
// log, lazy hash indexes and at most one sealed run), so there is nothing
// left to choose. The enum and its two helpers remain only because
// benchmark harnesses stamp the resolved name into their headers:
// ResolveStorageMode returns its argument and reads no environment.
enum class StorageMode { kDefault };

StorageMode ResolveStorageMode(StorageMode requested);
const char* StorageModeName(StorageMode mode);

// Cumulative telemetry for the sealed-run operations. The chase diffs
// per-relation totals around a run (exactly like IndexStats) and mirrors
// the live fields as the `storage.segment.*` counter family.
struct SegmentOpStats {
  std::uint64_t seals = 0;        // runs sealed (PrepareSegments, Seal)
  std::uint64_t sealed_rows = 0;  // rows written by seals
  std::uint64_t compares = 0;     // tuple comparisons (sort/search)
  std::uint64_t probes = 0;       // sorted-prefix probes served
  std::uint64_t probe_hits = 0;   // rows yielded by served probes
  std::uint64_t skips = 0;        // probes cut short by min/max bounds
  // Always 0: the mechanisms behind them (compaction, k-way merges,
  // batched retain, declined stale-view probes, deferred reseals) are
  // gone. Benchmark harnesses still read them.
  std::uint64_t merged_rows = 0;
  std::uint64_t compactions = 0;
  std::uint64_t retain_candidates = 0;
  std::uint64_t retain_hits = 0;
  std::uint64_t fallbacks = 0;
  std::uint64_t deferred_rebuilds = 0;

  bool any() const {
    return seals != 0 || compares != 0 || probes != 0 || skips != 0;
  }

  SegmentOpStats& operator+=(const SegmentOpStats& o) {
    seals += o.seals;
    sealed_rows += o.sealed_rows;
    compares += o.compares;
    probes += o.probes;
    probe_hits += o.probe_hits;
    skips += o.skips;
    return *this;
  }

  SegmentOpStats operator-(const SegmentOpStats& o) const {
    SegmentOpStats d;
    d.seals = seals - o.seals;
    d.sealed_rows = sealed_rows - o.sealed_rows;
    d.compares = compares - o.compares;
    d.probes = probes - o.probes;
    d.probe_hits = probe_hits - o.probe_hits;
    d.skips = skips - o.skips;
    return d;
  }
};

// How many relations hold a current sealed run, read at the end of a chase.
struct SegmentShape {
  std::uint64_t live_segments = 0;

  SegmentShape& operator+=(const SegmentShape& o) {
    live_segments += o.live_segments;
    return *this;
  }
};

// An immutable, sorted, duplicate-free run of same-arity tuples stored
// column-major: column c is a contiguous std::vector<Value>, so scans and
// binary searches over one column touch dense 16-byte cells instead of
// chasing std::set nodes. Rows are ordered by full lexicographic tuple
// order — the same order std::set<Tuple> iterates in, which is what makes
// run-served enumeration bit-identical to the set paths. Segments are
// shared by shared_ptr on copy (they never mutate after sealing).
class Segment {
 public:
  std::size_t arity() const { return arity_; }
  std::size_t rows() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  const Value& at(std::size_t row, std::size_t col) const {
    return columns_[col][row];
  }

  // Per-column bounds, filled at seal time; meaningless when empty().
  const Value& col_min(std::size_t col) const { return min_[col]; }
  const Value& col_max(std::size_t col) const { return max_[col]; }

  // Materializes row `row` into `out` (resized to arity).
  void CopyRow(std::size_t row, Tuple* out) const;

  // Three-way compare of row `row` against the first `len` values of `key`,
  // column by column. Counts one compare into `*compares` when non-null.
  int CompareRowPrefix(std::size_t row, const Value* key, std::size_t len,
                       std::uint64_t* compares) const;

  // Row range [begin, end) whose first `prefix_len` columns equal the key
  // prefix, via binary search. A key outside the column-0 [min,max] bounds
  // answers empty without searching and bumps `stats->skips`.
  struct RowRange {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool empty() const { return begin >= end; }
  };
  RowRange EqualRange(const Value* key, std::size_t prefix_len,
                      SegmentOpStats* stats) const;

 private:
  friend class SegmentInserter;

  void FinalizeBounds();

  std::size_t arity_ = 0;
  std::size_t rows_ = 0;
  std::vector<std::vector<Value>> columns_;
  std::vector<Value> min_;
  std::vector<Value> max_;
};

using SegmentPtr = std::shared_ptr<const Segment>;

// A prefix-probe answer: rows [begin, end) of one sealed run, in set order.
struct SegmentRange {
  const Segment* segment = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;

  std::size_t size() const { return end - begin; }
  bool empty() const { return begin >= end; }
};

// Accumulates rows and seals them into a Segment: Seal() sorts (counting
// compares), removes duplicates, lays the survivors out column-major and
// records per-column min/max. The inserter is reusable after Seal (empty).
class SegmentInserter {
 public:
  explicit SegmentInserter(std::size_t arity) : arity_(arity) {}

  void Add(const Tuple& tuple) { pending_.push_back(tuple); }
  void Add(Tuple&& tuple) { pending_.push_back(std::move(tuple)); }
  std::size_t pending_rows() const { return pending_.size(); }

  SegmentPtr Seal(SegmentOpStats* stats);

  // Seals a std::set's contents directly: set iteration is already sorted
  // and unique, so this is a straight column-major copy (no compares).
  static SegmentPtr FromSorted(std::size_t arity, const std::set<Tuple>& rows,
                               SegmentOpStats* stats);

 private:
  std::size_t arity_;
  std::vector<Tuple> pending_;
};

// ---------------------------------------------------------------------------
// Sorted-row helpers: plain row-major vectors, same counted-comparison
// discipline as the segment operations.
// ---------------------------------------------------------------------------

// Sorts rows ascending, counting comparisons into `stats` when non-null.
void CountedSort(std::vector<Tuple>* rows, SegmentOpStats* stats);

// Binary-search membership in an ascending row vector.
bool SortedContains(const std::vector<Tuple>& sorted, const Tuple& tuple,
                    SegmentOpStats* stats);

}  // namespace mm2::instance

#endif  // MM2_INSTANCE_SEGMENT_H_
