#ifndef MM2_INSTANCE_SEGMENT_H_
#define MM2_INSTANCE_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "instance/value.h"

namespace mm2::instance {

// Which physical representation the storage-facing hot paths run on.
//  - kIndexed: the node-stable std::set plus on-demand hash indexes — the
//    PR-3 executor, kept as the differential oracle for the segment paths.
//  - kSegmented: the same canonical set, shadowed by immutable sorted
//    column-major segments (below); bound-prefix probes and head-dedup
//    retain passes are served by merges over the sorted view instead of
//    per-tuple hash probes. Output is bit-identical by construction.
//  - kDefault: defer to the MM2_STORAGE environment variable
//    ("segmented" | "indexed"; unset means segmented — the tiered segment
//    list won the closure-grid wall-clock race, see EXPERIMENTS.md §C18.
//    The indexed path stays selectable as the differential oracle).
enum class StorageMode { kDefault, kIndexed, kSegmented };

// Resolves kDefault against MM2_STORAGE; explicit modes pass through.
StorageMode ResolveStorageMode(StorageMode requested);
const char* StorageModeName(StorageMode mode);

// Size-tiered compaction thresholds for the LSM-style segment list. After a
// tail seal appends a new run, the newest run is merged into its predecessor
// while `newest_rows * tier_ratio >= predecessor_rows` (the new run is not
// "small enough" relative to the next tier) or while more than `max_runs`
// runs are live. A geometric run-size ladder falls out: each surviving run
// is at least tier_ratio times larger than the one sealed after it, which
// bounds total merge work at O(n log n) over a chase instead of O(n) rows
// re-merged per round.
struct SegmentPolicy {
  std::size_t tier_ratio = 4;
  std::size_t max_runs = 6;
};

// Resolves policy knobs: nonzero arguments win, else the MM2_SEGMENT_TIER_RATIO
// / MM2_SEGMENT_MAX_RUNS environment variables, else the defaults above.
// tier_ratio is clamped to >= 2, max_runs to [1, SegmentRanges::kMaxRanges]
// so every live run list stays probeable.
SegmentPolicy ResolveSegmentPolicy(std::size_t tier_ratio,
                                   std::size_t max_runs);

// Cumulative telemetry for every segment-layer operation. The chase diffs
// per-relation totals around a run (exactly like IndexStats) and mirrors
// them as the `storage.segment.*` counter family.
struct SegmentOpStats {
  std::uint64_t seals = 0;              // SegmentInserter::Seal calls
  std::uint64_t sealed_rows = 0;        // rows written by seals
  std::uint64_t merges = 0;             // multi-segment merge passes
  std::uint64_t merged_rows = 0;        // rows emitted by merges
  std::uint64_t compares = 0;           // tuple comparisons (sort/merge/search)
  std::uint64_t probes = 0;             // sorted-prefix probes served
  std::uint64_t probe_hits = 0;         // rows yielded by served probes
  std::uint64_t skips = 0;              // probes cut short by min/max bounds
  std::uint64_t fallbacks = 0;          // probes declined (stale view)
  std::uint64_t retain_batches = 0;     // batched head-dedup passes
  std::uint64_t retain_candidates = 0;  // candidate tuples across batches
  std::uint64_t retain_hits = 0;        // candidates already present
  std::uint64_t compactions = 0;        // tiered run merges (subset of merges)
  std::uint64_t delta_slices = 0;       // deltas served as segment slices
  std::uint64_t delta_slice_rows = 0;   // rows covered by zero-copy slices
  std::uint64_t deferred_rebuilds = 0;  // dirty reseals skipped (low debt)

  bool any() const {
    return seals != 0 || merges != 0 || compares != 0 || probes != 0 ||
           skips != 0 || fallbacks != 0 || retain_batches != 0 ||
           compactions != 0 || delta_slices != 0 || deferred_rebuilds != 0;
  }

  SegmentOpStats& operator+=(const SegmentOpStats& o) {
    seals += o.seals;
    sealed_rows += o.sealed_rows;
    merges += o.merges;
    merged_rows += o.merged_rows;
    compares += o.compares;
    probes += o.probes;
    probe_hits += o.probe_hits;
    skips += o.skips;
    fallbacks += o.fallbacks;
    retain_batches += o.retain_batches;
    retain_candidates += o.retain_candidates;
    retain_hits += o.retain_hits;
    compactions += o.compactions;
    delta_slices += o.delta_slices;
    delta_slice_rows += o.delta_slice_rows;
    deferred_rebuilds += o.deferred_rebuilds;
    return *this;
  }

  SegmentOpStats operator-(const SegmentOpStats& o) const {
    SegmentOpStats d;
    d.seals = seals - o.seals;
    d.sealed_rows = sealed_rows - o.sealed_rows;
    d.merges = merges - o.merges;
    d.merged_rows = merged_rows - o.merged_rows;
    d.compares = compares - o.compares;
    d.probes = probes - o.probes;
    d.probe_hits = probe_hits - o.probe_hits;
    d.skips = skips - o.skips;
    d.fallbacks = fallbacks - o.fallbacks;
    d.retain_batches = retain_batches - o.retain_batches;
    d.retain_candidates = retain_candidates - o.retain_candidates;
    d.retain_hits = retain_hits - o.retain_hits;
    d.compactions = compactions - o.compactions;
    d.delta_slices = delta_slices - o.delta_slices;
    d.delta_slice_rows = delta_slice_rows - o.delta_slice_rows;
    d.deferred_rebuilds = deferred_rebuilds - o.deferred_rebuilds;
    return d;
  }
};

// Shape of a relation's (or instance-wide) live segment list, read at the
// end of a run and mirrored as `storage.segment.*` gauges. tiers counts the
// distinct tier_ratio-geometric size classes among live runs — a healthy
// tiered list has tiers ≈ live_segments (each run in its own class).
struct SegmentShape {
  std::uint64_t live_segments = 0;  // sealed runs across relations
  std::uint64_t tiers = 0;          // max distinct size classes per relation
  std::uint64_t tail_rows = 0;      // unsealed sorted-tail rows

  SegmentShape& operator+=(const SegmentShape& o) {
    live_segments += o.live_segments;
    if (o.tiers > tiers) tiers = o.tiers;
    tail_rows += o.tail_rows;
    return *this;
  }
};

// An immutable, sorted, duplicate-free run of same-arity tuples stored
// column-major: column c is a contiguous std::vector<Value>, so scans and
// binary searches over one column touch dense 16-byte cells instead of
// chasing std::set nodes. Rows are ordered by full lexicographic tuple
// order — the same order std::set<Tuple> iterates in, which is what makes
// segment-served enumeration bit-identical to the indexed path. Segments
// are shared by shared_ptr on copy (they never mutate after Seal).
class Segment {
 public:
  std::size_t arity() const { return arity_; }
  std::size_t rows() const { return rows_; }
  bool empty() const { return rows_ == 0; }

  const Value& at(std::size_t row, std::size_t col) const {
    return columns_[col][row];
  }
  const std::vector<Value>& column(std::size_t col) const {
    return columns_[col];
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

  // Exact membership of a full tuple (binary search + min/max skip).
  bool Contains(const Tuple& tuple, SegmentOpStats* stats) const;

 private:
  friend class SegmentInserter;
  friend std::shared_ptr<const Segment> MergeSegments(
      const std::vector<std::shared_ptr<const Segment>>& segments,
      SegmentOpStats* stats);

  void FinalizeBounds();

  std::size_t arity_ = 0;
  std::size_t rows_ = 0;
  std::vector<std::vector<Value>> columns_;
  std::vector<Value> min_;
  std::vector<Value> max_;
};

using SegmentPtr = std::shared_ptr<const Segment>;

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

  // Seal() over rows held elsewhere: sorts the pointers by row value
  // (counting compares), drops duplicates and copies the survivors
  // column-major. The rows are never copied as tuples.
  static SegmentPtr FromRefs(std::size_t arity,
                             std::vector<const Tuple*> rows,
                             SegmentOpStats* stats);

  // Seals a std::set's contents directly: set iteration is already sorted
  // and unique, so this is a straight column-major copy (no compares).
  static SegmentPtr FromSorted(std::size_t arity, const std::set<Tuple>& rows,
                               SegmentOpStats* stats);

 private:
  std::size_t arity_;
  std::vector<Tuple> pending_;
};

// K-way merge over sorted segments, yielding rows in ascending tuple order
// with duplicates collapsed (set-union semantics). Comparisons count into
// the attached stats.
class SegmentMergeIterator {
 public:
  explicit SegmentMergeIterator(std::vector<SegmentPtr> segments,
                                SegmentOpStats* stats = nullptr);

  bool Done() const { return current_ == nullptr; }
  // Valid until the next Advance; materialized row in ascending order.
  const Tuple& Row() const { return row_; }
  void Advance();

 private:
  struct Cursor {
    SegmentPtr segment;
    std::size_t row = 0;
  };
  int CompareCursors(const Cursor& a, const Cursor& b);
  void Materialize();

  std::vector<Cursor> cursors_;
  SegmentOpStats* stats_;
  const Cursor* current_ = nullptr;  // cursor holding the smallest row
  Tuple row_;
};

// Merges sorted segments into one (dedup union) via SegmentMergeIterator.
// Null/empty inputs are skipped; merging zero or one live segment is a
// cheap passthrough.
SegmentPtr MergeSegments(const std::vector<SegmentPtr>& segments,
                         SegmentOpStats* stats);

// A prefix-probe answer over the tiered segment list: up to kMaxRanges
// per-run row ranges, one per live run that holds matching rows. Fixed
// capacity keeps the probe hot path allocation-free; relations never grow
// more live runs than this (SegmentPolicy::max_runs is clamped to it).
// Runs are pairwise disjoint (the tail only ever receives set-new tuples),
// so the union of the ranges is duplicate-free by construction.
struct SegmentRanges {
  static constexpr std::size_t kMaxRanges = 12;

  struct Entry {
    const Segment* segment = nullptr;
    std::size_t begin = 0;
    std::size_t end = 0;
  };

  Entry entries[kMaxRanges];
  std::size_t count = 0;  // populated entries (non-empty ranges only)
  std::size_t rows = 0;   // total rows across entries

  bool empty() const { return rows == 0; }
};

// Streams the rows of a SegmentRanges answer in ascending tuple order —
// the k-way analogue of iterating one sorted range, and bit-identical to
// the order the single-sealed-run design produced. No ties are possible
// (runs are disjoint), so a linear min-pick over ≤ kMaxRanges cursors
// suffices. The ranges object must outlive the cursor.
class SegmentRangeCursor {
 public:
  explicit SegmentRangeCursor(const SegmentRanges& ranges);

  bool Done() const { return current_ < 0; }
  // The current row in place: its run and row index.
  const Segment* segment() const {
    return ranges_->entries[static_cast<std::size_t>(current_)].segment;
  }
  std::size_t row() const { return pos_[static_cast<std::size_t>(current_)]; }
  // The current row materialized; valid until the next Advance.
  const Tuple& Row() const;
  void Advance();

 private:
  void Pick();

  const SegmentRanges* ranges_;
  std::size_t pos_[SegmentRanges::kMaxRanges];
  int current_ = -1;  // entry index holding the smallest unemitted row
  mutable Tuple row_;
};

// ---------------------------------------------------------------------------
// Sorted-row helpers shared by the algebra/runtime merge paths. These are
// the scalar cousins of the segment operations: plain row-major vectors,
// same counted-comparison discipline.
// ---------------------------------------------------------------------------

// Sorts rows ascending, counting comparisons into `stats` when non-null.
// The pointer form orders by the rows pointed to.
void CountedSort(std::vector<Tuple>* rows, SegmentOpStats* stats);
void CountedSort(std::vector<const Tuple*>* rows, SegmentOpStats* stats);

// Binary-search membership in an ascending row vector.
bool SortedContains(const std::vector<Tuple>& sorted, const Tuple& tuple,
                    SegmentOpStats* stats);

}  // namespace mm2::instance

#endif  // MM2_INSTANCE_SEGMENT_H_
