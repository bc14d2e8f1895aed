#ifndef MM2_INSTANCE_SEGMENT_H_
#define MM2_INSTANCE_SEGMENT_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <set>
#include <vector>

#include "instance/value.h"

namespace mm2::instance {

// There is one tuple store (RelationInstance: the ordered set, lazy hash
// indexes and at most one sealed run), so there is nothing
// left to choose. The enum and its two helpers remain only because
// benchmark harnesses stamp the resolved name into their headers:
// ResolveStorageMode returns its argument and reads no environment.
enum class StorageMode { kDefault };

StorageMode ResolveStorageMode(StorageMode requested);
const char* StorageModeName(StorageMode mode);

// Telemetry for the sealed-run operations, counted into a struct the
// reader owns (like IndexStats). A chase run counts its own and mirrors the
// live fields as the `storage.segment.*` counter family.
struct SegmentOpStats {
  std::uint64_t seals = 0;        // runs sealed (PrepareSegments)
  std::uint64_t sealed_rows = 0;  // rows written by seals
  std::uint64_t compares = 0;     // tuple comparisons (prefix search)
  std::uint64_t probes = 0;       // sorted-prefix probes served
  std::uint64_t probe_hits = 0;   // rows yielded by served probes
  std::uint64_t skips = 0;        // probes cut short by column-0 bounds
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

  // Three-way compare of row `row` against the first `len` values of `key`,
  // column by column. Counts one compare into `*compares` when non-null.
  int CompareRowPrefix(std::size_t row, const Value* key, std::size_t len,
                       std::uint64_t* compares) const;

  // Row range [begin, end) whose first `prefix_len` columns equal the key
  // prefix, via binary search. A key outside column 0's bounds (the first
  // and the last row, as rows are sorted) answers empty without searching
  // and bumps `stats->skips`.
  struct RowRange {
    std::size_t begin = 0;
    std::size_t end = 0;
    bool empty() const { return begin >= end; }
  };
  RowRange EqualRange(const Value* key, std::size_t prefix_len,
                      SegmentOpStats* stats) const;

 private:
  friend class SegmentInserter;

  std::size_t arity_ = 0;
  std::size_t rows_ = 0;
  std::vector<std::vector<Value>> columns_;
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

// The one seal: RelationInstance::PrepareSegments hands its std::set here.
class SegmentInserter {
 public:
  // Set iteration is already sorted and unique, so this is a straight
  // column-major copy (no compares).
  static SegmentPtr FromSorted(std::size_t arity, const std::set<Tuple>& rows,
                               SegmentOpStats* stats);
};

}  // namespace mm2::instance

#endif  // MM2_INSTANCE_SEGMENT_H_
