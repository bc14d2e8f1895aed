#ifndef MM2_INSTANCE_INSTANCE_H_
#define MM2_INSTANCE_INSTANCE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <shared_mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "instance/segment.h"
#include "instance/value.h"
#include "model/schema.h"

namespace mm2::instance {

// Cumulative per-relation index telemetry; the chase diffs aggregate
// snapshots around a run and mirrors them into `index.*` obs counters.
struct IndexStats {
  std::uint64_t probes = 0;         // Probe() calls
  std::uint64_t probe_hits = 0;     // tuples yielded by probes
  std::uint64_t builds = 0;         // lazy index constructions
  std::uint64_t indexed_tuples = 0; // tuples hashed at build time

  IndexStats& operator+=(const IndexStats& other) {
    probes += other.probes;
    probe_hits += other.probe_hits;
    builds += other.builds;
    indexed_tuples += other.indexed_tuples;
    return *this;
  }
};

// A delta set served as a hybrid over the insert log and the tiered segment
// list: `refs` carries log-backed tuples (the portion of the delta that
// falls inside a partially-covered run span plus the unsealed suffix, in
// insertion order), `slices` carries whole sealed runs as zero-copy row
// ranges. size() equals the plain DeltaSince() size exactly, so delta
// accounting is bit-identical whichever path served. Enumeration order
// differs between the parts; consumers that need determinism (the chase's
// delta re-match) sort what they match.
struct DeltaSlice {
  const Segment* segment = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;
};

struct DeltaView {
  std::vector<const Tuple*> refs;  // log-backed rows (insertion order)
  std::vector<DeltaSlice> slices;  // zero-copy sealed-run row ranges
  std::size_t slice_rows = 0;      // total rows across slices
  bool sliced = false;             // true when any run was served as a slice

  std::size_t size() const { return refs.size() + slice_rows; }
  bool empty() const { return size() == 0; }
};

// The extension of one relation: a set of same-arity tuples. Set semantics
// with deterministic (ordered) iteration, which the chase and the tests
// rely on.
//
// Storage layer on top of the bare set:
//  - On-demand hash indexes keyed by column subsets. Probe(cols, key)
//    builds the index on first use and maintains it incrementally across
//    Insert/Erase/Clear. Buckets keep tuples in set (sorted) order, so
//    index-backed evaluation enumerates matches in the same deterministic
//    order a full scan would.
//  - A monotonically bumped generation counter (every successful mutation).
//  - An append-only insert log backing per-relation delta sets: a caller
//    holds a Watermark() and later asks DeltaSince(watermark) for exactly
//    the tuples inserted since. Erased tuples are tombstoned in the log, so
//    watermarks stay stable. This is what makes the chase semi-naive.
//
// Thread safety: concurrent const access (Probe/DeltaSince/tuples) is safe —
// index lookups take a shared lock, and only the first Probe of a new
// column set upgrades to an exclusive lock to build. Mutation still requires
// external synchronization, like the containers this wraps.
class RelationInstance {
 public:
  using ColumnSet = std::vector<std::size_t>;
  using TupleRefs = std::vector<const Tuple*>;

  RelationInstance() = default;
  explicit RelationInstance(std::size_t arity) : arity_(arity) {}

  // Indexes point into tuples_ nodes; copies rebuild lazily, moves keep
  // node addresses (std::set moves steal nodes), so both stay valid.
  RelationInstance(const RelationInstance& other);
  RelationInstance& operator=(const RelationInstance& other);
  RelationInstance(RelationInstance&& other) noexcept;
  RelationInstance& operator=(RelationInstance&& other) noexcept;

  std::size_t arity() const { return arity_; }
  std::size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  const std::set<Tuple>& tuples() const { return tuples_; }

  // Inserts; returns true if the tuple was new. Dies on arity mismatch in
  // debug builds; callers go through Instance::Insert for checked inserts.
  bool Insert(Tuple tuple);
  // Exact membership. When the tiered segment view is current (kSegmented,
  // nothing changed since the last seal), the answer comes from binary
  // searches over the dense sorted runs instead of chasing set nodes; the
  // set path answers otherwise. Same result either way.
  bool Contains(const Tuple& tuple) const {
    if (storage_mode_ == StorageMode::kSegmented && SegmentCurrent() &&
        tuple.size() == arity_) {
      for (const SealedRun& run : runs_) {
        if (run.segment->Contains(tuple, nullptr)) return true;
      }
      return false;
    }
    return tuples_.count(tuple) > 0;
  }
  bool Erase(const Tuple& tuple);
  void Clear();

  // All tuples whose projection onto `cols` equals `key` (|key| == |cols|,
  // positions in [0, arity)), in set order; nullptr when none. The returned
  // pointer stays valid until the next mutation of this relation.
  const TupleRefs* Probe(const ColumnSet& cols, const Tuple& key) const;

  // Bumped by every successful Insert/Erase/Clear.
  std::uint64_t generation() const { return generation_; }

  // Insert-log position; pass to DeltaSince later to see what arrived
  // in between. Watermark 0 covers the whole extension.
  std::size_t Watermark() const { return log_.size(); }
  // Tuples inserted at or after `watermark` and still present, in
  // insertion order.
  TupleRefs DeltaSince(std::size_t watermark) const;

  IndexStats index_stats() const;

  // --- Tiered columnar segment view (sorted, immutable; see segment.h) ---
  // Under kSegmented the relation maintains an LSM-style list of sealed
  // runs plus a mutable tail: Insert appends set-new tuples to the tail,
  // and PrepareSegments() seals the tail into a NEW small run (sort only —
  // no re-merge of the base), then size-tiered compaction merges the
  // newest runs only while they outgrow their tier (SegmentPolicy), so
  // total merge work is O(n log n) across a chase instead of O(n) rows per
  // round. Erase/Clear mark the view dirty, forcing a full rebuild from
  // the set (already sorted+unique) at the next seal. Under kIndexed the
  // segment state is dropped; probes and retains fall back to the hash/set
  // paths, so the mode never changes observable results.
  void set_storage_mode(StorageMode mode);
  StorageMode storage_mode() const { return storage_mode_; }

  // Compaction thresholds for this relation's run list (kSegmented only).
  void set_segment_policy(const SegmentPolicy& policy) { policy_ = policy; }
  const SegmentPolicy& segment_policy() const { return policy_; }

  // (Re)seals the segment view to cover the current extension. Const with
  // cache semantics like Probe's lazy index build, so const source
  // instances can be sealed once before a run. Works in any mode (full
  // rebuild from the set); incremental tail seal + tiered compaction only
  // under kSegmented.
  // No-op if current. With defer_dirty_rebuild, an erase-dirtied view with
  // few tombstones (< 1/4 of the live rows) skips the O(n) full rebuild and
  // stays stale: probes and retains decline to the index path (correct,
  // counted as fallbacks) and DeltaViewSince keeps serving exactly. The
  // rebuild still fires once tombstones pile past the threshold, so the
  // deferral is amortized-O(1) per erase — this is what keeps delta-sized
  // maintenance passes from paying a full reseal of every touched relation.
  void PrepareSegments(bool defer_dirty_rebuild = false) const;

  // True when the sealed runs reflect the full extension (nothing changed
  // since the last PrepareSegments).
  bool SegmentCurrent() const {
    return !runs_.empty() && !segment_dirty_ &&
           segment_generation_ == generation_;
  }

  // Rows whose leading |key| columns equal `key`, served from the live
  // runs as up to one row range per run. SegmentRangeCursor streams the
  // union in set (sorted) order — bit-identical enumeration to the hash
  // probe. nullopt when the view is stale or absent (callers fall back to
  // Probe, and the decline is counted under kSegmented); an engaged empty
  // answer still counts as a served probe. The segment pointers follow the
  // same validity contract as Probe(): no mutation or PrepareSegments
  // until the caller is done.
  std::optional<SegmentRanges> SegmentProbePrefix(const Tuple& key) const;

  // Batched membership for head-dedup retain passes: sets present->at(i)
  // iff *sorted_candidates[i] is in the relation right now. Served by one
  // monotone merge cursor per live run plus a sorted copy of the unsealed
  // tail; falls back to set lookups when the segment state cannot answer
  // exactly (counted as a fallback).
  void RetainExisting(const std::vector<const Tuple*>& sorted_candidates,
                      std::vector<char>* present) const;

  // The delta since `watermark` as a hybrid log/slice view: whole sealed
  // runs that lie entirely past the watermark are returned as zero-copy
  // slices, everything else (partial run coverage, the unsealed tail) as
  // log refs. Erase-containing epochs stay sliceable per run: only runs
  // that actually lost rows to a tombstone (SealedRun::dead > 0) drop to
  // the tombstone-skipping log-ref path, untouched runs keep serving
  // zero-copy slices. Falls back to a pure log-backed view (refs ==
  // DeltaSince) whenever run/log spans cannot be trusted — copied
  // relations, non-segmented modes. view.size() always equals
  // DeltaSince(watermark).size().
  DeltaView DeltaViewSince(std::size_t watermark) const;

  // Sealed-view access for tests and benchmarks. sealed_segment() is the
  // base (oldest, largest) run.
  SegmentPtr sealed_segment() const {
    return runs_.empty() ? nullptr : runs_.front().segment;
  }
  std::size_t sealed_rows() const {
    std::size_t rows = 0;
    for (const SealedRun& run : runs_) rows += run.segment->rows();
    return rows;
  }
  std::size_t live_runs() const { return runs_.size(); }

  // Current run-list shape (run count, tier count, tail backlog).
  SegmentShape segment_shape() const;

  SegmentOpStats segment_stats() const;

 private:
  struct Index {
    std::unordered_map<Tuple, TupleRefs, TupleHash> buckets;
  };

  // Telemetry counters are atomics so probe bookkeeping can happen under
  // the shared (reader) lock without a data race.
  struct AtomicIndexStats {
    std::atomic<std::uint64_t> probes{0};
    std::atomic<std::uint64_t> probe_hits{0};
    std::atomic<std::uint64_t> builds{0};
    std::atomic<std::uint64_t> indexed_tuples{0};

    IndexStats Load() const {
      IndexStats s;
      s.probes = probes.load(std::memory_order_relaxed);
      s.probe_hits = probe_hits.load(std::memory_order_relaxed);
      s.builds = builds.load(std::memory_order_relaxed);
      s.indexed_tuples = indexed_tuples.load(std::memory_order_relaxed);
      return s;
    }
    void Store(const IndexStats& s) {
      probes.store(s.probes, std::memory_order_relaxed);
      probe_hits.store(s.probe_hits, std::memory_order_relaxed);
      builds.store(s.builds, std::memory_order_relaxed);
      indexed_tuples.store(s.indexed_tuples, std::memory_order_relaxed);
    }
  };

  // Same discipline for segment telemetry: probes run under the shared
  // reader contract, so the counters must be atomics. Accumulated from
  // batch-local SegmentOpStats to keep the hot paths cheap.
  struct AtomicSegmentStats {
    std::atomic<std::uint64_t> seals{0};
    std::atomic<std::uint64_t> sealed_rows{0};
    std::atomic<std::uint64_t> merges{0};
    std::atomic<std::uint64_t> merged_rows{0};
    std::atomic<std::uint64_t> compares{0};
    std::atomic<std::uint64_t> probes{0};
    std::atomic<std::uint64_t> probe_hits{0};
    std::atomic<std::uint64_t> skips{0};
    std::atomic<std::uint64_t> fallbacks{0};
    std::atomic<std::uint64_t> retain_batches{0};
    std::atomic<std::uint64_t> retain_candidates{0};
    std::atomic<std::uint64_t> retain_hits{0};
    std::atomic<std::uint64_t> compactions{0};
    std::atomic<std::uint64_t> delta_slices{0};
    std::atomic<std::uint64_t> delta_slice_rows{0};

    void Add(const SegmentOpStats& s) {
      auto bump = [](std::atomic<std::uint64_t>& c, std::uint64_t v) {
        if (v != 0) c.fetch_add(v, std::memory_order_relaxed);
      };
      bump(seals, s.seals);
      bump(sealed_rows, s.sealed_rows);
      bump(merges, s.merges);
      bump(merged_rows, s.merged_rows);
      bump(compares, s.compares);
      bump(probes, s.probes);
      bump(probe_hits, s.probe_hits);
      bump(skips, s.skips);
      bump(fallbacks, s.fallbacks);
      bump(retain_batches, s.retain_batches);
      bump(retain_candidates, s.retain_candidates);
      bump(retain_hits, s.retain_hits);
      bump(compactions, s.compactions);
      bump(delta_slices, s.delta_slices);
      bump(delta_slice_rows, s.delta_slice_rows);
    }
    void Store(const SegmentOpStats& s) {
      seals.store(s.seals, std::memory_order_relaxed);
      sealed_rows.store(s.sealed_rows, std::memory_order_relaxed);
      merges.store(s.merges, std::memory_order_relaxed);
      merged_rows.store(s.merged_rows, std::memory_order_relaxed);
      compares.store(s.compares, std::memory_order_relaxed);
      probes.store(s.probes, std::memory_order_relaxed);
      probe_hits.store(s.probe_hits, std::memory_order_relaxed);
      skips.store(s.skips, std::memory_order_relaxed);
      fallbacks.store(s.fallbacks, std::memory_order_relaxed);
      retain_batches.store(s.retain_batches, std::memory_order_relaxed);
      retain_candidates.store(s.retain_candidates, std::memory_order_relaxed);
      retain_hits.store(s.retain_hits, std::memory_order_relaxed);
      compactions.store(s.compactions, std::memory_order_relaxed);
      delta_slices.store(s.delta_slices, std::memory_order_relaxed);
      delta_slice_rows.store(s.delta_slice_rows, std::memory_order_relaxed);
    }
    SegmentOpStats Load() const {
      SegmentOpStats s;
      s.seals = seals.load(std::memory_order_relaxed);
      s.sealed_rows = sealed_rows.load(std::memory_order_relaxed);
      s.merges = merges.load(std::memory_order_relaxed);
      s.merged_rows = merged_rows.load(std::memory_order_relaxed);
      s.compares = compares.load(std::memory_order_relaxed);
      s.probes = probes.load(std::memory_order_relaxed);
      s.probe_hits = probe_hits.load(std::memory_order_relaxed);
      s.skips = skips.load(std::memory_order_relaxed);
      s.fallbacks = fallbacks.load(std::memory_order_relaxed);
      s.retain_batches = retain_batches.load(std::memory_order_relaxed);
      s.retain_candidates = retain_candidates.load(std::memory_order_relaxed);
      s.retain_hits = retain_hits.load(std::memory_order_relaxed);
      s.compactions = compactions.load(std::memory_order_relaxed);
      s.delta_slices = delta_slices.load(std::memory_order_relaxed);
      s.delta_slice_rows = delta_slice_rows.load(std::memory_order_relaxed);
      return s;
    }
  };

  void IndexInsert(const Tuple* tuple);
  void IndexErase(const Tuple* tuple);
  // Builds and registers the index over `cols`; requires the exclusive
  // lock. Returns the registered entry.
  std::map<ColumnSet, Index>::iterator BuildIndexLocked(
      const ColumnSet& cols) const;
  static Tuple Project(const Tuple& tuple, const ColumnSet& cols);

  std::size_t arity_ = 0;
  std::set<Tuple> tuples_;
  std::uint64_t generation_ = 0;
  // Insertion order of live tuples; erased entries become nullptr so
  // caller-held watermark positions never shift.
  std::vector<const Tuple*> log_;
  // Node -> log slot, built lazily on the first Erase and maintained by
  // later Inserts: repeated erases (the incremental-maintenance write
  // pattern) tombstone in O(log) lookups instead of an O(|log|) scan.
  // Erase-free relations never pay for it.
  std::map<const Tuple*, std::size_t> log_pos_;
  bool log_pos_tracked_ = false;
  // Readers (Probe lookups) share; index construction and mutation-path
  // maintenance take it exclusively.
  mutable std::shared_mutex index_mu_;
  mutable std::map<ColumnSet, Index> indexes_;
  mutable AtomicIndexStats stats_;

  // One sealed run of the tiered segment list. `[log_begin, log_end)` is
  // the insert-log span whose live tuples the run holds; while the list is
  // tiled (runs_tiled_) the spans of consecutive runs are contiguous and
  // together cover [0, runs_.back().log_end), which is what lets
  // DeltaViewSince answer with zero-copy run slices.
  struct SealedRun {
    SegmentPtr segment;
    std::size_t log_begin = 0;
    std::size_t log_end = 0;
    // Rows of this run tombstoned by later erases. A run with dead == 0
    // still answers DeltaViewSince as a zero-copy slice even in an
    // erase-containing epoch; a run with dead > 0 is served through the
    // (tombstone-skipping) log refs instead. Reset by the full rebuild.
    std::size_t dead = 0;
  };

  // Merges the newest runs while they violate the size-tier invariant
  // (see SegmentPolicy). Requires the exclusive lock.
  void CompactLocked(SegmentOpStats* stats) const;
  // Copies `other`'s tail as pointers to the equal tuples of our own set
  // (tuples_ must already hold the copy).
  void CopyTail(const RelationInstance& other);

  // Tiered view state. Runs are immutable and shared across copies, oldest
  // (largest) first; `tail_` points at the tuples inserted since the last
  // seal (kSegmented only; set nodes are stable, and every erase clears the
  // tail, so no pointer outlives its node); `segment_dirty_` marks
  // erases/clears, which invalidate the tail and force a full rebuild.
  // `segment_generation_` is the generation the sealed view corresponds
  // to. `runs_tiled_` records whether the run/log spans can be trusted:
  // copies rebuild the log in set order, which breaks the tiling, so copied
  // relations decline slice serving until the next full rebuild restores
  // it.
  StorageMode storage_mode_ = StorageMode::kIndexed;
  SegmentPolicy policy_;
  mutable std::vector<SealedRun> runs_;
  mutable bool runs_tiled_ = true;
  mutable std::vector<const Tuple*> tail_;
  mutable bool segment_dirty_ = false;
  mutable std::uint64_t segment_generation_ = 0;
  mutable AtomicSegmentStats seg_stats_;
};

// A database instance: relation name -> extension. An Instance is a member
// of the set of possible instances its Schema denotes; mappings relate
// pairs of Instances (paper Section 2).
class Instance {
 public:
  Instance() = default;

  // Creates empty extensions for every relation of `schema`. ER schemas are
  // materialized via their entity-set layouts (see EntitySetLayout below).
  static Instance EmptyFor(const model::Schema& schema);

  // Declares a relation extension of the given arity (replaces empty).
  void DeclareRelation(std::string_view name, std::size_t arity);
  bool HasRelation(std::string_view name) const;

  // Checked insert: relation must exist and the arity must match; rejects
  // before any index or log is touched.
  Status Insert(std::string_view relation, Tuple tuple);
  // Unchecked variant used by inner loops that already validated shape.
  // Debug-asserts existence and arity.
  void InsertUnchecked(std::string_view relation, Tuple tuple);
  Status Erase(std::string_view relation, const Tuple& tuple);

  const RelationInstance* Find(std::string_view relation) const;
  RelationInstance* FindMutable(std::string_view relation);

  const std::map<std::string, RelationInstance, std::less<>>& relations()
      const {
    return relations_;
  }
  std::map<std::string, RelationInstance, std::less<>>& relations_mutable() {
    return relations_;
  }

  std::size_t TotalTuples() const;
  // True if any tuple anywhere contains a labeled null.
  bool HasLabeledNulls() const;
  // Largest labeled-null label present, or -1.
  std::int64_t MaxNullLabel() const;

  // Applies `mode` to every existing relation and to relations declared
  // later (the chase declares target relations lazily via InsertFacts).
  void SetStorageMode(StorageMode mode);
  StorageMode storage_mode() const { return storage_mode_; }

  // Applies compaction thresholds to every existing relation and to
  // relations declared later.
  void SetSegmentPolicy(const SegmentPolicy& policy);

  // Seals every relation's segment view (const cache semantics; see
  // RelationInstance::PrepareSegments).
  void PrepareAllSegments(bool defer_dirty_rebuild = false) const;

  // Summed index telemetry across all relations.
  IndexStats IndexStatsTotal() const;
  // Summed segment telemetry across all relations.
  SegmentOpStats SegmentStatsTotal() const;
  // Summed run-list shape across all relations (tiers: per-relation max).
  SegmentShape SegmentShapeTotal() const;
  // relation -> current insert-log watermark, for delta-tracking readers.
  std::map<std::string, std::size_t, std::less<>> InsertWatermarks() const;

  // Exact equality: same relation names, same tuple sets.
  bool Equals(const Instance& other) const;

  // Tuples present in `this` but absent in `other` (per relation), the
  // positive half of a symmetric difference. Used by view maintenance tests.
  Instance Minus(const Instance& other) const;

  // Merges all tuples of `other` into this instance, declaring missing
  // relations as needed.
  void UnionWith(const Instance& other);

  std::string ToString() const;

 private:
  std::map<std::string, RelationInstance, std::less<>> relations_;
  StorageMode storage_mode_ = StorageMode::kIndexed;
  SegmentPolicy segment_policy_;
};

// Equivalence up to a bijective renaming of labeled nulls: true iff some
// bijection over null labels maps `a` onto exactly `b` (constants fixed,
// relation-by-relation tuple sets equal). This is instance isomorphism in
// the data-exchange sense — incremental maintenance and a from-scratch
// chase agree up to the names of the nulls they invent, and this is the
// comparator that makes that testable. Ground tuples are compared by
// membership; null-carrying tuples are matched by a backtracking search
// over label bijections, grouped by constant skeleton so the search only
// explores candidates that could possibly align. Relations with empty
// extensions are ignored on both sides (same convention as Equals).
bool InstanceEqualsUpToNulls(const Instance& a, const Instance& b);

// How an entity set is laid out as a relation extension at runtime: a
// leading hidden "$type" column holding the concrete entity type name,
// followed by the union of attributes over the whole hierarchy (base-first,
// then per-subtype extras in declaration order). Absent attributes are
// plain NULL. This is the runtime shape behind Fig. 2/3's "Persons".
struct EntitySetLayout {
  std::string set_name;
  std::string root_type;
  // Column names, excluding the leading $type column.
  std::vector<std::string> columns;
  // For each entity type in the hierarchy, which columns it populates
  // (indices into `columns`).
  std::map<std::string, std::vector<std::size_t>> columns_of_type;

  // Column position of `attribute` within `columns`, or npos.
  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  std::size_t ColumnIndex(std::string_view attribute) const;

  // Total tuple arity including the leading $type column.
  std::size_t arity() const { return columns.size() + 1; }
};

// Computes the layout for `set` within `schema`.
Result<EntitySetLayout> ComputeEntitySetLayout(const model::Schema& schema,
                                               const model::EntitySet& set);

// Builds an entity tuple for `type_name` given values for its (flattened)
// attributes in hierarchy order; pads other columns with NULL.
Result<Tuple> MakeEntityTuple(const EntitySetLayout& layout,
                              const model::Schema& schema,
                              std::string_view type_name,
                              const std::vector<Value>& attribute_values);

}  // namespace mm2::instance

#endif  // MM2_INSTANCE_INSTANCE_H_
