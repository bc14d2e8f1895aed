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

// The extension of one relation: a set of same-arity tuples. Set semantics
// with deterministic (ordered) iteration, which the chase and the tests
// rely on.
//
// One store: the node-stable set plus
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
//  - At most one sealed run (segment.h): an immutable column-major copy of
//    the extension in set order. PrepareSegments() builds it; the first
//    successful mutation drops it, so a run that exists is always current.
//    A chase seals its result once on publish, and the algebra's prefix
//    join seals a base relation on first use; nothing else does.
//
// Thread safety: concurrent const access (Probe/DeltaSince/tuples) is safe —
// index lookups take a shared lock, and only the first Probe of a new
// column set upgrades to an exclusive lock to build. PrepareSegments takes
// the exclusive lock too, but must not race SegmentProbePrefix readers.
// Mutation still requires external synchronization, like the containers
// this wraps.
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
  bool Contains(const Tuple& tuple) const { return tuples_.count(tuple) > 0; }
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

  // --- The sealed run (sorted, immutable; see segment.h) ------------------
  // Seals the run over the current extension: a straight column-major copy
  // of the set, which is already sorted and unique. Const with cache
  // semantics like Probe's lazy index build, so const relations can be
  // sealed by their readers. No-op while the run is current.
  void PrepareSegments() const;

  // True while a run exists; every mutation drops it, so it is current.
  bool SegmentCurrent() const { return run_ != nullptr; }

  // Rows whose leading |key| columns equal `key`, as one row range of the
  // run, in set order (an empty key selects every row). nullopt when the
  // relation holds no run; callers then read the set. The segment pointer
  // follows the same validity contract as Probe(): no mutation until the
  // caller is done.
  std::optional<SegmentRange> SegmentProbePrefix(const Tuple& key) const;

  // Sealed-run access for tests and benchmarks.
  SegmentPtr sealed_segment() const { return run_; }
  std::size_t sealed_rows() const { return run_ == nullptr ? 0 : run_->rows(); }
  std::size_t live_runs() const { return run_ == nullptr ? 0 : 1; }
  SegmentShape segment_shape() const { return SegmentShape{live_runs()}; }

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

  // Same discipline for run telemetry: probes run under the shared reader
  // contract, so the counters must be atomics. Accumulated from
  // call-local SegmentOpStats to keep the hot paths cheap.
  struct AtomicSegmentStats {
    std::atomic<std::uint64_t> seals{0};
    std::atomic<std::uint64_t> sealed_rows{0};
    std::atomic<std::uint64_t> compares{0};
    std::atomic<std::uint64_t> probes{0};
    std::atomic<std::uint64_t> probe_hits{0};
    std::atomic<std::uint64_t> skips{0};

    void Add(const SegmentOpStats& s) {
      auto bump = [](std::atomic<std::uint64_t>& c, std::uint64_t v) {
        if (v != 0) c.fetch_add(v, std::memory_order_relaxed);
      };
      bump(seals, s.seals);
      bump(sealed_rows, s.sealed_rows);
      bump(compares, s.compares);
      bump(probes, s.probes);
      bump(probe_hits, s.probe_hits);
      bump(skips, s.skips);
    }
    void Store(const SegmentOpStats& s) {
      seals.store(s.seals, std::memory_order_relaxed);
      sealed_rows.store(s.sealed_rows, std::memory_order_relaxed);
      compares.store(s.compares, std::memory_order_relaxed);
      probes.store(s.probes, std::memory_order_relaxed);
      probe_hits.store(s.probe_hits, std::memory_order_relaxed);
      skips.store(s.skips, std::memory_order_relaxed);
    }
    SegmentOpStats Load() const {
      SegmentOpStats s;
      s.seals = seals.load(std::memory_order_relaxed);
      s.sealed_rows = sealed_rows.load(std::memory_order_relaxed);
      s.compares = compares.load(std::memory_order_relaxed);
      s.probes = probes.load(std::memory_order_relaxed);
      s.probe_hits = probe_hits.load(std::memory_order_relaxed);
      s.skips = skips.load(std::memory_order_relaxed);
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
  // Readers (Probe lookups) share; index construction, sealing and
  // mutation-path maintenance take it exclusively.
  mutable std::shared_mutex index_mu_;
  mutable std::map<ColumnSet, Index> indexes_;
  mutable AtomicIndexStats stats_;
  // The sealed run, shared across copies (it never mutates); null until
  // PrepareSegments and again after every successful mutation.
  mutable SegmentPtr run_;
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

  // Seals every non-empty relation's run (const cache semantics; see
  // RelationInstance::PrepareSegments). Empty relations have nothing to
  // read and stay run-free.
  void PrepareAllSegments() const;

  // Summed index telemetry across all relations.
  IndexStats IndexStatsTotal() const;
  // Summed segment telemetry across all relations.
  SegmentOpStats SegmentStatsTotal() const;
  // Relations holding a current sealed run.
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
