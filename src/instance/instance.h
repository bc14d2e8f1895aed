#ifndef MM2_INSTANCE_INSTANCE_H_
#define MM2_INSTANCE_INSTANCE_H_

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

// Hash-index reads, counted into a struct the reader owns (a chase run
// mirrors its own as the `index.*` obs counters). A relation keeps no read
// state.
struct IndexStats {
  std::uint64_t probes = 0;      // Probe() calls
  std::uint64_t probe_hits = 0;  // tuples yielded by probes
  std::uint64_t builds = 0;      // lazy index constructions
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
//  - At most one sealed run (segment.h): an immutable column-major copy of
//    the extension in set order. PrepareSegments() builds it; the first
//    successful mutation drops it, so a run that exists is always current.
//    A chase seals its result once on publish; nothing else does.
// It keeps no read state: every read counts into stats its caller passes
// (a chase run's own, or none).
//
// Thread safety: mm2 spawns no threads, so these guarantees serve callers
// that share one relation across their own threads. Concurrent const access
// (Probe/tuples/SegmentProbePrefix) is safe and writes nothing shared but
// the lazy indexes: lookups take a shared lock, and only the first Probe of
// a new column set upgrades to an exclusive lock to build.
// PrepareSegments takes the exclusive lock too, but must not race
// SegmentProbePrefix readers. Mutation still requires external
// synchronization, like the containers this wraps.
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

  // Inserts; returns the new tuple's node, or nullptr when the tuple was
  // already present. The node stays valid until the tuple is erased. Dies on
  // arity mismatch in debug builds; callers go through Instance::Insert for
  // checked inserts.
  const Tuple* Insert(Tuple tuple);
  bool Contains(const Tuple& tuple) const { return tuples_.count(tuple) > 0; }
  bool Erase(const Tuple& tuple);
  void Clear();

  // All tuples whose projection onto `cols` equals `key` (|key| == |cols|,
  // positions in [0, arity)), in set order; nullptr when none. The returned
  // pointer stays valid until the next mutation of this relation. Counts
  // the probe, its hits and a lazy build into `*stats` when non-null.
  const TupleRefs* Probe(const ColumnSet& cols, const Tuple& key,
                         IndexStats* stats = nullptr) const;

  // --- The sealed run (sorted, immutable; see segment.h) ------------------
  // Seals the run over the current extension: a straight column-major copy
  // of the set, which is already sorted and unique. Const with cache
  // semantics like Probe's lazy index build, so const relations can be
  // sealed by their readers. No-op while the run is current; a seal counts
  // into `*stats` when non-null.
  void PrepareSegments(SegmentOpStats* stats = nullptr) const;

  // True while a run exists; every mutation drops it, so it is current.
  bool SegmentCurrent() const { return run_ != nullptr; }

  // Rows whose leading |key| columns equal `key`, as one row range of the
  // run, in set order (an empty key selects every row). nullopt when the
  // relation holds no run; callers then read the set. The segment pointer
  // follows the same validity contract as Probe(): no mutation until the
  // caller is done. Counts the probe, its rows and the search's compares
  // and skips into `*stats` when non-null.
  std::optional<SegmentRange> SegmentProbePrefix(
      const Tuple& key, SegmentOpStats* stats = nullptr) const;

  // Sealed-run access for tests and benchmarks.
  SegmentPtr sealed_segment() const { return run_; }
  std::size_t sealed_rows() const { return run_ == nullptr ? 0 : run_->rows(); }
  std::size_t live_runs() const { return run_ == nullptr ? 0 : 1; }
  SegmentShape segment_shape() const { return SegmentShape{live_runs()}; }

 private:
  struct Index {
    std::unordered_map<Tuple, TupleRefs, TupleHash> buckets;
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
  // Readers (Probe lookups) share; index construction, sealing and
  // mutation-path maintenance take it exclusively.
  mutable std::shared_mutex index_mu_;
  mutable std::map<ColumnSet, Index> indexes_;
  // The sealed run, shared across copies (it never mutates); null until
  // PrepareSegments and again after every successful mutation.
  mutable SegmentPtr run_;
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
  // before any index is touched.
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
  // read and stay run-free. Seals count into `*stats` when non-null.
  void PrepareAllSegments(SegmentOpStats* stats = nullptr) const;

  // Relations holding a current sealed run.
  SegmentShape SegmentShapeTotal() const;

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
