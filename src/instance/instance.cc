#include "instance/instance.h"

#include <algorithm>
#include <cassert>
#include <functional>
#include <mutex>
#include <unordered_map>
#include <utility>

namespace mm2::instance {

// Indexes hold pointers into the *source* set, so a copy rebuilds them
// lazily; runs are immutable, so copies share them.
RelationInstance::RelationInstance(const RelationInstance& other)
    : arity_(other.arity_), tuples_(other.tuples_), run_(other.run_) {}

RelationInstance& RelationInstance::operator=(const RelationInstance& other) {
  if (this == &other) return *this;
  arity_ = other.arity_;
  tuples_ = other.tuples_;
  indexes_.clear();
  run_ = other.run_;
  return *this;
}

RelationInstance::RelationInstance(RelationInstance&& other) noexcept
    : arity_(other.arity_),
      tuples_(std::move(other.tuples_)),
      indexes_(std::move(other.indexes_)),
      run_(std::move(other.run_)) {
  // Moving a std::set transfers its nodes, so index pointers survive.
}

RelationInstance& RelationInstance::operator=(
    RelationInstance&& other) noexcept {
  if (this == &other) return *this;
  arity_ = other.arity_;
  tuples_ = std::move(other.tuples_);
  indexes_ = std::move(other.indexes_);
  run_ = std::move(other.run_);
  return *this;
}

Tuple RelationInstance::Project(const Tuple& tuple, const ColumnSet& cols) {
  Tuple key;
  key.reserve(cols.size());
  for (std::size_t c : cols) key.push_back(tuple[c]);
  return key;
}

// Keeps buckets in tuple (set) order so probes enumerate candidates exactly
// as a full ordered scan would.
void RelationInstance::IndexInsert(const Tuple* tuple) {
  for (auto& [cols, index] : indexes_) {
    TupleRefs& bucket = index.buckets[Project(*tuple, cols)];
    auto pos = std::lower_bound(
        bucket.begin(), bucket.end(), tuple,
        [](const Tuple* a, const Tuple* b) { return *a < *b; });
    bucket.insert(pos, tuple);
  }
}

void RelationInstance::IndexErase(const Tuple* tuple) {
  for (auto& [cols, index] : indexes_) {
    auto it = index.buckets.find(Project(*tuple, cols));
    if (it == index.buckets.end()) continue;
    TupleRefs& bucket = it->second;
    bucket.erase(std::remove(bucket.begin(), bucket.end(), tuple),
                 bucket.end());
    if (bucket.empty()) index.buckets.erase(it);
  }
}

const Tuple* RelationInstance::Insert(Tuple tuple) {
  assert(tuple.size() == arity_ && "arity mismatch");
  auto [it, inserted] = tuples_.insert(std::move(tuple));
  if (!inserted) return nullptr;
  const Tuple* node = &*it;
  run_.reset();
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  IndexInsert(node);
  return node;
}

bool RelationInstance::Erase(const Tuple& tuple) {
  auto it = tuples_.find(tuple);
  if (it == tuples_.end()) return false;
  {
    std::unique_lock<std::shared_mutex> lock(index_mu_);
    IndexErase(&*it);
  }
  tuples_.erase(it);
  run_.reset();
  return true;
}

void RelationInstance::Clear() {
  tuples_.clear();
  run_.reset();
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  indexes_.clear();
}

std::map<RelationInstance::ColumnSet, RelationInstance::Index>::iterator
RelationInstance::BuildIndexLocked(const ColumnSet& cols) const {
  Index index;
  for (const Tuple& t : tuples_) {
    // Set iteration is sorted, so appended buckets stay in tuple order.
    index.buckets[Project(t, cols)].push_back(&t);
  }
  return indexes_.emplace(cols, std::move(index)).first;
}

const RelationInstance::TupleRefs* RelationInstance::Probe(
    const ColumnSet& cols, const Tuple& key, IndexStats* stats) const {
  if (stats != nullptr) ++stats->probes;
  auto lookup = [stats](const Index& index,
                        const Tuple& k) -> const TupleRefs* {
    auto bucket = index.buckets.find(k);
    if (bucket == index.buckets.end()) return nullptr;
    if (stats != nullptr) stats->probe_hits += bucket->second.size();
    return &bucket->second;
  };
  // Fast path: the index exists, so a shared lock suffices and concurrent
  // probes proceed in parallel. The returned bucket pointer stays valid
  // after the lock drops: later builds of *other* column sets only insert
  // new map nodes, and mutations are excluded by contract until the caller
  // is done reading.
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    auto it = indexes_.find(cols);
    if (it != indexes_.end()) return lookup(it->second, key);
  }
  // Slow path: first probe of this column set; build under the exclusive
  // lock, double-checking since another thread may have raced us here.
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  auto it = indexes_.find(cols);
  if (it == indexes_.end()) {
    it = BuildIndexLocked(cols);
    if (stats != nullptr) ++stats->builds;
  }
  return lookup(it->second, key);
}

void RelationInstance::PrepareSegments(SegmentOpStats* stats) const {
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  if (run_ != nullptr) return;
  run_ = SegmentInserter::FromSorted(arity_, tuples_, stats);
}

std::optional<SegmentRange> RelationInstance::SegmentProbePrefix(
    const Tuple& key, SegmentOpStats* stats) const {
  if (run_ == nullptr || key.size() > arity_) return std::nullopt;
  const Segment::RowRange rows =
      run_->EqualRange(key.data(), key.size(), stats);
  SegmentRange out{run_.get(), rows.begin, rows.end};
  if (stats != nullptr) {
    ++stats->probes;
    stats->probe_hits += out.size();
  }
  return out;
}

Instance Instance::EmptyFor(const model::Schema& schema) {
  Instance instance;
  for (const model::Relation& r : schema.relations()) {
    instance.DeclareRelation(r.name(), r.arity());
  }
  for (const model::EntitySet& s : schema.entity_sets()) {
    Result<EntitySetLayout> layout = ComputeEntitySetLayout(schema, s);
    if (layout.ok()) {
      instance.DeclareRelation(s.name, layout->arity());
    }
  }
  return instance;
}

void Instance::DeclareRelation(std::string_view name, std::size_t arity) {
  RelationInstance fresh(arity);
  // Heterogeneous find first: redeclaration (the UnionWith/runtime refresh
  // pattern) never allocates a key string.
  auto it = relations_.find(name);
  if (it != relations_.end()) {
    it->second = std::move(fresh);
    return;
  }
  relations_.emplace(std::string(name), std::move(fresh));
}

bool Instance::HasRelation(std::string_view name) const {
  return relations_.find(name) != relations_.end();
}

Status Instance::Insert(std::string_view relation, Tuple tuple) {
  auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + std::string(relation) +
                            "' not in instance");
  }
  if (tuple.size() != it->second.arity()) {
    return Status::InvalidArgument(
        "arity mismatch inserting into '" + std::string(relation) + "': got " +
        std::to_string(tuple.size()) + ", want " +
        std::to_string(it->second.arity()));
  }
  it->second.Insert(std::move(tuple));
  return Status::OK();
}

void Instance::InsertUnchecked(std::string_view relation, Tuple tuple) {
  auto it = relations_.find(relation);
  assert(it != relations_.end() && "unknown relation");
  assert(tuple.size() == it->second.arity() && "arity mismatch");
  it->second.Insert(std::move(tuple));
}

Status Instance::Erase(std::string_view relation, const Tuple& tuple) {
  auto it = relations_.find(relation);
  if (it == relations_.end()) {
    return Status::NotFound("relation '" + std::string(relation) +
                            "' not in instance");
  }
  if (!it->second.Erase(tuple)) {
    return Status::NotFound("tuple " + TupleToString(tuple) + " not in '" +
                            std::string(relation) + "'");
  }
  return Status::OK();
}

const RelationInstance* Instance::Find(std::string_view relation) const {
  auto it = relations_.find(relation);
  return it == relations_.end() ? nullptr : &it->second;
}

RelationInstance* Instance::FindMutable(std::string_view relation) {
  auto it = relations_.find(relation);
  return it == relations_.end() ? nullptr : &it->second;
}

std::size_t Instance::TotalTuples() const {
  std::size_t total = 0;
  for (const auto& [name, rel] : relations_) total += rel.size();
  return total;
}

bool Instance::HasLabeledNulls() const {
  for (const auto& [name, rel] : relations_) {
    for (const Tuple& t : rel.tuples()) {
      for (const Value& v : t) {
        if (v.is_labeled_null()) return true;
      }
    }
  }
  return false;
}

void Instance::PrepareAllSegments(SegmentOpStats* stats) const {
  for (const auto& [name, rel] : relations_) {
    if (!rel.empty()) rel.PrepareSegments(stats);
  }
}

SegmentShape Instance::SegmentShapeTotal() const {
  SegmentShape total;
  for (const auto& [name, rel] : relations_) total += rel.segment_shape();
  return total;
}

std::int64_t Instance::MaxNullLabel() const {
  std::int64_t max_label = -1;
  for (const auto& [name, rel] : relations_) {
    for (const Tuple& t : rel.tuples()) {
      for (const Value& v : t) {
        if (v.is_labeled_null()) max_label = std::max(max_label, v.label());
      }
    }
  }
  return max_label;
}

bool Instance::Equals(const Instance& other) const {
  // Compare nonempty extensions only; a declared-but-empty relation is
  // indistinguishable from an undeclared one at the instance level.
  auto nonempty = [](const Instance& instance) {
    std::map<std::string, const RelationInstance*> out;
    for (const auto& [name, rel] : instance.relations_) {
      if (!rel.empty()) out[name] = &rel;
    }
    return out;
  };
  auto a = nonempty(*this);
  auto b = nonempty(other);
  if (a.size() != b.size()) return false;
  for (const auto& [name, rel] : a) {
    auto it = b.find(name);
    if (it == b.end()) return false;
    if (rel->tuples() != it->second->tuples()) return false;
  }
  return true;
}

namespace {

// Canonical constant skeleton of a null-carrying tuple: constants kept,
// labeled nulls replaced by their local first-occurrence pattern id. Two
// tuples can only correspond under a null bijection if their skeletons are
// identical, so skeletons partition the matching search space.
Tuple NullSkeleton(const Tuple& tuple) {
  Tuple skeleton;
  skeleton.reserve(tuple.size());
  std::map<std::int64_t, std::int64_t> local;
  for (const Value& v : tuple) {
    if (v.is_labeled_null()) {
      auto [it, fresh] =
          local.emplace(v.label(), static_cast<std::int64_t>(local.size()));
      (void)fresh;
      skeleton.push_back(Value::LabeledNull(it->second));
    } else {
      skeleton.push_back(v);
    }
  }
  return skeleton;
}

// Each null's occurrence signature: a hash of the sorted (relation, tuple
// skeleton, column) of every place it occurs. An isomorphism maps a null
// only onto a null with the same occurrences, so the matching search binds
// a pair only when their signatures agree.
std::unordered_map<std::int64_t, std::size_t> NullSignatures(
    const std::map<std::string, const RelationInstance*>& rels) {
  std::vector<std::pair<std::int64_t, std::size_t>> occurrences;
  for (const auto& [name, rel] : rels) {
    const std::size_t relation = std::hash<std::string>{}(name);
    for (const Tuple& t : rel->tuples()) {
      std::size_t shape = 0;
      for (std::size_t c = 0; c < t.size(); ++c) {
        if (!t[c].is_labeled_null()) continue;
        if (shape == 0) shape = relation * 31 + TupleHash{}(NullSkeleton(t));
        occurrences.emplace_back(t[c].label(), shape * 31 + c);
      }
    }
  }
  std::sort(occurrences.begin(), occurrences.end());
  std::unordered_map<std::int64_t, std::size_t> signatures;
  for (const auto& [label, occurrence] : occurrences) {
    std::size_t& h = signatures[label];
    h = h * 1000003 ^ occurrence;
  }
  return signatures;
}

}  // namespace

bool InstanceEqualsUpToNulls(const Instance& a, const Instance& b) {
  // Same nonempty-extension convention as Equals.
  auto nonempty = [](const Instance& instance) {
    std::map<std::string, const RelationInstance*> out;
    for (const auto& [name, rel] : instance.relations()) {
      if (!rel.empty()) out[name] = &rel;
    }
    return out;
  };
  auto rels_a = nonempty(a);
  auto rels_b = nonempty(b);
  if (rels_a.size() != rels_b.size()) return false;
  // Group null-carrying tuples by (relation, skeleton); ground tuples must
  // simply be present on both sides.
  struct Group {
    std::vector<const Tuple*> left;
    std::vector<const Tuple*> right;
  };
  std::map<std::pair<std::string, Tuple>, Group> groups;
  for (const auto& [name, rel] : rels_a) {
    auto it = rels_b.find(name);
    if (it == rels_b.end()) return false;
    const RelationInstance* other = it->second;
    if (rel->arity() != other->arity() || rel->size() != other->size()) {
      return false;
    }
    auto has_null = [](const Tuple& t) {
      for (const Value& v : t) {
        if (v.is_labeled_null()) return true;
      }
      return false;
    };
    for (const Tuple& t : rel->tuples()) {
      if (has_null(t)) {
        groups[{name, NullSkeleton(t)}].left.push_back(&t);
      } else if (!other->Contains(t)) {
        return false;
      }
    }
    for (const Tuple& t : other->tuples()) {
      if (has_null(t)) {
        groups[{name, NullSkeleton(t)}].right.push_back(&t);
      } else if (!rel->Contains(t)) {
        return false;
      }
    }
  }
  const std::unordered_map<std::int64_t, std::size_t> sig_a =
      NullSignatures(rels_a);
  const std::unordered_map<std::int64_t, std::size_t> sig_b =
      NullSignatures(rels_b);
  std::vector<Group*> order;
  order.reserve(groups.size());
  for (auto& [key, group] : groups) {
    if (group.left.size() != group.right.size()) return false;
    order.push_back(&group);
  }
  // Backtracking search for a bijection over null labels that maps every
  // left tuple onto a distinct right tuple of its group. The skeleton
  // pre-partitioning keeps candidate lists small for chase-shaped
  // instances (nulls mostly distinct per tuple pattern). The left tuples
  // are visited breadth-first over shared nulls, so after the first tuple
  // of a component each one shares a null with a tuple matched before it,
  // and a pair of nulls binds only when their occurrence signatures agree:
  // together they cut off a wrong pairing before the search permutes the
  // interchangeable tuples around it. The step budget bounds pathological
  // automorphism-heavy inputs, which conservatively report "not equal".
  // The search keeps its own stack, frame d matching left tuple
  // `slots[d]`, so large instances cannot exhaust the call stack; `trail`
  // logs the label pairs each frame's choice added.
  std::vector<std::pair<std::size_t, const Tuple*>> tuples;  // group, tuple
  std::vector<std::vector<char>> used(order.size());
  std::unordered_map<std::int64_t, std::vector<std::size_t>> with_label;
  for (std::size_t g = 0; g < order.size(); ++g) {
    for (const Tuple* t : order[g]->left) {
      for (const Value& v : *t) {
        if (v.is_labeled_null()) with_label[v.label()].push_back(tuples.size());
      }
      tuples.emplace_back(g, t);
    }
    used[g].assign(order[g]->right.size(), 0);
  }
  if (tuples.empty()) return true;
  std::vector<std::pair<std::size_t, const Tuple*>> slots;
  std::vector<char> queued(tuples.size(), 0);
  for (std::size_t start = 0; start < tuples.size(); ++start) {
    if (queued[start]) continue;
    queued[start] = 1;
    slots.push_back(tuples[start]);
    for (std::size_t k = slots.size() - 1; k < slots.size(); ++k) {
      for (const Value& v : *slots[k].second) {
        if (!v.is_labeled_null()) continue;
        for (std::size_t next : with_label[v.label()]) {
          if (queued[next]) continue;
          queued[next] = 1;
          slots.push_back(tuples[next]);
        }
      }
    }
  }
  struct Frame {
    std::size_t mark;      // trail size before this frame's choice
    std::size_t next = 0;  // the right candidate to try next
    bool holds = false;    // candidate next - 1 is chosen
  };
  std::vector<Frame> stack = {{0}};
  std::vector<std::pair<std::int64_t, std::int64_t>> trail;
  std::map<std::int64_t, std::int64_t> fwd;
  std::map<std::int64_t, std::int64_t> rev;
  std::size_t steps = 0;
  constexpr std::size_t kMaxSteps = 1u << 22;
  while (!stack.empty()) {
    Frame& f = stack.back();
    const auto [g, left] = slots[stack.size() - 1];
    const Tuple& lt = *left;
    const std::vector<const Tuple*>& right = order[g]->right;
    if (f.holds) used[g][f.next - 1] = 0;
    f.holds = false;
    while (!f.holds && f.next < right.size()) {
      // Drop what the previous candidate bound, here or deeper.
      for (; trail.size() > f.mark; trail.pop_back()) {
        fwd.erase(trail.back().first);
        rev.erase(trail.back().second);
      }
      const std::size_t c = f.next++;
      if (used[g][c] != 0) continue;
      if (++steps > kMaxSteps) return false;
      const Tuple& rt = *right[c];
      // Tentatively extend the bijection; identical skeletons guarantee
      // constants already agree and null positions line up.
      bool ok = true;
      for (std::size_t k = 0; k < lt.size() && ok; ++k) {
        if (!lt[k].is_labeled_null()) continue;
        const std::int64_t l = lt[k].label();
        const std::int64_t r = rt[k].label();
        auto fit = fwd.find(l);
        auto rit = rev.find(r);
        if (fit != fwd.end() || rit != rev.end()) {
          ok = fit != fwd.end() && fit->second == r && rit != rev.end() &&
               rit->second == l;
          continue;
        }
        if (sig_a.at(l) != sig_b.at(r)) {
          ok = false;
          continue;
        }
        fwd.emplace(l, r);
        rev.emplace(r, l);
        trail.emplace_back(l, r);
      }
      if (ok) used[g][c] = 1;
      f.holds = ok;
    }
    if (!f.holds) {
      stack.pop_back();  // no candidate left: backtrack
    } else if (stack.size() == slots.size()) {
      return true;
    } else {
      stack.push_back({trail.size()});
    }
  }
  return false;
}

Instance Instance::Minus(const Instance& other) const {
  Instance diff;
  for (const auto& [name, rel] : relations_) {
    diff.DeclareRelation(name, rel.arity());
    const RelationInstance* other_rel = other.Find(name);
    for (const Tuple& t : rel.tuples()) {
      if (other_rel == nullptr || !other_rel->Contains(t)) {
        diff.InsertUnchecked(name, t);
      }
    }
  }
  return diff;
}

void Instance::UnionWith(const Instance& other) {
  for (const auto& [name, rel] : other.relations_) {
    if (!HasRelation(name)) DeclareRelation(name, rel.arity());
    for (const Tuple& t : rel.tuples()) InsertUnchecked(name, t);
  }
}

std::string Instance::ToString() const {
  std::string out;
  for (const auto& [name, rel] : relations_) {
    out += name + " [" + std::to_string(rel.size()) + "]:\n";
    for (const Tuple& t : rel.tuples()) {
      out += "  " + TupleToString(t) + "\n";
    }
  }
  return out;
}

std::size_t EntitySetLayout::ColumnIndex(std::string_view attribute) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == attribute) return i;
  }
  return kNpos;
}

Result<EntitySetLayout> ComputeEntitySetLayout(const model::Schema& schema,
                                               const model::EntitySet& set) {
  EntitySetLayout layout;
  layout.set_name = set.name;
  layout.root_type = set.root_type;

  std::vector<std::string> hierarchy = schema.SubtypeClosure(set.root_type);
  if (hierarchy.empty()) {
    return Status::NotFound("entity set '" + set.name +
                            "' has unknown root type '" + set.root_type + "'");
  }
  // Deterministic column order: walk types in schema declaration order
  // (SubtypeClosure preserves it), appending unseen attribute names.
  for (const std::string& type_name : hierarchy) {
    MM2_ASSIGN_OR_RETURN(std::vector<model::Attribute> attrs,
                         schema.AllAttributesOf(type_name));
    std::vector<std::size_t> cols;
    for (const model::Attribute& a : attrs) {
      std::size_t idx = layout.ColumnIndex(a.name);
      if (idx == EntitySetLayout::kNpos) {
        idx = layout.columns.size();
        layout.columns.push_back(a.name);
      }
      cols.push_back(idx);
    }
    layout.columns_of_type[type_name] = std::move(cols);
  }
  return layout;
}

Result<Tuple> MakeEntityTuple(const EntitySetLayout& layout,
                              const model::Schema& schema,
                              std::string_view type_name,
                              const std::vector<Value>& attribute_values) {
  auto it = layout.columns_of_type.find(std::string(type_name));
  if (it == layout.columns_of_type.end()) {
    return Status::InvalidArgument("type '" + std::string(type_name) +
                                   "' not in entity set '" + layout.set_name +
                                   "'");
  }
  const model::EntityType* type = schema.FindEntityType(type_name);
  if (type != nullptr && type->abstract) {
    return Status::InvalidArgument("cannot instantiate abstract type '" +
                                   std::string(type_name) + "'");
  }
  if (attribute_values.size() != it->second.size()) {
    return Status::InvalidArgument(
        "type '" + std::string(type_name) + "' takes " +
        std::to_string(it->second.size()) + " attributes, got " +
        std::to_string(attribute_values.size()));
  }
  Tuple tuple(layout.arity(), Value::Null());
  tuple[0] = Value::String(std::string(type_name));
  for (std::size_t i = 0; i < it->second.size(); ++i) {
    tuple[1 + it->second[i]] = attribute_values[i];
  }
  return tuple;
}

}  // namespace mm2::instance
