#include "chase/plan.h"

#include <algorithm>
#include <optional>

#include "obs/event.h"  // CancelToken

namespace mm2::chase {

using instance::RelationInstance;
using instance::Tuple;
using instance::Value;
using logic::Term;

void SlotMap::Add(const std::set<std::string>& names) {
  std::vector<const std::string*> fresh;
  for (const std::string& name : names) {
    if (Find(name) == kNoSlot) fresh.push_back(&name);
  }
  for (const std::string* name : fresh) {
    by_name_.push_back(static_cast<Slot>(names_.size()));
    names_.push_back(*name);
  }
  std::sort(by_name_.begin(), by_name_.end(),
            [this](Slot a, Slot b) { return names_[a] < names_[b]; });
}

Slot SlotMap::Find(std::string_view name) const {
  auto it = std::lower_bound(
      by_name_.begin(), by_name_.end(), name,
      [this](Slot slot, std::string_view n) { return names_[slot] < n; });
  if (it == by_name_.end() || names_[*it] != name) return kNoSlot;
  return *it;
}

PlanTerm CompileTerm(const Term& term, const SlotMap& slots) {
  PlanTerm out;
  switch (term.kind()) {
    case Term::Kind::kConstant:
      out.kind = PlanTerm::Kind::kConstant;
      out.value = term.value();
      break;
    case Term::Kind::kVariable:
      out.slot = slots.Find(term.name());
      out.kind = out.slot == kNoSlot ? PlanTerm::Kind::kUnbound
                                     : PlanTerm::Kind::kSlot;
      break;
    case Term::Kind::kFunction:
      out.kind = PlanTerm::Kind::kSkolem;
      out.function = term.name();
      for (const Term& arg : term.args()) {
        out.args.push_back(CompileTerm(arg, slots));
      }
      break;
  }
  return out;
}

std::vector<PlanAtom> CompileAtoms(const std::vector<logic::Atom>& atoms,
                                   const SlotMap& slots) {
  std::vector<PlanAtom> out;
  out.reserve(atoms.size());
  for (const logic::Atom& atom : atoms) {
    PlanAtom compiled;
    compiled.relation = atom.relation;
    for (const Term& t : atom.terms) {
      compiled.terms.push_back(CompileTerm(t, slots));
    }
    out.push_back(std::move(compiled));
  }
  return out;
}

MatchPlan::MatchPlan(const std::vector<logic::Atom>& atoms,
                     const SlotMap& slots, Slot inputs)
    : stride_(slots.size()), inputs_(inputs) {
  atoms_.reserve(atoms.size());
  occurrences_.assign(stride_, {});
  static_bound_.assign(atoms.size(), 0);
  for (std::size_t i = 0; i < atoms.size(); ++i) {
    Atom atom;
    atom.relation = atoms[i].relation;
    for (const Term& t : atoms[i].terms) {
      Column column;
      if (t.is_variable()) column.slot = slots.Find(t.name());
      if (t.is_constant()) {
        column.constant = true;
        column.value = t.value();
        ++static_bound_[i];
      } else if (column.slot != kNoSlot) {
        occurrences_[column.slot].push_back(static_cast<std::uint32_t>(i));
      } else {
        // Function terms never occur in matchable atoms, and a variable
        // without a slot cannot be bound.
        matchable_ = false;
      }
      atom.columns.push_back(column);
    }
    atoms_.push_back(std::move(atom));
  }
  depths_.resize(atoms_.size());
}

// Heap order for the greedy join: more bound terms first, then the smaller
// relation, then the earlier atom.
bool MatchPlan::Worse(const Candidate& a, const Candidate& b) {
  if (a.bound != b.bound) return a.bound < b.bound;
  if (a.size != b.size) return a.size > b.size;
  return a.atom > b.atom;
}

void MatchPlan::Push(std::uint32_t atom) {
  const RelationInstance* rel = atoms_[atom].rel;
  heap_.push_back({bound_terms_[atom], rel == nullptr ? 0 : rel->size(), atom});
  std::push_heap(heap_.begin(), heap_.end(), Worse);
}

void MatchPlan::Take(std::uint32_t atom) {
  used_[atom] = 1;
  order_.push_back(atom);
  for (const Column& column : atoms_[atom].columns) {
    if (column.constant || bound_[column.slot]) continue;
    bound_[column.slot] = 1;
    for (std::uint32_t other : occurrences_[column.slot]) {
      if (used_[other]) continue;
      ++bound_terms_[other];
      Push(other);
    }
  }
}

// Greedy join order, then per-depth ops and access paths. The greedy pick
// pops a lazy max-heap: a stale entry (its atom taken, or its count since
// raised) is skipped when it surfaces, so the winner is exactly the atom a
// rescan of every remaining atom would pick, in O(log n) per step.
void MatchPlan::Order(const Request& request) {
  const std::size_t n = atoms_.size();
  bound_.assign(stride_, 0);
  for (Slot s = 0; s < inputs_ && s < stride_; ++s) bound_[s] = 1;
  bound_terms_.assign(n, 0);
  used_.assign(n, 0);
  order_.clear();
  heap_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    std::size_t count = static_bound_[i];
    for (const Column& column : atoms_[i].columns) {
      if (!column.constant && bound_[column.slot]) ++count;
    }
    bound_terms_[i] = count;
  }
  if (request.anchor != kNoAnchor) {
    Take(static_cast<std::uint32_t>(request.anchor));
  }
  for (std::uint32_t i = 0; i < n; ++i) {
    if (!used_[i]) Push(i);
  }
  while (order_.size() < n) {
    std::pop_heap(heap_.begin(), heap_.end(), Worse);
    const Candidate top = heap_.back();
    heap_.pop_back();
    if (used_[top.atom] || top.bound != bound_terms_[top.atom]) continue;
    Take(top.atom);
  }

  // Replay the order to derive each depth's ops. bound_ marks: 0 unbound,
  // 1 bound before the current atom, 2 bound earlier in the current atom.
  bound_.assign(stride_, 0);
  for (Slot s = 0; s < inputs_ && s < stride_; ++s) bound_[s] = 1;
  for (std::size_t d = 0; d < n; ++d) {
    Depth& depth = depths_[d];
    depth.atom = order_[d];
    depth.ops.clear();
    depth.cols.clear();
    depth.prefix = 0;
    const Atom& atom = atoms_[depth.atom];
    bool leading = true;
    for (std::size_t c = 0; c < atom.columns.size(); ++c) {
      const Column& column = atom.columns[c];
      Op op;
      op.column = static_cast<std::uint32_t>(c);
      if (column.constant) {
        op.kind = OpKind::kConstant;
        op.value = column.value;
      } else if (bound_[column.slot] != 0) {
        op.kind = OpKind::kCheck;
        op.slot = column.slot;
      } else {
        leading = false;
        continue;
      }
      depth.ops.push_back(op);
      depth.cols.push_back(c);
      if (leading) ++depth.prefix;
    }
    for (std::size_t c = 0; c < atom.columns.size(); ++c) {
      const Column& column = atom.columns[c];
      if (column.constant || bound_[column.slot] == 1) continue;
      Op op;
      op.column = static_cast<std::uint32_t>(c);
      op.slot = column.slot;
      op.kind = bound_[column.slot] == 0 ? OpKind::kBind : OpKind::kCheck;
      bound_[column.slot] = 2;
      depth.ops.push_back(op);
    }
    for (const Column& column : atom.columns) {
      if (!column.constant) bound_[column.slot] = 1;
    }
    depth.opens = 0;
    depth.walked = 0;
    if (d == 0 && request.anchor != kNoAnchor) {
      depth.path = Path::kDelta;
    } else if (depth.prefix > 0) {
      depth.path = atom.hashed && depth.prefix < depth.cols.size()
                       ? Path::kHash
                       : Path::kPrefix;
    } else if (depth.cols.empty() || (d == 0 && inputs_ == 0)) {
      depth.path = Path::kScan;
    } else {
      depth.path = Path::kHash;
    }
  }
}

void MatchPlan::Open(Depth& depth, const Request& request,
                     const Value* frame) {
  ++depth.opens;
  Cursor& cursor = depth.cursor;
  cursor.kind = Cursor::Kind::kDone;
  const Atom& atom = atoms_[depth.atom];
  const RelationInstance* rel = atom.rel;
  if (rel == nullptr || atom.columns.size() != rel->arity()) return;
  auto fill_key = [&](std::size_t count) {
    depth.key_values.clear();
    for (std::size_t k = 0; k < count; ++k) {
      const Op& op = depth.ops[k];
      depth.key_values.push_back(op.kind == OpKind::kConstant
                                     ? op.value
                                     : frame[op.slot]);
    }
  };
  auto walk = [&](std::uint32_t prefix) {
    cursor.kind = Cursor::Kind::kSet;
    cursor.it = prefix == 0 ? rel->tuples().begin()
                            : rel->tuples().lower_bound(depth.key_values);
    cursor.end = rel->tuples().end();
  };
  // The sealed run's rows under the leading `prefix` key, when it has one.
  auto read_run = [&](std::uint32_t prefix) {
    fill_key(prefix);
    std::optional<instance::SegmentRange> range =
        rel->SegmentProbePrefix(depth.key_values);
    if (!range.has_value()) return false;
    cursor.kind = Cursor::Kind::kRun;
    cursor.segment = range->segment;
    cursor.row = range->begin;
    cursor.row_end = range->end;
    depth.walked += range->size();
    return true;
  };
  switch (depth.path) {
    case Path::kDelta:
      cursor.kind = Cursor::Kind::kRefs;
      cursor.ref = request.delta->data();
      cursor.ref_end = cursor.ref + request.delta->size();
      return;
    case Path::kScan:
      if (!request.any_order || !read_run(0)) walk(0);
      return;
    case Path::kPrefix:
      if (!read_run(depth.prefix)) walk(depth.prefix);
      return;
    case Path::kHash: {
      fill_key(depth.cols.size());
      const RelationInstance::TupleRefs* refs =
          rel->Probe(depth.cols, depth.key_values);
      if (refs == nullptr) return;
      cursor.kind = Cursor::Kind::kRefs;
      cursor.ref = refs->data();
      cursor.ref_end = cursor.ref + refs->size();
      return;
    }
  }
}

bool MatchPlan::Next(Depth& depth, RowRef* row) {
  Cursor& cursor = depth.cursor;
  switch (cursor.kind) {
    case Cursor::Kind::kDone:
      return false;
    case Cursor::Kind::kSet: {
      if (cursor.it == cursor.end) return false;
      const Tuple& tuple = *cursor.it;
      // A prefix range ends at the first row whose leading columns differ.
      for (std::size_t c = 0; c < depth.prefix; ++c) {
        if (!(tuple[c] == depth.key_values[c])) {
          cursor.kind = Cursor::Kind::kDone;
          return false;
        }
      }
      *row = RowRef{&tuple, nullptr, 0};
      ++cursor.it;
      ++depth.walked;
      return true;
    }
    case Cursor::Kind::kRefs:
      if (cursor.ref == cursor.ref_end) return false;
      *row = RowRef{*cursor.ref++, nullptr, 0};
      return true;
    case Cursor::Kind::kRun:
      if (cursor.row == cursor.row_end) return false;
      *row = RowRef{nullptr, cursor.segment, cursor.row++};
      return true;
  }
  return false;
}

bool MatchPlan::Apply(const Depth& depth, const RowRef& row, Value* frame) {
  for (const Op& op : depth.ops) {
    const Value& v = row.at(op.column);
    switch (op.kind) {
      case OpKind::kConstant:
        if (!(v == op.value)) return false;
        break;
      case OpKind::kCheck:
        if (!(v == frame[op.slot])) return false;
        break;
      case OpKind::kBind:
        frame[op.slot] = v;
        break;
    }
  }
  return true;
}

std::size_t MatchPlan::Run(const Request& request, Value* frame,
                           std::vector<Value>* rows, std::size_t limit) {
  if (!matchable_) return 0;
  if (request.cancel != nullptr && request.cancel->stop_requested()) return 0;
  if (atoms_.empty()) {
    rows->insert(rows->end(), frame, frame + stride_);
    return 1;
  }
  // Relation handles are stable for the instance's lifetime; only missing
  // ones (declared later by firing) are looked up again.
  const bool same_db = resolved_for_ == request.db;
  resolved_for_ = request.db;
  for (Atom& atom : atoms_) {
    if (!same_db || atom.rel == nullptr) {
      atom.rel = request.db->Find(atom.relation);
    }
  }
  Order(request);
  std::size_t found = 0;
  std::size_t d = 0;
  Open(depths_[0], request, frame);
  const std::size_t last = depths_.size() - 1;
  RowRef row;
  while (true) {
    if (!Next(depths_[d], &row)) {
      if (d == 0) break;
      --d;
      continue;
    }
    if (!Apply(depths_[d], row, frame)) continue;
    if (request.cancel != nullptr && request.cancel->stop_requested()) break;
    if (d == last) {
      rows->insert(rows->end(), frame, frame + stride_);
      if (++found == limit) break;
      continue;
    }
    ++d;
    Open(depths_[d], request, frame);
  }
  NoteWalks();
  return found;
}

// Folds this Run's walks at path-2 depths that check bound columns past
// the prefix into their atoms: a prefix that keeps matching many rows the
// other bound columns reject (say, a leading column with one value) costs
// a walk of the whole range per open, while the hash index over all bound
// columns answers with exactly the matching bucket.
void MatchPlan::NoteWalks() {
  for (const Depth& depth : depths_) {
    if (depth.path != Path::kPrefix || depth.prefix == depth.cols.size()) {
      continue;
    }
    Atom& atom = atoms_[depth.atom];
    atom.walk_opens += depth.opens;
    atom.walk_rows += depth.walked;
    atom.hashed = atom.walk_opens >= kMinWalkOpens &&
                  atom.walk_rows > kMaxWalkPerOpen * atom.walk_opens;
  }
}

}  // namespace mm2::chase
