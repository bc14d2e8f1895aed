#include "chase/provenance.h"

#include <algorithm>
#include <map>
#include <utility>

namespace mm2::chase {

using instance::Tuple;
using instance::Value;

std::string Fact::ToString() const {
  return relation + instance::TupleToString(tuple);
}

namespace {

using Id = Provenance::Id;

Id HashOf(Id relation, const Value* values, std::size_t arity) {
  std::uint64_t h = (static_cast<std::uint64_t>(relation) << 32) ^ arity;
  for (std::size_t i = 0; i < arity; ++i) {
    h = (h ^ values[i].Hash()) * 0x100000001b3ULL;
  }
  h ^= h >> 29;
  return static_cast<Id>(h ^ (h >> 32));
}

}  // namespace

// ---- Arena and tables --------------------------------------------------------

Id Provenance::AllocSpan(std::size_t width) {
  if (width < free_spans_.size() && !free_spans_[width].empty()) {
    const Id at = free_spans_[width].back();
    free_spans_[width].pop_back();
    return at;
  }
  const Id at = static_cast<Id>(values_.size());
  values_.resize(values_.size() + width);
  return at;
}

void Provenance::FreeSpan(Id at, std::size_t width) {
  if (width == 0) return;
  if (free_spans_.size() <= width) free_spans_.resize(width + 1);
  free_spans_[width].push_back(at);
}

Id Provenance::FindRelation(std::string_view name) const {
  for (std::size_t i = 0; i < relations_.size(); ++i) {
    if (relations_[i] == name) return static_cast<Id>(i);
  }
  return kNone;
}

Id Provenance::AddRelation(std::string_view name) {
  const Id found = FindRelation(name);
  if (found != kNone) return found;
  relations_.emplace_back(name);
  return static_cast<Id>(relations_.size() - 1);
}

std::size_t Provenance::Probe(const FactTable& table, Id relation,
                              const Value* values, std::size_t arity,
                              Id hash) const {
  const std::size_t mask = table.slots.size() - 1;
  std::size_t i = hash & mask;
  for (; table.slots[i] != kNone; i = (i + 1) & mask) {
    const FactRec& rec = table.recs[table.slots[i]];
    if (rec.hash == hash && rec.relation == relation && rec.arity == arity &&
        std::equal(values, values + arity, values_.data() + rec.values)) {
      break;
    }
  }
  return i;
}

Id Provenance::Find(const FactTable& table, Id relation, const Value* values,
                    std::size_t arity) const {
  if (table.slots.empty()) return kNone;
  return table.slots[Probe(table, relation, values, arity,
                           HashOf(relation, values, arity))];
}

Id Provenance::Find(const FactTable& table, const Fact& fact) const {
  const Id relation = FindRelation(fact.relation);
  if (relation == kNone) return kNone;
  return Find(table, relation, fact.tuple.data(), fact.tuple.size());
}

void Provenance::Slot(FactTable& table, Id id) {
  const std::size_t mask = table.slots.size() - 1;
  std::size_t i = table.recs[id].hash & mask;
  while (table.slots[i] != kNone) i = (i + 1) & mask;
  table.slots[i] = id;
}

void Provenance::Unslot(FactTable& table, Id id) {
  const std::size_t mask = table.slots.size() - 1;
  std::size_t i = table.recs[id].hash & mask;
  while (table.slots[i] != id) i = (i + 1) & mask;
  // Backward-shift deletion: pull later entries of the probe run into the
  // hole unless that would move them before their home slot.
  for (std::size_t j = (i + 1) & mask; table.slots[j] != kNone;
       j = (j + 1) & mask) {
    const std::size_t home = table.recs[table.slots[j]].hash & mask;
    if (((j - home) & mask) >= ((j - i) & mask)) {
      table.slots[i] = table.slots[j];
      i = j;
    }
  }
  table.slots[i] = kNone;
}

void Provenance::Release(FactTable& table, Id id) {
  FactRec& rec = table.recs[id];
  FreeSpan(rec.values, rec.arity);
  rec.relation = kNone;
  rec.first = table.free;
  rec.last = kNone;
  table.free = id;
  --table.live;
}

void Provenance::Grow(FactTable& table) {
  table.slots.assign(std::max<std::size_t>(16, table.slots.size() * 2), kNone);
  for (Id id = 0; id < table.recs.size(); ++id) {
    if (table.recs[id].relation != kNone) Slot(table, id);
  }
}

Id Provenance::FindOrAdd(FactTable& table, Id relation, const Value* values,
                         std::size_t arity) {
  if ((table.live + 1) * 2 > table.slots.size()) Grow(table);
  const Id hash = HashOf(relation, values, arity);
  const std::size_t slot = Probe(table, relation, values, arity, hash);
  if (table.slots[slot] != kNone) return table.slots[slot];
  Id id = table.free;
  if (id != kNone) {
    table.free = table.recs[id].first;
  } else {
    id = static_cast<Id>(table.recs.size());
    table.recs.emplace_back();
  }
  FactRec& rec = table.recs[id];
  rec.relation = relation;
  rec.arity = static_cast<Id>(arity);
  rec.hash = hash;
  rec.values = AllocSpan(arity);
  std::copy(values, values + arity, values_.begin() + rec.values);
  rec.first = kNone;
  rec.last = kNone;
  table.slots[slot] = id;
  ++table.live;
  return id;
}

// ---- Booking -----------------------------------------------------------------

Id Provenance::AddRule(const std::vector<BodyAtom>& body, std::size_t width) {
  Rule rule;
  rule.width = static_cast<Id>(width);
  for (const BodyAtom& atom : body) {
    rule.atoms.push_back(RuleAtom{AddRelation(atom.relation), atom.columns});
  }
  for (std::size_t i = 0; i < rules_.size(); ++i) {
    if (rules_[i].width == rule.width && rules_[i].atoms == rule.atoms) {
      return static_cast<Id>(i);
    }
  }
  rules_.push_back(std::move(rule));
  return static_cast<Id>(rules_.size() - 1);
}

void Provenance::ReadAtom(const RuleAtom& atom, const Value* frame,
                          std::vector<Value>* out) {
  out->clear();
  for (const Column& column : atom.columns) {
    out->push_back(column.slot == kNone ? column.constant : frame[column.slot]);
  }
}

void Provenance::Book(Id rule, Id relation, const Tuple& tuple,
                      const Value* frame, bool support) {
  const Id fact = FindOrAdd(facts_, relation, tuple.data(), tuple.size());
  const std::size_t width = rules_[rule].width;
  Id w = free_witness_;
  if (w != kNone) {
    free_witness_ = witnesses_[w].next;
  } else {
    w = static_cast<Id>(witnesses_.size());
    witnesses_.emplace_back();
  }
  const Id frame_at = AllocSpan(width);
  std::copy(frame, frame + width, values_.begin() + frame_at);
  witnesses_[w] = WitnessRec{rule, frame_at, kNone};
  ++live_witnesses_;
  FactRec& rec = facts_.recs[fact];
  if (rec.last == kNone) {
    rec.first = w;
  } else {
    witnesses_[rec.last].next = w;
  }
  rec.last = w;
  if (!support) return;
  for (const RuleAtom& atom : rules_[rule].atoms) {
    ReadAtom(atom, frame, &scratch_);
    const Id source =
        FindOrAdd(sources_, atom.relation, scratch_.data(), scratch_.size());
    Id e = free_edge_;
    if (e != kNone) {
      free_edge_ = edges_[e].next;
    } else {
      e = static_cast<Id>(edges_.size());
      edges_.emplace_back();
    }
    edges_[e] = Edge{fact, sources_.recs[source].first};
    sources_.recs[source].first = e;
    ++live_edges_;
  }
}

void Provenance::FreeWitness(Id w) {
  WitnessRec& rec = witnesses_[w];
  FreeSpan(rec.frame, rules_[rec.rule].width);
  rec.rule = kNone;
  rec.next = free_witness_;
  free_witness_ = w;
  --live_witnesses_;
}

void Provenance::RewriteValue(const Value& from, const Value& to) {
  // A rule constant holding `from` moves the rule's witnesses to a rewritten
  // copy; the rule itself stays as the chase registered it, for witnesses
  // booked after the merge.
  auto holds_from = [&from](const Column& column) {
    return column.slot == kNone && column.constant == from;
  };
  std::vector<Id> rule_of(rules_.size());
  for (Id r = 0; r < rule_of.size(); ++r) {
    rule_of[r] = r;
    const std::vector<RuleAtom>& atoms = rules_[r].atoms;
    if (std::none_of(atoms.begin(), atoms.end(), [&](const RuleAtom& atom) {
          return std::any_of(atom.columns.begin(), atom.columns.end(),
                             holds_from);
        })) {
      continue;
    }
    Rule copy = rules_[r];
    for (RuleAtom& atom : copy.atoms) {
      for (Column& column : atom.columns) {
        if (holds_from(column)) column.constant = to;
      }
    }
    rule_of[r] = static_cast<Id>(rules_.size());
    rules_.push_back(std::move(copy));
  }
  for (WitnessRec& w : witnesses_) {
    if (w.rule == kNone) continue;
    w.rule = rule_of[w.rule];
    Value* frame = values_.data() + w.frame;
    std::replace(frame, frame + rules_[w.rule].width, from, to);
  }
  // Facts holding `from` leave the index and return under their new tuple,
  // grouped by it; each member remembers its old tuple, which orders the
  // merged witness list.
  std::map<std::pair<Id, Tuple>, std::vector<std::pair<Tuple, Id>>> moved;
  for (Id id = 0; id < facts_.recs.size(); ++id) {
    const FactRec& rec = facts_.recs[id];
    if (rec.relation == kNone) continue;
    Value* v = values_.data() + rec.values;
    if (std::find(v, v + rec.arity, from) == v + rec.arity) continue;
    Tuple old(v, v + rec.arity);
    Unslot(facts_, id);
    std::replace(v, v + rec.arity, from, to);
    moved[{rec.relation, Tuple(v, v + rec.arity)}].emplace_back(std::move(old),
                                                                id);
  }
  std::vector<std::pair<Id, Id>> merged;  // (dropped fact, survivor)
  for (auto& [key, members] : moved) {
    const Tuple& now = key.second;
    // A fact that already held the new tuple joins the merge in place.
    const Id resident = Find(facts_, key.first, now.data(), now.size());
    if (resident != kNone) members.emplace_back(now, resident);
    std::sort(members.begin(), members.end());
    const Id survivor = resident != kNone ? resident : members.front().second;
    Id first = kNone;
    Id last = kNone;
    for (const auto& [old, id] : members) {
      const FactRec& rec = facts_.recs[id];
      if (last == kNone) {
        first = rec.first;
      } else {
        witnesses_[last].next = rec.first;
      }
      last = rec.last;
      if (id != survivor) {
        merged.emplace_back(id, survivor);
        Release(facts_, id);
      }
    }
    FactRec& rec = facts_.recs[survivor];
    rec.first = first;
    rec.last = last;
    if (resident == kNone) {
      rec.hash = HashOf(rec.relation, now.data(), now.size());
      Slot(facts_, survivor);
    }
  }
  if (merged.empty()) return;
  std::sort(merged.begin(), merged.end());
  for (Edge& edge : edges_) {
    auto it = std::lower_bound(merged.begin(), merged.end(),
                               std::make_pair(edge.fact, Id{0}));
    if (it != merged.end() && it->first == edge.fact) edge.fact = it->second;
  }
}

// ---- Deletion maintenance ----------------------------------------------------

bool Provenance::Reads(Id w, const std::vector<std::pair<Id, Id>>& hits,
                       std::size_t begin, std::size_t end,
                       const std::vector<Fact>& dead,
                       const std::vector<Id>& dead_relations) const {
  const WitnessRec& rec = witnesses_[w];
  const Value* frame = values_.data() + rec.frame;
  for (const RuleAtom& atom : rules_[rec.rule].atoms) {
    for (std::size_t k = begin; k < end; ++k) {
      const Id d = hits[k].second;
      const Tuple& tuple = dead[d].tuple;
      if (dead_relations[d] != atom.relation ||
          tuple.size() != atom.columns.size()) {
        continue;
      }
      bool same = true;
      for (std::size_t c = 0; same && c < tuple.size(); ++c) {
        const Column& column = atom.columns[c];
        same = (column.slot == kNone ? column.constant
                                     : frame[column.slot]) == tuple[c];
      }
      if (same) return true;
    }
  }
  return false;
}

Provenance::Pruned Provenance::Prune(const std::vector<Fact>& dead) {
  Pruned out;
  // (supported fact, dead fact) for every support entry of a dead fact.
  std::vector<std::pair<Id, Id>> hits;
  std::vector<Id> dead_relations(dead.size(), kNone);
  for (std::size_t d = 0; d < dead.size(); ++d) {
    dead_relations[d] = FindRelation(dead[d].relation);
    const Id source = Find(sources_, dead[d]);
    if (source == kNone) continue;
    for (Id e = sources_.recs[source].first; e != kNone;) {
      const Id next = edges_[e].next;
      hits.emplace_back(edges_[e].fact, static_cast<Id>(d));
      edges_[e].next = free_edge_;
      free_edge_ = e;
      --live_edges_;
      e = next;
    }
    Unslot(sources_, source);
    Release(sources_, source);
  }
  std::sort(hits.begin(), hits.end());
  hits.erase(std::unique(hits.begin(), hits.end()), hits.end());
  for (std::size_t begin = 0; begin < hits.size();) {
    const Id fact = hits[begin].first;
    std::size_t end = begin;
    while (end < hits.size() && hits[end].first == fact) ++end;
    FactRec& rec = facts_.recs[fact];
    // A stale entry names a fact that is already gone.
    if (rec.relation != kNone) {
      bool dropped = false;
      Id prev = kNone;
      for (Id w = rec.first; w != kNone;) {
        const Id next = witnesses_[w].next;
        if (Reads(w, hits, begin, end, dead, dead_relations)) {
          if (prev == kNone) {
            rec.first = next;
          } else {
            witnesses_[prev].next = next;
          }
          if (rec.last == w) rec.last = prev;
          FreeWitness(w);
          dropped = true;
        } else {
          prev = w;
        }
        w = next;
      }
      if (rec.first == kNone) {
        out.unsupported.push_back(FactOf(facts_, fact));
        Unslot(facts_, fact);
        Release(facts_, fact);
      } else if (dropped) {
        ++out.kept;
      }
    }
    begin = end;
  }
  return out;
}

// ---- Reads -------------------------------------------------------------------

Fact Provenance::FactOf(const FactTable& table, Id id) const {
  const FactRec& rec = table.recs[id];
  const Value* v = values_.data() + rec.values;
  return Fact{relations_[rec.relation], Tuple(v, v + rec.arity)};
}

std::size_t Provenance::VisitWitnesses(
    const Fact& fact,
    const std::function<void(const Witness&)>& visit) const {
  const Id id = Find(facts_, fact);
  if (id == kNone) return 0;
  std::size_t count = 0;
  Witness witness;
  for (Id w = facts_.recs[id].first; w != kNone; w = witnesses_[w].next) {
    const WitnessRec& rec = witnesses_[w];
    const std::vector<RuleAtom>& atoms = rules_[rec.rule].atoms;
    witness.resize(atoms.size());
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      witness[i].relation = relations_[atoms[i].relation];
      ReadAtom(atoms[i], values_.data() + rec.frame, &witness[i].tuple);
    }
    visit(witness);
    ++count;
  }
  return count;
}

std::vector<Witness> Provenance::WitnessesOf(const Fact& fact) const {
  std::vector<Witness> out;
  VisitWitnesses(fact, [&out](const Witness& w) { out.push_back(w); });
  return out;
}

std::vector<Fact> Provenance::Facts() const {
  std::vector<Fact> out;
  out.reserve(facts_.live);
  for (Id id = 0; id < facts_.recs.size(); ++id) {
    if (facts_.recs[id].relation != kNone) out.push_back(FactOf(facts_, id));
  }
  return out;
}

std::vector<Fact> Provenance::DependentsOf(const Fact& source) const {
  std::vector<Fact> out;
  const Id id = Find(sources_, source);
  if (id == kNone) return out;
  for (Id e = sources_.recs[id].first; e != kNone; e = edges_[e].next) {
    if (facts_.recs[edges_[e].fact].relation != kNone) {
      out.push_back(FactOf(facts_, edges_[e].fact));
    }
  }
  return out;
}

Provenance::Footprint Provenance::footprint() const {
  Footprint f;
  f.facts = facts_.live;
  f.witnesses = live_witnesses_;
  f.support_edges = live_edges_;
  std::size_t bytes = values_.capacity() * sizeof(Value) +
                      witnesses_.capacity() * sizeof(WitnessRec) +
                      edges_.capacity() * sizeof(Edge) +
                      scratch_.capacity() * sizeof(Value);
  for (const FactTable* table : {&facts_, &sources_}) {
    bytes += table->recs.capacity() * sizeof(FactRec) +
             table->slots.capacity() * sizeof(Id);
  }
  bytes += free_spans_.capacity() * sizeof(std::vector<Id>);
  for (const std::vector<Id>& spans : free_spans_) {
    bytes += spans.capacity() * sizeof(Id);
  }
  bytes += rules_.capacity() * sizeof(Rule);
  for (const Rule& rule : rules_) {
    bytes += rule.atoms.capacity() * sizeof(RuleAtom);
    for (const RuleAtom& atom : rule.atoms) {
      bytes += atom.columns.capacity() * sizeof(Column);
    }
  }
  bytes += relations_.capacity() * sizeof(std::string);
  for (const std::string& name : relations_) bytes += name.capacity();
  f.bytes = bytes;
  return f;
}

}  // namespace mm2::chase
