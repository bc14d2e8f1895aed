#include "runtime/runtime.h"

#include <algorithm>
#include <chrono>
#include <set>
#include <utility>

#include "obs/obs.h"

namespace mm2::runtime {

using instance::Instance;
using instance::Tuple;
using instance::Value;

bool Delta::Empty() const {
  return inserts.TotalTuples() == 0 && deletes.TotalTuples() == 0;
}

std::size_t Delta::Size() const {
  return inserts.TotalTuples() + deletes.TotalTuples();
}

std::string Delta::ToString() const {
  std::string out;
  for (const auto& [name, rel] : inserts.relations()) {
    for (const Tuple& t : rel.tuples()) {
      out += "+" + name + instance::TupleToString(t) + "\n";
    }
  }
  for (const auto& [name, rel] : deletes.relations()) {
    for (const Tuple& t : rel.tuples()) {
      out += "-" + name + instance::TupleToString(t) + "\n";
    }
  }
  return out;
}

Delta DiffInstances(const Instance& before, const Instance& after) {
  Delta delta;
  delta.inserts = after.Minus(before);
  delta.deletes = before.Minus(after);
  return delta;
}

Status ApplyDelta(const Delta& delta, Instance* db) {
  for (const auto& [name, rel] : delta.deletes.relations()) {
    for (const Tuple& t : rel.tuples()) {
      MM2_RETURN_IF_ERROR(db->Erase(name, t));
    }
  }
  for (const auto& [name, rel] : delta.inserts.relations()) {
    if (!db->HasRelation(name)) db->DeclareRelation(name, rel.arity());
    for (const Tuple& t : rel.tuples()) {
      MM2_RETURN_IF_ERROR(db->Insert(name, t));
    }
  }
  return Status::OK();
}

// ---------------------------------------------------------------------------
// MaterializedView
// ---------------------------------------------------------------------------

MaterializedView::MaterializedView(std::string name, algebra::ExprRef view,
                                   algebra::Catalog catalog)
    : name_(std::move(name)),
      view_(std::move(view)),
      catalog_(std::move(catalog)) {}

Result<algebra::Table> MaterializedView::EvalOver(const Instance& db) const {
  return algebra::Evaluate(*view_, catalog_, db);
}

Status MaterializedView::Initialize(const Instance& base) {
  MM2_ASSIGN_OR_RETURN(current_, EvalOver(base));
  return Status::OK();
}

namespace {

bool TreeIsMonotonePipeline(const algebra::Expr& expr) {
  switch (expr.kind()) {
    case algebra::Expr::Kind::kScan:
      return true;
    case algebra::Expr::Kind::kSelect:
    case algebra::Expr::Kind::kProject:
    case algebra::Expr::Kind::kUnion: {
      for (const algebra::ExprRef& c : expr.children()) {
        if (!TreeIsMonotonePipeline(*c)) return false;
      }
      return true;
    }
    // Joins and difference are not per-row maintainable; Distinct loses
    // multiplicities; aggregates need group re-evaluation; Const would
    // leak its rows into delta evaluation.
    case algebra::Expr::Kind::kConst:
    case algebra::Expr::Kind::kJoin:
    case algebra::Expr::Kind::kDifference:
    case algebra::Expr::Kind::kDistinct:
    case algebra::Expr::Kind::kAggregate:
      return false;
  }
  return false;
}

// Removes one occurrence of each row of `rows` from `table`.
void RemoveRows(const std::vector<Tuple>& rows, algebra::Table* table) {
  for (const Tuple& row : rows) {
    for (auto it = table->rows.begin(); it != table->rows.end(); ++it) {
      if (*it == row) {
        table->rows.erase(it);
        break;
      }
    }
  }
}

Delta TableDelta(const std::string& name, const algebra::Table& before,
                 const algebra::Table& after) {
  // Set-semantics diff for notification purposes: sort + dedup both sides
  // once, then two linear set_difference passes — same enumeration order a
  // std::set rebuild produced (sorted), without the per-node allocations.
  std::vector<Tuple> b = before.rows;
  std::vector<Tuple> a = after.rows;
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::vector<Tuple> inserted;
  std::vector<Tuple> deleted;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::back_inserter(inserted));
  std::set_difference(b.begin(), b.end(), a.begin(), a.end(),
                      std::back_inserter(deleted));
  Delta delta;
  delta.inserts.DeclareRelation(name, after.columns.size());
  delta.deletes.DeclareRelation(name, before.columns.size());
  for (const Tuple& t : inserted) delta.inserts.InsertUnchecked(name, t);
  for (const Tuple& t : deleted) delta.deletes.InsertUnchecked(name, t);
  return delta;
}

}  // namespace

bool MaterializedView::IsIncrementallyMaintainable() const {
  return TreeIsMonotonePipeline(*view_);
}

Result<Delta> MaterializedView::Update(const Instance& new_base,
                                       const Delta& base_delta) {
  if (IsIncrementallyMaintainable()) {
    // Monotone pipeline over set-semantics bases: the view image of the
    // base inserts/deletes IS the view delta, row for row — O(|delta|),
    // never touching the rest of the view.
    MM2_ASSIGN_OR_RETURN(algebra::Table plus,
                         EvalOver(base_delta.inserts));
    MM2_ASSIGN_OR_RETURN(algebra::Table minus,
                         EvalOver(base_delta.deletes));
    RemoveRows(minus.rows, &current_);
    Delta delta;
    delta.inserts.DeclareRelation(name_, current_.columns.size());
    delta.deletes.DeclareRelation(name_, current_.columns.size());
    for (Tuple& row : plus.rows) {
      delta.inserts.InsertUnchecked(name_, row);
      current_.rows.push_back(std::move(row));
    }
    for (Tuple& row : minus.rows) {
      delta.deletes.InsertUnchecked(name_, std::move(row));
    }
    return delta;
  }
  algebra::Table before = std::move(current_);
  MM2_ASSIGN_OR_RETURN(current_, EvalOver(new_base));
  return TableDelta(name_, before, current_);
}

// ---------------------------------------------------------------------------
// UpdatePropagator
// ---------------------------------------------------------------------------

UpdatePropagator::UpdatePropagator(
    transgen::CompiledViews views,
    std::vector<modelgen::MappingFragment> fragments, model::Schema er,
    model::Schema relational)
    : views_(std::move(views)),
      fragments_(std::move(fragments)),
      er_(std::move(er)),
      relational_(std::move(relational)) {}

Result<std::optional<std::pair<std::string, Tuple>>> UpdatePropagator::RowFor(
    const modelgen::MappingFragment& fragment, const Tuple& entity) const {
  using RowOpt = std::optional<std::pair<std::string, Tuple>>;
  if (fragment.entity_set != views_.entity_set) return RowOpt{};
  const std::string& type = entity[0].str();
  if (std::find(fragment.types.begin(), fragment.types.end(), type) ==
      fragment.types.end()) {
    return RowOpt{};
  }
  const model::Relation* table = relational_.FindRelation(fragment.table);
  if (table == nullptr) {
    return Status::Internal("fragment table '" + fragment.table +
                            "' missing");
  }
  Tuple row;
  row.reserve(table->arity());
  for (const model::Attribute& column : table->attributes()) {
    if (column.name == fragment.discriminator_column) {
      row.push_back(entity[0]);
      continue;
    }
    const std::string* attr = nullptr;
    for (const auto& [a, c] : fragment.attribute_map) {
      if (c == column.name) attr = &a;
    }
    if (attr == nullptr) {
      row.push_back(Value::Null());
      continue;
    }
    std::size_t idx = layout_.ColumnIndex(*attr);
    if (idx == instance::EntitySetLayout::kNpos) {
      return Status::Internal("fragment attribute '" + *attr +
                              "' missing from layout");
    }
    row.push_back(entity[1 + idx]);
  }
  return std::make_optional(std::make_pair(fragment.table, std::move(row)));
}

Status UpdatePropagator::Initialize(const Instance& entities) {
  const model::EntitySet* set = er_.FindEntitySet(views_.entity_set);
  if (set == nullptr) {
    return Status::NotFound("entity set '" + views_.entity_set +
                            "' not in ER schema");
  }
  MM2_ASSIGN_OR_RETURN(layout_,
                       instance::ComputeEntitySetLayout(er_, *set));
  entities_ = entities;
  tables_ = Instance();
  MM2_RETURN_IF_ERROR(transgen::ApplyUpdateViews(views_, er_, relational_,
                                                 entities_, &tables_));
  // Build per-table row reference counts: how many entities produce each
  // materialized row (DISTINCT semantics need the count to know when a
  // row truly disappears).
  row_counts_.clear();
  const instance::RelationInstance* extent =
      entities_.Find(views_.entity_set);
  if (extent != nullptr) {
    for (const Tuple& entity : extent->tuples()) {
      for (const modelgen::MappingFragment& fragment : fragments_) {
        MM2_ASSIGN_OR_RETURN(auto row, RowFor(fragment, entity));
        if (row.has_value()) ++row_counts_[row->first][row->second];
      }
    }
  }
  return Status::OK();
}

Result<std::map<std::string, Delta>> UpdatePropagator::Apply(
    const EntityOp& op) {
  // 1. Apply the entity operation to the extent.
  switch (op.kind) {
    case EntityOp::Kind::kInsert:
      MM2_RETURN_IF_ERROR(entities_.Insert(views_.entity_set, op.entity));
      break;
    case EntityOp::Kind::kDelete:
      MM2_RETURN_IF_ERROR(entities_.Erase(views_.entity_set, op.entity));
      break;
  }
  // 2. Incremental propagation: only the fragments covering this entity's
  // type contribute rows; reference counts decide visibility transitions.
  std::map<std::string, Delta> deltas;
  for (const modelgen::MappingFragment& fragment : fragments_) {
    MM2_ASSIGN_OR_RETURN(auto row, RowFor(fragment, op.entity));
    if (!row.has_value()) continue;
    const std::string& table = row->first;
    std::map<Tuple, std::size_t>& counts = row_counts_[table];
    Delta& delta = deltas[table];
    if (op.kind == EntityOp::Kind::kInsert) {
      if (++counts[row->second] == 1) {
        if (!tables_.HasRelation(table)) {
          tables_.DeclareRelation(table, row->second.size());
        }
        tables_.InsertUnchecked(table, row->second);
        if (!delta.inserts.HasRelation(table)) {
          delta.inserts.DeclareRelation(table, row->second.size());
        }
        delta.inserts.InsertUnchecked(table, row->second);
      }
    } else {
      auto it = counts.find(row->second);
      if (it == counts.end() || it->second == 0) {
        return Status::Internal("row count underflow on table '" + table +
                                "'");
      }
      if (--it->second == 0) {
        counts.erase(it);
        MM2_RETURN_IF_ERROR(tables_.Erase(table, row->second));
        if (!delta.deletes.HasRelation(table)) {
          delta.deletes.DeclareRelation(table, row->second.size());
        }
        delta.deletes.InsertUnchecked(table, row->second);
      }
    }
  }
  // Drop empty deltas, notify the rest.
  for (auto it = deltas.begin(); it != deltas.end();) {
    if (it->second.Empty()) {
      it = deltas.erase(it);
    } else {
      for (const TableListener& listener : listeners_) {
        listener(it->first, it->second);
      }
      ++it;
    }
  }
  return deltas;
}

void UpdatePropagator::Subscribe(TableListener listener) {
  listeners_.push_back(std::move(listener));
}

// ---------------------------------------------------------------------------
// ErrorTranslator
// ---------------------------------------------------------------------------

ErrorTranslator::ErrorTranslator(
    std::vector<modelgen::MappingFragment> fragments)
    : fragments_(std::move(fragments)) {}

std::string ErrorTranslator::EntityAttributeFor(
    const std::string& table, const std::string& column) const {
  for (const modelgen::MappingFragment& f : fragments_) {
    if (f.table != table) continue;
    for (const auto& [attr, col] : f.attribute_map) {
      if (col == column) return attr;
    }
  }
  return "";
}

std::string ErrorTranslator::Translate(const std::string& table,
                                       const std::string& column,
                                       const std::string& message) const {
  std::string attr = EntityAttributeFor(table, column);
  if (attr.empty()) {
    return "error on table " + table + "." + column + ": " + message +
           " (no entity-level mapping)";
  }
  // Which entity types does this touch?
  std::string types;
  for (const modelgen::MappingFragment& f : fragments_) {
    if (f.table != table) continue;
    for (const std::string& t : f.types) {
      if (!types.empty()) types += ", ";
      types += t;
    }
  }
  return "error on attribute " + attr + " of {" + types + "} (stored in " +
         table + "." + column + "): " + message;
}

// ---------------------------------------------------------------------------
// Provenance
// ---------------------------------------------------------------------------

std::string ExplainFact(const chase::Provenance& provenance,
                        const chase::Fact& fact) {
  std::string lines;
  const std::size_t witnesses =
      provenance.VisitWitnesses(fact, [&lines](const chase::Witness& w) {
        lines += "  <-";
        for (const chase::Fact& f : w) {
          lines += ' ';
          lines += f.ToString();
        }
        lines += '\n';
      });
  if (witnesses == 0) return fact.ToString() + " has no recorded derivation";
  return fact.ToString() + " because:\n" + lines;
}

std::string ExplainFact(const chase::ChaseResult& result,
                        const chase::Fact& fact) {
  return ExplainFact(result.provenance, fact);
}

std::vector<chase::Fact> Lineage(const chase::Provenance& provenance,
                                 const chase::Fact& fact) {
  std::vector<chase::Fact> lineage;
  std::set<chase::Fact> seen;
  provenance.VisitWitnesses(fact, [&](const chase::Witness& w) {
    for (const chase::Fact& f : w) {
      if (seen.insert(f).second) lineage.push_back(f);
    }
  });
  return lineage;
}

std::vector<chase::Fact> Lineage(const chase::ChaseResult& result,
                                 const chase::Fact& fact) {
  return Lineage(result.provenance, fact);
}

// ---------------------------------------------------------------------------
// Exchange
// ---------------------------------------------------------------------------

Result<ExchangeResult> Exchange(const logic::Mapping& mapping,
                                const Instance& source,
                                const ExchangeOptions& options) {
  obs::ObsSpan span(options.obs, "exchange.run");
  span.SetAttribute("mapping", mapping.name());
  span.SetAttribute("source_tuples", source.TotalTuples());
  chase::ChaseOptions chase_options;
  chase_options.track_provenance = options.track_provenance;
  chase_options.wall_budget_us = options.wall_budget_us;
  chase_options.tuple_budget = options.tuple_budget;
  chase_options.rss_budget_kb = options.rss_budget_kb;
  chase_options.cancel = options.cancel;
  chase_options.obs = options.obs;
  MM2_ASSIGN_OR_RETURN(chase::ChaseResult chased,
                       chase::RunChase(mapping, source, chase_options));
  ExchangeResult result;
  result.stats = chased.stats;
  result.provenance = std::move(chased.provenance);
  result.breach = std::move(chased.breach);
  // A breached chase produced a partial (non-universal) solution; core
  // minimization of it would be wasted work on a wrong premise, so keep
  // the partial target as-is for post-mortem inspection.
  if (options.compute_core && !result.breach.has_value()) {
    result.pre_core_tuples = chased.target.TotalTuples();
    result.target =
        chase::ComputeCore(chased.target, options.obs, options.cancel);
  } else {
    result.target = std::move(chased.target);
  }
  span.SetAttribute("target_tuples", result.target.TotalTuples());
  if (result.breach.has_value()) {
    span.SetAttribute("breach", result.breach->kind);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Incremental exchange
// ---------------------------------------------------------------------------

namespace {

// The chase options of one session pass. The analysis pointer is taken
// afresh on every call because the session may have moved since the last.
chase::ChaseOptions SessionChaseOptions(const ExchangeSession& session) {
  const ExchangeOptions& options = session.options;
  chase::ChaseOptions copts;
  // Provenance is the deletion substrate; sessions always record it.
  copts.track_provenance = true;
  copts.analysis = &session.analysis;
  copts.wall_budget_us = options.wall_budget_us;
  copts.tuple_budget = options.tuple_budget;
  copts.rss_budget_kb = options.rss_budget_kb;
  copts.cancel = options.cancel;
  copts.obs = options.obs;
  return copts;
}

// True if any fact of any recorded unification witness is in `facts`.
bool JournalTouches(const std::vector<chase::Witness>& journal,
                    const std::vector<chase::Fact>& facts) {
  if (journal.empty() || facts.empty()) return false;
  std::vector<chase::Fact> sorted = facts;
  std::sort(sorted.begin(), sorted.end());
  for (const chase::Witness& witness : journal) {
    for (const chase::Fact& fact : witness) {
      if (std::binary_search(sorted.begin(), sorted.end(), fact)) return true;
    }
  }
  return false;
}

// Sets the `chase.provenance.*` gauges from the session's provenance store.
void MirrorProvenance(const ExchangeSession& session) {
  obs::Context* obs = session.options.obs;
  if (obs == nullptr) return;
  const chase::Provenance::Footprint f = session.provenance.footprint();
  obs::MetricsRegistry& m = obs->metrics;
  m.GetGauge("chase.provenance.facts").Set(static_cast<std::int64_t>(f.facts));
  m.GetGauge("chase.provenance.witnesses")
      .Set(static_cast<std::int64_t>(f.witnesses));
  m.GetGauge("chase.provenance.support_edges")
      .Set(static_cast<std::int64_t>(f.support_edges));
  m.GetGauge("chase.provenance.bytes").Set(static_cast<std::int64_t>(f.bytes));
}

void AdoptChaseResult(ExchangeSession* session, chase::ChaseResult chased) {
  session->target = std::move(chased.target);
  session->provenance = std::move(chased.provenance);
  session->last_stats = std::move(chased.stats);
  session->breach = std::move(chased.breach);
  MirrorProvenance(*session);
}

}  // namespace

Result<ExchangeSession> BeginExchangeSession(const logic::Mapping& mapping,
                                             instance::Instance source,
                                             const ExchangeOptions& options) {
  if (options.compute_core) {
    return Status::Unsupported(
        "incremental exchange maintains the canonical universal solution; "
        "the core is not delta-maintainable (use Exchange for one-shot core "
        "computation)");
  }
  ExchangeSession session;
  session.mapping = mapping;
  session.source = std::move(source);
  session.options = options;
  session.options.track_provenance = true;
  // Same span as Exchange: telemetry consumers see one "exchange.run" per
  // from-scratch chase, session-opening or not.
  obs::ObsSpan span(options.obs, "exchange.run");
  span.SetAttribute("mapping", mapping.name());
  span.SetAttribute("source_tuples", session.source.TotalTuples());
  session.analysis = analysis::AnalyzeMapping(session.mapping);
  MM2_ASSIGN_OR_RETURN(
      chase::ChaseResult chased,
      chase::ResumeChase(session.mapping, session.source,
                         Instance::EmptyFor(mapping.target()),
                         chase::Provenance{}, &session.state,
                         /*inserted=*/{}, /*net_change=*/nullptr,
                         SessionChaseOptions(session)));
  AdoptChaseResult(&session, std::move(chased));
  span.SetAttribute("target_tuples", session.target.TotalTuples());
  if (session.breach.has_value()) {
    span.SetAttribute("breach", session.breach->kind);
  }
  return session;
}

namespace {

Result<Delta> MaintainSession(ExchangeSession& session,
                              const Delta& source_delta) {
  const auto start = std::chrono::steady_clock::now();
  obs::Context* obs = session.options.obs;
  obs::ObsSpan span(obs, "exchange.maintain");
  span.SetAttribute("mapping", session.mapping.name());
  span.SetAttribute("delta_size", source_delta.Size());

  // A breached session holds a partial solution and a dead frontier;
  // resuming it would maintain the wrong baseline.
  const bool poisoned = session.breach.has_value() || !session.state.initialized;

  // Source deletions first (mirroring ApplyDelta), collecting the facts
  // actually removed — deletes of absent tuples are no-ops.
  std::vector<chase::Fact> dead;
  for (const auto& [name, rel] : source_delta.deletes.relations()) {
    for (const Tuple& t : rel.tuples()) {
      if (session.source.Erase(name, t).ok()) dead.push_back({name, t});
    }
  }

  // DRed, step 1: decide whether deletions are incrementally answerable.
  // A deleted fact that justified an egd/SO-equality unification licensed a
  // null merge we cannot cheaply unwind — rebuild instead.
  bool fallback = poisoned;
  std::vector<chase::Fact> candidates;  // the DRed over-estimate
  std::size_t counting_kept = 0;
  if (!fallback && !dead.empty()) {
    fallback = JournalTouches(session.state.unification_witnesses, dead);
  }
  if (!fallback && !dead.empty()) {
    // Step 2: prune the witnesses that read a dead fact, visiting only the
    // facts the support index lists for the dead set — O(|delta| * fanout),
    // never O(|target|). Session provenance is complete (probe-satisfied
    // triggers record witnesses too), so a fact left with no witness is
    // genuinely underivable and needs no re-derive chase; facts with a
    // surviving witness are kept with zero chase work (counting shortcut).
    chase::Provenance::Pruned pruned = session.provenance.Prune(dead);
    candidates = std::move(pruned.unsupported);
    counting_kept = pruned.kept;
    // An over-estimated fact that itself witnessed a unification forces the
    // rebuild too: erasing it would leave merged nulls unjustified.
    fallback = JournalTouches(session.state.unification_witnesses, candidates);
  }

  // Source insertions, listed for the resumed chase as its deltas
  // (idempotent: re-inserting a present tuple is a no-op and no delta).
  chase::RunDeltas inserted;
  std::size_t source_inserts = 0;
  for (const auto& [name, rel] : source_delta.inserts.relations()) {
    if (rel.empty()) continue;
    if (!session.source.HasRelation(name)) {
      session.source.DeclareRelation(name, rel.arity());
    }
    instance::RelationInstance* into = session.source.FindMutable(name);
    for (const Tuple& t : rel.tuples()) {
      if (t.size() != into->arity()) {
        return Status::InvalidArgument(
            "arity mismatch inserting into '" + name + "': got " +
            std::to_string(t.size()) + ", want " +
            std::to_string(into->arity()));
      }
      const Tuple* node = into->Insert(t);
      if (node == nullptr) continue;
      // The session's null counter must stay ahead of labels arriving via
      // the delta itself, or the resumed chase (which trusts the counter
      // instead of rescanning the instances) could re-invent one.
      for (const instance::Value& v : t) {
        if (v.is_labeled_null() && v.label() >= session.state.next_label) {
          session.state.next_label = v.label() + 1;
        }
      }
      inserted[into].push_back(node);
      ++source_inserts;
    }
  }

  Delta out;
  if (fallback) {
    // Wholesale path: re-chase the mutated source from scratch and report
    // the instance diff. Null labels are re-invented, so the diff may pair
    // a delete and an insert that differ only in labels.
    Instance old_target = std::move(session.target);
    session.state = chase::ChaseSessionState{};
    MM2_ASSIGN_OR_RETURN(
        chase::ChaseResult chased,
        chase::ResumeChase(session.mapping, session.source,
                           Instance::EmptyFor(session.mapping.target()),
                           chase::Provenance{}, &session.state,
                           /*inserted=*/{}, /*net_change=*/nullptr,
                           SessionChaseOptions(session)));
    AdoptChaseResult(&session, std::move(chased));
    out.inserts = session.target.Minus(old_target);
    out.deletes = old_target.Minus(session.target);
  } else {
    // Step 3: erase the over-estimate (seeding the net delta). Complete
    // provenance makes this a true deletion — nothing can re-derive an
    // erased fact, so no rule re-pass is scoped. The resumed chase matches
    // only the source insertions and what they derive (semi-naive deltas),
    // and re-checks egds against them.
    chase::FactDelta net;
    for (const chase::Fact& fact : candidates) {
      if (session.target.Erase(fact.relation, fact.tuple).ok()) {
        --net[fact];
      }
    }
    MM2_ASSIGN_OR_RETURN(
        chase::ChaseResult chased,
        chase::ResumeChase(session.mapping, session.source,
                           std::move(session.target),
                           std::move(session.provenance), &session.state,
                           std::move(inserted), &net,
                           SessionChaseOptions(session)));
    AdoptChaseResult(&session, std::move(chased));
    // Net counts collapse churn: a fact erased by DRed and re-derived (or
    // rewritten away and back by an egd) sums to zero and is not reported.
    for (const auto& [fact, count] : net) {
      if (count == 0) continue;
      Instance& side = count > 0 ? out.inserts : out.deletes;
      if (!side.HasRelation(fact.relation)) {
        side.DeclareRelation(fact.relation, fact.tuple.size());
      }
      side.InsertUnchecked(fact.relation, fact.tuple);
    }
  }

  ++session.maintains;
  if (fallback) ++session.fallbacks;
  if (obs != nullptr) {
    obs::MetricsRegistry& m = obs->metrics;
    m.GetCounter("chase.incremental.maintains").Increment();
    if (fallback) m.GetCounter("chase.incremental.fallbacks").Increment();
    m.GetCounter("chase.incremental.dred_candidates")
        .Increment(candidates.size());
    m.GetCounter("chase.incremental.dred_kept").Increment(counting_kept);
    m.GetCounter("chase.incremental.source_inserts").Increment(source_inserts);
    m.GetCounter("chase.incremental.source_deletes").Increment(dead.size());
    m.GetCounter("chase.incremental.target_inserts")
        .Increment(out.inserts.TotalTuples());
    m.GetCounter("chase.incremental.target_deletes")
        .Increment(out.deletes.TotalTuples());
    const auto elapsed = std::chrono::duration_cast<std::chrono::microseconds>(
        std::chrono::steady_clock::now() - start);
    m.GetCounter("chase.incremental.latency_us")
        .Increment(static_cast<std::uint64_t>(elapsed.count()));
  }
  span.SetAttribute("target_inserts", out.inserts.TotalTuples());
  span.SetAttribute("target_deletes", out.deletes.TotalTuples());
  span.SetAttribute("fallback", fallback ? 1 : 0);
  if (session.breach.has_value()) {
    span.SetAttribute("breach", session.breach->kind);
  }
  return out;
}

}  // namespace

Result<Delta> MaintainExchange(ExchangeSession& session,
                               const Delta& source_delta) {
  Result<Delta> out = MaintainSession(session, source_delta);
  if (!out.ok()) {
    // The source already holds (part of) the delta, and a failed chase took
    // the target and provenance down with it: nothing left is a resume
    // point. Empty the session and reset its frontier so the next call
    // rebuilds through the counted fallback path.
    session.target = Instance::EmptyFor(session.mapping.target());
    session.provenance = chase::Provenance{};
    session.state = chase::ChaseSessionState{};
    MirrorProvenance(session);
  }
  return out;
}

}  // namespace mm2::runtime
