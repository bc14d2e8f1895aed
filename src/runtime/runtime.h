#ifndef MM2_RUNTIME_RUNTIME_H_
#define MM2_RUNTIME_RUNTIME_H_

#include <functional>
#include <map>
#include <string>
#include <vector>

#include <optional>

#include "algebra/eval.h"
#include "chase/chase.h"
#include "common/result.h"
#include "instance/instance.h"
#include "logic/mapping.h"
#include "modelgen/modelgen.h"
#include "transgen/transgen.h"

namespace mm2::obs {
struct Context;
}

namespace mm2::runtime {

// ---------------------------------------------------------------------------
// Deltas
// ---------------------------------------------------------------------------

// A set-semantics change: tuples to insert and tuples to delete, per
// relation. The runtime services of Section 5 (update propagation,
// notifications, view maintenance) all speak deltas.
struct Delta {
  instance::Instance inserts;
  instance::Instance deletes;

  bool Empty() const;
  std::size_t Size() const;
  std::string ToString() const;
};

// after - before, per relation (relations present in either side).
Delta DiffInstances(const instance::Instance& before,
                    const instance::Instance& after);

// Applies a delta in place (deletes first, then inserts).
Status ApplyDelta(const Delta& delta, instance::Instance* db);

// ---------------------------------------------------------------------------
// Materialized views and notifications (Section 5: "Notifications" /
// "Data exchange")
// ---------------------------------------------------------------------------

// A materialized algebra view over a base database. Update() recomputes
// against a new base state and reports the view delta — the notification a
// target-side cache would receive. Selections, projections and unions are
// maintained incrementally from the base delta; other operators fall back
// to recompute-and-diff.
class MaterializedView {
 public:
  MaterializedView(std::string name, algebra::ExprRef view,
                   algebra::Catalog catalog);

  const std::string& name() const { return name_; }
  const algebra::Table& current() const { return current_; }

  // Full evaluation against `base`.
  Status Initialize(const instance::Instance& base);

  // Brings the view in line with `new_base`, given the delta from the
  // previously seen base state; returns the view-side delta.
  Result<Delta> Update(const instance::Instance& new_base,
                       const Delta& base_delta);

  // True if the view tree supports incremental maintenance (select /
  // project / union-all / distinct over a single scan pipeline).
  bool IsIncrementallyMaintainable() const;

 private:
  Result<algebra::Table> EvalOver(const instance::Instance& db) const;

  std::string name_;
  algebra::ExprRef view_;
  algebra::Catalog catalog_;
  algebra::Table current_;
};

// ---------------------------------------------------------------------------
// Update propagation through compiled views (Section 5: "Update
// propagation"; the ADO.NET client-view runtime)
// ---------------------------------------------------------------------------

// An object-at-a-time update on an entity set.
struct EntityOp {
  enum class Kind { kInsert, kDelete };
  Kind kind = Kind::kInsert;
  // Full entity tuple in layout order ($type first).
  instance::Tuple entity;
};

// Listener invoked with per-table deltas after each propagated update.
using TableListener =
    std::function<void(const std::string& table, const Delta& delta)>;

// Maintains an entity extent and its table images in lock-step: entity
// operations are translated through the mapping fragments into table
// deltas (which subscribers observe), keeping roundtripping intact
// throughout. Propagation is incremental — O(#fragments covering the
// entity's type) per operation, not O(|D|): a per-table row reference
// count (built once at Initialize) decides exactly when a DISTINCT view
// row appears or disappears.
class UpdatePropagator {
 public:
  UpdatePropagator(transgen::CompiledViews views,
                   std::vector<modelgen::MappingFragment> fragments,
                   model::Schema er, model::Schema relational);

  // Materializes the initial table state from `entities` and builds the
  // row reference counts.
  Status Initialize(const instance::Instance& entities);

  // Applies one entity operation; returns the per-table deltas.
  Result<std::map<std::string, Delta>> Apply(const EntityOp& op);

  void Subscribe(TableListener listener);

  const instance::Instance& entities() const { return entities_; }
  const instance::Instance& tables() const { return tables_; }

 private:
  // The table row fragment `f` stores for `entity`, or nullopt when the
  // fragment does not cover the entity's type.
  Result<std::optional<std::pair<std::string, instance::Tuple>>> RowFor(
      const modelgen::MappingFragment& fragment,
      const instance::Tuple& entity) const;

  transgen::CompiledViews views_;
  std::vector<modelgen::MappingFragment> fragments_;
  model::Schema er_;
  model::Schema relational_;
  instance::EntitySetLayout layout_;
  instance::Instance entities_;
  instance::Instance tables_;
  // table -> row -> number of entities producing it.
  std::map<std::string, std::map<instance::Tuple, std::size_t>> row_counts_;
  std::vector<TableListener> listeners_;
};

// ---------------------------------------------------------------------------
// Error translation (Section 5: "Errors")
// ---------------------------------------------------------------------------

// Rewrites a table-context error into entity-context terms using the
// mapping fragments: "Empl.Dept violates X" becomes "Employee.Dept (stored
// in table Empl, column Dept) violates X".
class ErrorTranslator {
 public:
  explicit ErrorTranslator(std::vector<modelgen::MappingFragment> fragments);

  // The entity-side name for a table column, or empty when unmapped.
  std::string EntityAttributeFor(const std::string& table,
                                 const std::string& column) const;

  // Full error translation with context.
  std::string Translate(const std::string& table, const std::string& column,
                        const std::string& message) const;

 private:
  std::vector<modelgen::MappingFragment> fragments_;
};

// ---------------------------------------------------------------------------
// Provenance (Section 5: "Provenance" / "Debugging")
// ---------------------------------------------------------------------------

// Renders the why-provenance of a target fact: each witness is the list of
// source facts that fired the deriving rule. The Provenance form reads a
// live map in place (the engine passes its session's).
std::string ExplainFact(const chase::Provenance& provenance,
                        const chase::Fact& fact);
std::string ExplainFact(const chase::ChaseResult& result,
                        const chase::Fact& fact);

// All source facts contributing to any derivation of `fact` (flattened
// witness union) — the "source data that contributed to a particular
// target data item".
std::vector<chase::Fact> Lineage(const chase::Provenance& provenance,
                                 const chase::Fact& fact);
std::vector<chase::Fact> Lineage(const chase::ChaseResult& result,
                                 const chase::Fact& fact);

// ---------------------------------------------------------------------------
// Data exchange convenience (the runtime's executor face)
// ---------------------------------------------------------------------------

struct ExchangeOptions {
  bool compute_core = false;   // minimize the universal solution
  bool track_provenance = false;
  // Chase evaluation strategy, passed straight through to ChaseOptions:
  // `naive` restores the rescan-everything oracle, `semi_naive` (default)
  // keeps delta-restricted re-matching on top of the compiled plans.
  bool naive = false;
  bool semi_naive = true;
  // Analyze the mapping (analysis::AnalyzeMapping) before chasing and run
  // the stratified scheduler: rules grouped into dependency strata, late
  // strata not matched until their inputs are live, quiescent strata
  // retired. Also arms termination foresight (a conservative tuple budget
  // when the classifier says potentially non-terminating and no explicit
  // budget is set). Off by default: the flat semi-naive chase is the
  // baseline and the analysis pass is not free.
  bool stratified = false;
  // Soft resource budgets, forwarded to ChaseOptions (0 = unlimited). On a
  // breach the chase stops gracefully and ExchangeResult::breach reports
  // why; core minimization is skipped for a partial solution.
  std::uint64_t wall_budget_us = 0;
  std::size_t tuple_budget = 0;
  std::size_t rss_budget_kb = 0;
  // External stop switch, forwarded to the chase and to ComputeCore.
  obs::CancelToken* cancel = nullptr;
  // Optional collector, threaded through to the chase (and core
  // minimization when enabled).
  obs::Context* obs = nullptr;
};

struct ExchangeResult {
  instance::Instance target;
  chase::ChaseStats stats;
  chase::Provenance provenance;
  std::size_t pre_core_tuples = 0;  // when compute_core
  // Set when a budget (or external cancel) stopped the chase early; target
  // and stats hold the partial state as of the last completed round.
  std::optional<chase::ChaseBreach> breach;
};

// Runs the mapping end to end: chase, optional core minimization,
// provenance. This is the "runtime that executes mappings" the revised
// vision adds as a first-class component.
Result<ExchangeResult> Exchange(const logic::Mapping& mapping,
                                const instance::Instance& source,
                                const ExchangeOptions& options = {});

// ---------------------------------------------------------------------------
// Incremental exchange (delta-driven target maintenance)
// ---------------------------------------------------------------------------

// A resumable exchange: the materialized target plus everything the chase
// needs to maintain it under source deltas without starting over — the
// semi-naive frontier (per-rule watermarks), the Skolem memo (so re-derived
// facts reuse the nulls they already invented), derivation witnesses (the
// DRed substrate for deletions), and the journal of facts that justified
// egd/SO-equality unifications (the cases incremental deletion cannot
// unwind in place).
struct ExchangeSession {
  logic::Mapping mapping;
  instance::Instance source;       // current source; deltas applied in place
  instance::Instance target;       // maintained canonical universal solution
  chase::Provenance provenance;    // fact -> derivation witnesses
  chase::ChaseSessionState state;  // watermarks, skolem memo, journal
  ExchangeOptions options;         // evaluation knobs reused per maintain
  chase::ChaseStats last_stats;    // stats of the most recent (re)chase
  // Set when the most recent run stopped on a budget breach or cancel; the
  // session then holds a partial solution and the next maintain falls back
  // to a from-scratch pass (the frontier was invalidated with it).
  std::optional<chase::ChaseBreach> breach;
  std::size_t maintains = 0;  // MaintainExchange calls served
  std::size_t fallbacks = 0;  // of which rebuilt via full re-chase
};

// Chases `source` from scratch and captures the resumable state. The
// session takes ownership of the source instance (deltas mutate it in
// place). Provenance tracking is always on — it is what makes deletions
// answerable — and compute_core is rejected: the core is not
// delta-maintainable, so incremental sessions maintain the canonical
// solution instead.
Result<ExchangeSession> BeginExchangeSession(const logic::Mapping& mapping,
                                             instance::Instance source,
                                             const ExchangeOptions& options = {});

// Applies a source delta to the session and maintains the target, returning
// the induced target delta (what changed in the materialized solution).
//
// Insertions ride the semi-naive frontier: new source tuples land above the
// per-rule watermarks, so the resumed chase re-matches only assignments
// that bind at least one new tuple. Deletions prune recorded witnesses via
// the session's source->target support index, visiting only facts the dead
// tuples actually support — O(|delta| * fanout), never O(|target|). Session
// provenance is complete (the chase books a witness for probe-satisfied
// triggers too, not just firings), so a fact whose witnesses all died is
// genuinely underivable and is erased outright — no re-derive chase pass
// exists; facts with a surviving witness are kept without any chase work
// (the counting shortcut — witnesses here are exactly the surviving
// derivations). When a deleted (or over-estimated) fact justified an egd or
// SO-equality unification, the null merge it licensed cannot be cheaply
// unwound, so the maintain falls back to a full re-chase (counted in
// `fallbacks`; the returned delta is then the wholesale instance diff).
//
// Budgets and the CancelToken in the session's options apply to the resumed
// chase exactly as they do to Exchange.
//
// On error (e.g. an egd equating two constants) the source keeps the delta
// applied so far, while the target and provenance are emptied and the
// frontier reset: the next call then rebuilds from scratch and counts a
// fallback.
Result<Delta> MaintainExchange(ExchangeSession& session,
                               const Delta& source_delta);

}  // namespace mm2::runtime

#endif  // MM2_RUNTIME_RUNTIME_H_
