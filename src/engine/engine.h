#ifndef MM2_ENGINE_ENGINE_H_
#define MM2_ENGINE_ENGINE_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "obs/obs.h"
#include "compose/compose.h"
#include "diff/diff.h"
#include "instance/instance.h"
#include "inverse/inverse.h"
#include "logic/mapping.h"
#include "match/matcher.h"
#include "merge/merge.h"
#include "model/schema.h"
#include "modelgen/modelgen.h"
#include "runtime/runtime.h"

namespace mm2::engine {

// The metadata repository behind the engine (Fig. 1's "Metadata
// Repository"): named, versioned schemas, mappings and instances.
class Repository {
 public:
  Status PutSchema(model::Schema schema);
  Status PutMapping(logic::Mapping mapping);
  Status PutInstance(std::string name, instance::Instance db);
  // Registers an instance without copying it. The owner may keep updating
  // it in place (the engine registers each incremental session's target
  // this way); readers see every update.
  Status PutInstance(std::string name,
                     std::shared_ptr<const instance::Instance> db);

  Result<model::Schema> GetSchema(const std::string& name) const;
  Result<logic::Mapping> GetMapping(const std::string& name) const;
  Result<instance::Instance> GetInstance(const std::string& name) const;
  // The stored instance itself, without the copy GetInstance makes;
  // nullptr when absent.
  std::shared_ptr<const instance::Instance> FindInstance(
      const std::string& name) const;

  bool HasSchema(const std::string& name) const;
  bool HasMapping(const std::string& name) const;
  bool HasInstance(const std::string& name) const;

  // Monotonically increasing per-name version (1 on first Put).
  std::size_t SchemaVersion(const std::string& name) const;
  std::size_t MappingVersion(const std::string& name) const;

  std::vector<std::string> SchemaNames() const;
  std::vector<std::string> MappingNames() const;
  std::vector<std::string> InstanceNames() const;

 private:
  std::map<std::string, model::Schema> schemas_;
  std::map<std::string, logic::Mapping> mappings_;
  std::map<std::string, std::shared_ptr<const instance::Instance>> instances_;
  std::map<std::string, std::size_t> schema_versions_;
  std::map<std::string, std::size_t> mapping_versions_;
};

// The model management engine: the operators of Sections 3-6 lifted onto
// repository names, plus a small line-oriented script language in the
// spirit of Rondo so evolution scenarios (Section 6) are runnable
// programs. Operator outputs are registered back into the repository.
class Engine {
 public:
  Engine() = default;

  Repository& repo() { return repo_; }
  const Repository& repo() const { return repo_; }

  // --- Observability -------------------------------------------------------
  // Every operator call runs under an `op.<name>` span and records
  // `op.<name>.calls` / `.errors` / `.latency_us` into the active context;
  // the chase/compose layers add their own `chase.*` / `compose.*`
  // telemetry underneath. By default the engine owns a private context
  // (inspect it via observability()); benches and tests attach their own
  // collector with SetObservability — no global state involved. Passing
  // nullptr reverts to the engine-owned context.
  void SetObservability(obs::Context* ctx) { obs_ = ctx; }
  obs::Context& observability() {
    if (obs_ != nullptr) return *obs_;
    if (owned_obs_ == nullptr) {
      owned_obs_ = std::make_unique<obs::Context>();
      // The engine-owned event log honors MM2_LOG=json|text|off (sink:
      // stderr). Externally attached contexts configure their own.
      owned_obs_->events.ConfigureFromEnv();
    }
    return *owned_obs_;
  }

  // Soft resource budgets applied to chase-backed commands (exchange);
  // 0 = unlimited. On a breach the chase stops gracefully: the partial
  // instance is still registered (suffixed diagnostics name the dominant
  // rule) and the command returns ResourceExhausted. Scripts set these via
  // `budget tuples|wall_us|rss_kb <n>` / `budget off`.
  void SetWallBudgetUs(std::uint64_t us) { budget_wall_us_ = us; }
  void SetTupleBudget(std::size_t tuples) { budget_tuples_ = tuples; }
  void SetRssBudgetKb(std::size_t kb) { budget_rss_kb_ = kb; }

  // --- Operators over repository names -----------------------------------
  Result<match::MatchResult> Match(const std::string& source_schema,
                                   const std::string& target_schema,
                                   const match::MatchOptions& options = {});

  // compose(out, m12, m23): registers the composed mapping as `out`.
  Status Compose(const std::string& out, const std::string& m12,
                 const std::string& m23);
  Status Invert(const std::string& out, const std::string& mapping);
  // Fagin (quasi-)inverse; fails when nothing is recoverable.
  Status ComputeInverse(const std::string& out, const std::string& mapping);
  // extract/diff(out_schema, out_mapping, mapping).
  Status Extract(const std::string& out_schema, const std::string& out_mapping,
                 const std::string& mapping);
  Status Diff(const std::string& out_schema, const std::string& out_mapping,
              const std::string& mapping);
  // merge(out_schema, left, right, correspondences).
  Status Merge(const std::string& out_schema, const std::string& out_to_left,
               const std::string& out_to_right, const std::string& left,
               const std::string& right,
               const std::vector<match::Correspondence>& correspondences);
  // modelgen(out_schema, out_mapping, er_schema, strategy).
  Status ModelGen(const std::string& out_schema,
                  const std::string& out_mapping, const std::string& er_schema,
                  modelgen::InheritanceStrategy strategy);
  // exchange(out_instance, mapping, source_instance). Also opens (or
  // replaces) the mapping's incremental session, so a later Maintain can
  // propagate source deltas without a full re-chase. `out_instance` is the
  // session's target itself, shared with the repository, not a copy.
  Status Exchange(const std::string& out_instance, const std::string& mapping,
                  const std::string& source_instance);
  // Queues one signed fact for the next Maintain: "+Rel(...)" inserts,
  // "-Rel(...)" deletes. The literal uses the same value syntax as `why`.
  Status ApplyDeltaFact(const std::string& literal);
  // Propagates the queued delta through the mapping's incremental session:
  // mutates the session's source, maintains its target in place (DRed +
  // resumed semi-naive chase) and returns the induced target delta. Cost is
  // the runtime's plus O(1): the output name is re-pointed at the session
  // target (restoring it if something else was stored there since), and
  // `why` answers from this session's provenance from now on. A failed
  // maintain leaves the session empty until the next one rebuilds it
  // (runtime::MaintainExchange). The queue is consumed either way.
  Result<runtime::Delta> Maintain(const std::string& mapping);
  // Compares two stored instances: "equal" (identical tuple sets),
  // "equal-up-to-nulls" (isomorphic modulo a labeled-null bijection), or
  // "different".
  Result<std::string> EqCheck(const std::string& a, const std::string& b);
  // batchload: like Exchange but through the compiled set-oriented loader
  // (Section 5 batch loading); fails for mappings outside the compilable
  // fragment (target egds, second order).
  Status BatchLoad(const std::string& out_instance,
                   const std::string& mapping,
                   const std::string& source_instance);
  // oogen(out_schema, out_mapping, relational_schema): wrapper generation.
  Status OoGen(const std::string& out_schema, const std::string& out_mapping,
               const std::string& relational_schema);
  // nestedgen(out_schema, out_mapping, relational_schema).
  Status NestedGen(const std::string& out_schema,
                   const std::string& out_mapping,
                   const std::string& relational_schema);

  // --- Script interface ----------------------------------------------------
  // Runs a newline-separated script; each line is one command:
  //   schema <name> ...              (must already be registered; checks)
  //   compose <out> <m12> <m23>
  //   invert <out> <m>
  //   inverse <out> <m>
  //   extract <outSchema> <outMap> <m>
  //   diff <outSchema> <outMap> <m>
  //   merge <outSchema> <outToLeft> <outToRight> <left> <right> [L.a=R.b ...]
  //   modelgen <outSchema> <outMap> <er> tph|tpt|tpc
  //   exchange <outInstance> <m> <sourceInstance>
  //   batchload <outInstance> <m> <sourceInstance>
  //   oogen <outSchema> <outMap> <relationalSchema>
  //   nestedgen <outSchema> <outMap> <relationalSchema>
  //   match <left> <right>
  //   stats [--json]                 (dump the metrics registry snapshot;
  //                                   --json emits one machine-readable
  //                                   line with the same metric names)
  //   explain [--json]               (ranked cost report: per-operator
  //                                   totals/quantiles, per-chase-rule
  //                                   attribution, strata, foresight, span
  //                                   phases; --json emits one
  //                                   machine-readable line)
  //   explain mapping <m> [--json|--dot]
  //                                  (static analysis of a stored mapping:
  //                                   rule-dependency + position graphs,
  //                                   strata, termination class, predicted
  //                                   chase bounds; --dot emits a graphviz
  //                                   digraph)
  //   trace <file>                   (enable tracing; Chrome trace_event
  //                                   JSON is written to <file> when the
  //                                   script finishes, even on error)
  //   log off|text|json [file]       (structured event log; default sink is
  //                                   stderr, or <file> when given. Also
  //                                   settable via MM2_LOG=json|text|off)
  //   log level debug|info|warn|error (drop events below the threshold;
  //                                   also settable via MM2_LOG_LEVEL)
  //   budget tuples|wall_us|rss_kb <n>   (soft chase budgets; `budget off`
  //                                   clears all three)
  //   why <Rel(v1,v2,...)>           (why-provenance of a target fact,
  //                                   read in place from the session of the
  //                                   last exchange or maintain; values use
  //                                   the instance literal syntax: 42, 4.5,
  //                                   "s", #t, null, N7, d:123)
  //   apply +Rel(...)|-Rel(...)      (queue a source insert/delete for the
  //                                   next maintain; same literal syntax
  //                                   as why)
  //   maintain <m>                   (propagate the queued delta through
  //                                   <m>'s incremental session — opened by
  //                                   the last `exchange` via <m> — whose
  //                                   target is the stored output instance)
  //   eqcheck <a> <b>                (compare stored instances: equal,
  //                                   equal-up-to-nulls, or different)
  // Blank lines and lines starting with '#' are skipped. Returns one log
  // line per executed command. When a command fails and the event log has
  // been recording, the flight-recorder dump (the last ring of events) is
  // appended to the error so the run-up to the failure travels with it.
  Result<std::vector<std::string>> RunScript(const std::string& script);

 private:
  Result<std::vector<std::string>> RunScriptImpl(const std::string& script);

  Repository repo_;
  obs::Context* obs_ = nullptr;              // attached collector, if any
  std::unique_ptr<obs::Context> owned_obs_;  // fallback, created lazily
  std::uint64_t budget_wall_us_ = 0;         // soft chase budgets; 0 = off
  std::size_t budget_tuples_ = 0;
  std::size_t budget_rss_kb_ = 0;
  // Incremental sessions keyed by mapping name (opened by Exchange), each
  // with the repository name its target is registered under.
  struct OpenSession {
    std::shared_ptr<runtime::ExchangeSession> session;
    std::string out;
  };
  std::map<std::string, OpenSession> sessions_;
  // The last exchanged or maintained session: `why` reads its provenance.
  // Shared, so a session replaced in sessions_ cannot dangle here.
  std::shared_ptr<const runtime::ExchangeSession> why_session_;
  // The queued source delta the next Maintain consumes.
  runtime::Delta pending_delta_;
};

}  // namespace mm2::engine

#endif  // MM2_ENGINE_ENGINE_H_
