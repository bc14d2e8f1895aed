#ifndef MM2_CHASE_CHASE_H_
#define MM2_CHASE_CHASE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "instance/instance.h"
#include "logic/formula.h"
#include "logic/mapping.h"

namespace mm2::obs {
struct Context;
class CancelToken;
}

namespace mm2::analysis {
struct MappingAnalysis;
}

namespace mm2::chase {

// A variable assignment produced by matching atoms against an instance.
using Assignment = std::map<std::string, instance::Value>;

// Finds every assignment of the variables in `atoms` such that each atom's
// image is a tuple of `database`. Constants in atoms must match exactly;
// repeated variables enforce equality. This is the workhorse behind tgd
// application and conjunctive-query evaluation. `limit` bounds the number
// of results (0 = unlimited).
//
// Runs one compiled match plan (chase/plan.h): atoms are joined
// most-bound-first, each depth reading the relation through the access path
// its bound columns allow (sorted-prefix ranges, an ordered range over a
// bound leading column, a constant-checking scan, or the hash index) in set
// order. Matches become Assignments only on return.
std::vector<Assignment> MatchAtoms(const std::vector<logic::Atom>& atoms,
                                   const instance::Instance& database,
                                   std::size_t limit = 0);

// The original nested-loop matcher, kept verbatim as the differential-
// testing oracle (`ChaseOptions::naive` routes the whole chase through it).
// Same contract as MatchAtoms; never touches indexes.
std::vector<Assignment> MatchAtomsNaive(const std::vector<logic::Atom>& atoms,
                                        const instance::Instance& database,
                                        std::size_t limit = 0);

// A fact is a (relation, tuple) pair; a witness is the list of source facts
// that fired the rule deriving a target fact (why-provenance, Section 5).
struct Fact {
  std::string relation;
  instance::Tuple tuple;

  bool operator==(const Fact&) const = default;
  bool operator<(const Fact& other) const {
    if (relation != other.relation) return relation < other.relation;
    return tuple < other.tuple;
  }
  std::string ToString() const;
};

using Witness = std::vector<Fact>;

// Why-provenance: every target fact maps to the witnesses that derived it.
class Provenance {
 public:
  void Record(const Fact& target, Witness witness);
  const std::vector<Witness>* WitnessesOf(const Fact& target) const;
  // Applies a value rewrite (null unification from an egd step) to both
  // sides of the provenance map.
  void RewriteValue(const instance::Value& from, const instance::Value& to);
  std::size_t size() const { return map_.size(); }

  // Full derivation map, fact -> recorded witnesses. The mutable overload
  // exists for incremental maintenance (DRed prunes dead witnesses and
  // drops unsupported facts in place); everything else should read.
  const std::map<Fact, std::vector<Witness>>& entries() const { return map_; }
  std::map<Fact, std::vector<Witness>>& mutable_entries() { return map_; }

 private:
  std::map<Fact, std::vector<Witness>> map_;
};

struct ChaseOptions {
  // Upper bound on chase rounds; exceeding it is an error (the tgd sets the
  // engine generates are weakly acyclic, so this is a safety net).
  std::size_t max_rounds = 10000;
  // Restricted (standard) chase: fire a tgd only when its head is not
  // already satisfied. The unrestricted variant is exposed for tests.
  bool restricted = true;
  // First label to use for invented nulls.
  std::int64_t first_null_label = 0;
  // Trust first_null_label outright instead of scanning source and target
  // for the max existing label (an O(|instance|) sweep). Set by resumed
  // sessions, which carry the counter across calls — the sweep would
  // otherwise dominate a delta-sized maintenance pass.
  bool trust_first_null_label = false;
  // Record why-provenance for every derived fact.
  bool track_provenance = false;
  // Refuse (Unsupported) first-order rule sets that are not weakly
  // acyclic, instead of running into max_rounds. s-t tgd mappings are
  // always weakly acyclic; this matters for intra-schema closures.
  bool require_weak_acyclicity = false;
  // Evaluation strategy. `naive` restores the original rescan-everything
  // nested-loop executor — the oracle path for differential testing; it
  // never probes indexes, consults deltas or seals its result. Otherwise
  // matching runs compiled plans, and `semi_naive` (the default)
  // additionally restricts a rule's re-match after its first full pass to
  // assignments where at least one body atom binds a tuple from that
  // relation's delta set (tuples inserted since the rule's per-relation
  // watermark). Either way the chase reads and writes the set and the
  // insert log only; a chase from an empty frontier seals its finished
  // target once on publish (RelationInstance::PrepareSegments).
  bool naive = false;
  bool semi_naive = true;
  // --- Resource budgets (the watchdog; 0 = unlimited) --------------------
  // Soft limits checked at every round boundary. On breach the chase stops
  // *gracefully*: Run returns OK with ChaseResult::breach describing which
  // budget tripped and which rule dominated the run, and with partial
  // target/stats/provenance intact — a runaway mapping (tgds under target
  // constraints can legitimately diverge) yields diagnostics instead of
  // burning a core until max_rounds hard-errors.
  std::uint64_t wall_budget_us = 0;  // wall time since Run started
  std::size_t tuple_budget = 0;      // tuples derived into the target
  std::size_t rss_budget_kb = 0;     // VmRSS watermark of the process
  // --- Mapping introspection / stratified scheduling (opt-in) ------------
  // When `stratified` is set (or an `analysis` is attached), rules are
  // scheduled along the analysis' stratification instead of being matched
  // flat every round. Two provably output-identical skips apply:
  //   * retirement (all modes): once a stratum and its whole upstream cone
  //     are quiescent, its rules are never matched again — the skipped
  //     passes would have been empty delta-checks;
  //   * late activation (data-exchange mode only): a rule whose stratum
  //     still has non-quiescent upstream strata is not matched until the
  //     stratum activates. In exchange mode tgd/SO strata have no upstream
  //     (bodies read the immutable source), so only egds are deferred, and
  //     they first run against exactly the state the flat schedule shows
  //     them — instances, firing counters, and null naming stay
  //     bit-identical to the flat semi-naive chase. Closure mode gets
  //     retirement only, for the same bit-identity guarantee.
  // The skipped passes are reported as ChaseStats::strata_skips_* and the
  // `chase.strata.*` metric family; RuleStats and the heartbeat events
  // carry stratum labels. `analysis` must describe exactly the rule set
  // being chased (AnalyzeMapping for RunChase, AnalyzeClosure for
  // ChaseInstance; a mismatched rule count disables scheduling). Not
  // owned; must outlive the call. When `stratified` is set with a null
  // `analysis`, the chase computes one itself.
  //
  // Foresight: when the (provided or computed) analysis classifies the
  // rule set as potentially non-terminating and the caller armed no
  // budget or cancel token, the chase auto-arms a conservative tuple
  // budget (watchdog semantics: graceful stop with partial results) and
  // emits a `chase.foresight` warning event.
  bool stratified = false;
  const analysis::MappingAnalysis* analysis = nullptr;
  // Optional external stop switch (a server admission controller, a test).
  // The chase polls it at round boundaries and inside the match path;
  // budget breaches trip the same token, so every layer unwinds through
  // one mechanism. May outlive the call site's ChaseOptions copy
  // semantics: not owned.
  obs::CancelToken* cancel = nullptr;
  // Optional collector: when set, the chase opens a `chase.run` span with
  // one `chase.round` child per round, emits a `chase.heartbeat` event and
  // refreshes the `chase.progress.*` gauges every round, and mirrors
  // ChaseStats into the registry's `chase.*` counters on completion.
  obs::Context* obs = nullptr;
};

// Why a chase stopped before reaching its fixpoint: the breached budget (or
// "cancel" for an external stop), the limit and the observed value, plus
// the dominant rule by attributed wall time — the first thing to look at
// when a mapping runs away. `diagnostic` is the full human-readable report,
// including the flight-recorder dump when an event log was attached.
struct ChaseBreach {
  std::string kind;  // "tuples" | "wall_us" | "rss_kb" | "cancel"
  std::uint64_t limit = 0;
  std::uint64_t observed = 0;
  std::size_t round = 0;          // round boundary where the stop landed
  std::string dominant_rule;      // label of the costliest RuleStats entry
  std::string diagnostic;
};

// Per-constraint cost attribution: one entry per SO-clause/tgd/egd, in the
// order the chase iterates them. `label` is compact and metric-name-safe
// (e.g. "tgd0:Data->Left+Right"), so it doubles as the key segment of the
// mirrored `chase.rule.<label>.*` metrics that `explain` reads back.
struct RuleStats {
  std::string label;
  double wall_us = 0;               // time spent matching + firing this rule
  std::size_t triggers_tested = 0;  // body assignments examined
  std::size_t firings = 0;          // tgd firings (or egd unifications)
  std::size_t nulls_created = 0;
  std::size_t unifications = 0;
  std::size_t rounds_active = 0;    // rounds in which the rule changed state
  std::vector<double> round_us;     // wall time per chase round, in order
  int stratum = -1;                 // analysis stratum (-1: not stratified)
};

struct ChaseStats {
  std::size_t rounds = 0;
  std::size_t tgd_firings = 0;
  std::size_t nulls_created = 0;
  std::size_t egd_unifications = 0;
  // Body assignments found across all rule-matching calls (the quantity
  // that dominates chase cost).
  std::size_t assignments_matched = 0;
  // Storage-layer telemetry for this run, diffed from the instances'
  // cumulative IndexStats around Run(). Zero on the naive path.
  std::uint64_t index_probes = 0;
  std::uint64_t index_probe_hits = 0;
  std::uint64_t index_builds = 0;
  // Semi-naive bookkeeping: delta tuples fed to re-match passes (round 1
  // counts the whole extension — everything is delta initially), and
  // rule-round matchings skipped outright because every body delta was
  // empty.
  std::size_t delta_tuples = 0;
  std::size_t delta_skips = 0;
  // Sealed-run telemetry, mirrored as `storage.segment.*` and diffed from
  // the instances' cumulative SegmentOpStats around Run() (like
  // index_probes): the seal on publish, plus prefix probes served by runs
  // the source already held.
  instance::SegmentOpStats segment;
  // Relations holding a current run when the run ended (the target and, in
  // exchange mode, the source).
  instance::SegmentShape segment_shape;
  // Stratified-scheduling + foresight telemetry, mirrored as
  // `chase.strata.*` / `chase.foresight.*`. All zero (and the metric
  // families stay unmaterialized) unless ChaseOptions enabled the
  // scheduler.
  std::size_t strata_count = 0;
  std::size_t strata_skips_inactive = 0;  // passes deferred pre-activation
  std::size_t strata_skips_retired = 0;   // passes skipped after retirement
  std::uint64_t predicted_rounds = 0;     // analysis bound at this input
  bool predicted_terminating = true;
  bool foresight_armed = false;           // auto-armed conservative budget
  // Filled on every run; the profiler's per-constraint attribution source.
  std::vector<RuleStats> rules;
};

struct ChaseResult {
  instance::Instance target;
  ChaseStats stats;
  Provenance provenance;
  // Set when a resource budget (or an external CancelToken) stopped the
  // run before the fixpoint; target/stats/provenance hold the partial
  // state as of the last completed round.
  std::optional<ChaseBreach> breach;
};

// Runs the data-exchange chase: starting from `source`, fires the mapping's
// constraints to build a target instance that is a *universal solution* —
// labeled nulls stand for unknown existential values (Section 4). Works for
// both first-order mappings (s-t tgds) and second-order ones: function
// terms are interpreted by inventing one labeled null per distinct
// (function, arguments) combination, which is exactly the Skolem semantics.
// Target egds are then chased to enforce keys; two constants forced equal
// yields an Inconsistent error.
Result<ChaseResult> RunChase(const logic::Mapping& mapping,
                             const instance::Instance& source,
                             const ChaseOptions& options = {});

// ---- Incremental maintenance ---------------------------------------------
// Semi-naive chase state that survives a finished run, so a later call can
// resume matching where the last one stopped instead of re-deriving the
// whole target. Captured/restored by ResumeChase; owned by the caller
// (runtime::ExchangeSession) between calls.
struct ChaseSessionState {
  bool initialized = false;
  // Indexed like ChaseStats::rules (SO-clauses, then tgds, then egds): each
  // rule's per-relation insert-log watermark as of its last committed pass,
  // and whether its first full pass has completed.
  std::vector<std::map<std::string, std::size_t, std::less<>>> watermarks;
  std::vector<bool> matched_once;
  // Complete support index: source fact -> target facts holding a recorded
  // witness containing it. Session chases book a witness on EVERY
  // supporting trigger — fired or probe-satisfied — so after deletion
  // maintenance prunes dead witnesses, a target fact with zero remaining
  // witnesses is genuinely underivable and no re-derive chase pass is
  // needed. Egd unification rewrites the target-side fact names in place.
  std::map<Fact, std::vector<Fact>> dependents;
  // Skolem interpretation table: (function, args) -> labeled null. Kept so
  // a resumed SO chase reuses the same null for the same Skolem term.
  std::map<std::pair<std::string, std::vector<instance::Value>>,
           instance::Value>
      skolem;
  // Next fresh labeled-null label; resumed runs continue the sequence.
  std::int64_t next_label = 0;
  // Body facts that justified each null unification (egd firings and
  // SO-premise equalities). A deletion touching any of these could demand
  // un-merging nulls, which DRed cannot do cheaply — MaintainExchange
  // detects the overlap and falls back to a full re-chase.
  std::vector<Witness> unification_witnesses;
};

// Net target-side change of a resumed run: fact -> (+inserts - erases).
// Egd rewrite churn (erase + reinsert of untouched facts) cancels out, so
// after a run, entries > 0 are genuine target inserts and entries < 0
// genuine target deletes.
using FactDelta = std::map<Fact, int>;

// Runs the data-exchange chase like RunChase, but resuming from (and
// re-exporting into) `state`: with an uninitialized state this is a full
// first chase that additionally captures the resume state; with an
// initialized one only assignments binding at least one tuple above the
// per-rule watermarks are re-matched. `target` and `provenance` carry the
// previous call's result back in. `net_change`, when non-null, accumulates
// the run's target-side fact delta. Forces provenance tracking (the DRed
// substrate); a breach leaves `state` uninitialized since the partial
// fixpoint is not resumable.
Result<ChaseResult> ResumeChase(const logic::Mapping& mapping,
                                const instance::Instance& source,
                                instance::Instance target,
                                Provenance provenance,
                                ChaseSessionState* state,
                                FactDelta* net_change,
                                const ChaseOptions& options = {});

// Chases a set of (same-schema) tgds/egds over `database` in place-style:
// used for closing an instance under its own constraints.
Result<ChaseResult> ChaseInstance(const std::vector<logic::Tgd>& tgds,
                                  const std::vector<logic::Egd>& egds,
                                  const instance::Instance& database,
                                  const ChaseOptions& options = {});

// Evaluates a conjunctive query over a (possibly null-carrying) instance
// with naive-table semantics and returns the *certain answers*: result rows
// containing a labeled null are dropped (Section 4's "not allowed to be
// returned as part of the answer").
Result<std::vector<instance::Tuple>> CertainAnswers(
    const logic::ConjunctiveQuery& query, const instance::Instance& database);

// All answers including null-carrying rows (the "possible" answers).
Result<std::vector<instance::Tuple>> AllAnswers(
    const logic::ConjunctiveQuery& query, const instance::Instance& database);

// True if there is a homomorphism from `from` to `to`: constants map to
// themselves, labeled nulls may map to anything, tuples map into `to`.
// Universality of a chase result is exactly "it has a homomorphism into
// every solution"; tests use this directly.
bool ExistsHomomorphism(const instance::Instance& from,
                        const instance::Instance& to);

// Greedy core computation: repeatedly looks for a proper retraction that
// maps some labeled null onto another value while keeping the instance
// within itself, and applies it. For chase results of s-t tgd mappings this
// reaches the core (the smallest universal solution, "getting to the
// core"). Returns the retracted instance. When `obs` is set, emits a
// `chase.core` span and counts applied retractions as
// `chase.core_iterations`. `cancel` is the cooperative stop switch: polled
// between retraction searches, and on request the current (valid but
// possibly non-minimal) instance is returned immediately.
instance::Instance ComputeCore(const instance::Instance& database,
                               obs::Context* obs = nullptr,
                               const obs::CancelToken* cancel = nullptr);

// Refreshes the `value.intern.*` / `value.bytes_per_value` gauges in `obs`
// from the process-wide StringPool. Called after every chase run and by the
// engine's stats/explain commands so reports always see current pool state.
// No-op when `obs` is null.
void MirrorValueStats(obs::Context* obs);

}  // namespace mm2::chase

#endif  // MM2_CHASE_CHASE_H_
