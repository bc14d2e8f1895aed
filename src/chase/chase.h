#ifndef MM2_CHASE_CHASE_H_
#define MM2_CHASE_CHASE_H_

#include <cstdint>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "chase/plan.h"
#include "chase/provenance.h"
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

// The matches of a conjunctive atom list: `count` frames of slots.size()
// values, one per match, each slot holding the value its variable (named by
// `slots`) took.
struct Matches {
  SlotMap slots;
  std::vector<instance::Value> rows;
  std::size_t count = 0;

  const instance::Value* row(std::size_t i) const {
    return rows.data() + i * slots.size();
  }
};

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
// order. Every variable (function arguments included) has a slot, in name
// order.
Matches MatchAtoms(const std::vector<logic::Atom>& atoms,
                   const instance::Instance& database, std::size_t limit = 0);

// The original nested-loop matcher, kept as the differential-testing oracle
// (`ChaseOptions::naive` routes the whole chase through it): atoms in the
// order given, each a walk of its relation's set. Same contract and slots
// as MatchAtoms; never touches indexes or runs.
Matches MatchAtomsNaive(const std::vector<logic::Atom>& atoms,
                        const instance::Instance& database,
                        std::size_t limit = 0);

// A term under a match frame: a value, or a ground Skolem term (an
// unknown existential; ground Skolem terms compare structurally). Nullopt
// when a variable has no slot.
std::optional<logic::Term> GroundTerm(const logic::Term& term,
                                      const SlotMap& slots,
                                      const instance::Value* frame);

struct ChaseOptions {
  // Upper bound on chase rounds; exceeding it is an error (the tgd sets the
  // engine generates are weakly acyclic, so this is a safety net).
  std::size_t max_rounds = 10000;
  // Record why-provenance for every derived fact.
  bool track_provenance = false;
  // Refuse (Unsupported) first-order rule sets that are not weakly
  // acyclic, instead of running into max_rounds. s-t tgd mappings are
  // always weakly acyclic; this matters for intra-schema closures.
  bool require_weak_acyclicity = false;
  // Evaluation strategy. `naive` restores the original rescan-everything
  // nested-loop executor — the oracle path for differential testing; it
  // never probes indexes, consults deltas or seals its result. Otherwise
  // matching runs compiled plans: a rule's first pass matches in full, and
  // every later pass only the assignments where at least one body atom
  // binds a tuple from that relation's delta (the tuples that arrived in it
  // during the run since the rule's last pass; see RunDeltas). Either way
  // the chase reads and writes the sets only; a chase from an empty
  // frontier seals its finished target once on publish
  // (RelationInstance::PrepareSegments).
  bool naive = false;
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
  // --- Termination foresight (opt-in) ------------------------------------
  // An attached `analysis` (AnalyzeMapping for RunChase and ResumeChase,
  // AnalyzeClosure for ChaseInstance) changes no match and no firing. The
  // run stamps its verdict and its round bound at the input's active
  // domain into ChaseStats::predicted_*, mirrored as `chase.foresight.*`.
  // When it classifies the rule set as potentially non-terminating and the
  // caller armed no budget or cancel token, the chase auto-arms a
  // conservative tuple budget (watchdog semantics: graceful stop with
  // partial results) and emits a `chase.foresight` warning event. The
  // chase never builds an analysis itself. Not owned; must outlive the
  // call.
  const analysis::MappingAnalysis* analysis = nullptr;
  // Inert: nothing reads it. It stays declared only because the mm2bench
  // workloads still set it; remove it with them.
  bool stratified = false;
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
};

struct ChaseStats {
  std::size_t rounds = 0;
  std::size_t tgd_firings = 0;
  std::size_t nulls_created = 0;
  std::size_t egd_unifications = 0;
  // Body assignments found across all rule-matching calls (the quantity
  // that dominates chase cost).
  std::size_t assignments_matched = 0;
  // Storage-layer telemetry for this run: the hash probes its match plans
  // made, counted by the plans themselves. Zero on the naive path.
  std::uint64_t index_probes = 0;
  std::uint64_t index_probe_hits = 0;
  std::uint64_t index_builds = 0;
  // Semi-naive bookkeeping: delta tuples fed to re-match passes (round 1
  // counts the whole extension — everything is delta initially), and
  // rule-round matchings skipped outright because every body delta was
  // empty.
  std::size_t delta_tuples = 0;
  std::size_t delta_skips = 0;
  // Sealed-run telemetry, mirrored as `storage.segment.*` and counted like
  // index_probes: the seal on publish, plus the reads of runs the input
  // already held (prefix ranges and path-3 scans).
  instance::SegmentOpStats segment;
  // Relations holding a current run when the run ended (the target and, in
  // exchange mode, the source).
  instance::SegmentShape segment_shape;
  // Foresight telemetry, mirrored as `chase.foresight.*`. Left at these
  // defaults (and the metric family unmaterialized) unless ChaseOptions
  // attached an analysis.
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
// yields an Inconsistent error. The chase is restricted (standard): a
// trigger whose head is already satisfied in the target fires nothing.
Result<ChaseResult> RunChase(const logic::Mapping& mapping,
                             const instance::Instance& source,
                             const ChaseOptions& options = {});

// ---- Incremental maintenance ---------------------------------------------
// The tuples that arrived in each relation during one chase run, in arrival
// order, keyed by the relation's handle: the run's semi-naive deltas. A
// rule's next delta starts at its position in each list; a tuple erased
// during the run leaves a nullptr entry, so positions never shift. The
// lists live only as long as the run. At a fixpoint every rule has
// consumed its lists to the end, so a resumed run starts every rule at
// position 0 of lists seeded with the source tuples inserted since.
using RunDeltas = std::unordered_map<const instance::RelationInstance*,
                                     std::vector<const instance::Tuple*>>;

// Chase state that survives a finished run, so a later call can resume
// the fixpoint instead of re-deriving the whole target. Captured/restored by
// ResumeChase; owned by the caller (runtime::ExchangeSession) between calls.
struct ChaseSessionState {
  // Set when a run reached its fixpoint, so every rule has matched in full.
  bool initialized = false;
  // The rule count (SO-clauses, tgds and egds) the state was captured for;
  // a run over a different rule set starts fresh.
  std::size_t rules = 0;
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
// first chase that additionally captures the resume state and ignores
// `inserted`; with an initialized one, `inserted` lists the tuples
// inserted into `source` since the state was exported (nodes of its
// relations), and only assignments that bind at least one of them, or a
// fact the run derives, are matched. `target` and `provenance` carry the
// previous call's result back in; a session's provenance also holds its
// support index. `net_change`, when non-null, accumulates the run's
// target-side fact delta. Forces provenance tracking (the DRed substrate);
// a breach leaves `state` uninitialized since the partial fixpoint is not
// resumable.
Result<ChaseResult> ResumeChase(const logic::Mapping& mapping,
                                const instance::Instance& source,
                                instance::Instance target,
                                Provenance provenance,
                                ChaseSessionState* state,
                                RunDeltas inserted,
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
