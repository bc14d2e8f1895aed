#include "chase/chase.h"

#include "analysis/analysis.h"
#include "chase/plan.h"
#include "common/strings.h"
#include "logic/acyclicity.h"
#include "obs/obs.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <functional>
#include <limits>
#include <optional>

namespace mm2::chase {

using instance::Instance;
using instance::Tuple;
using instance::Value;
using logic::Atom;
using logic::Term;

namespace {

// The naive oracle's nested loops: atoms in the order given, each a walk of
// its relation's set, binding the slots of `frame` that `bound` does not
// flag. Appends the first `stride` values of each match's frame to `*rows`,
// stopping after `limit` matches (0 = all).
struct NaiveMatch {
  const std::vector<Atom>& atoms;
  const SlotMap& slots;
  const Instance& database;
  Value* frame;
  std::vector<char> bound;  // per slot
  std::size_t stride;
  std::vector<Value>* rows;
  std::size_t limit;
  std::size_t count = 0;

  // Binds `atom` onto `tuple`: constants must match, bound slots must
  // agree, and unbound slots take the tuple's value (listed in
  // `newly_bound`). Function terms never match.
  bool Bind(const Atom& atom, const Tuple& tuple,
            std::vector<Slot>* newly_bound) {
    if (atom.terms.size() != tuple.size()) return false;
    for (std::size_t i = 0; i < tuple.size(); ++i) {
      const Term& term = atom.terms[i];
      if (term.is_constant()) {
        if (!(term.value() == tuple[i])) return false;
        continue;
      }
      const Slot slot = term.is_variable() ? slots.Find(term.name()) : kNoSlot;
      if (slot == kNoSlot) return false;
      if (bound[slot]) {
        if (!(frame[slot] == tuple[i])) return false;
      } else {
        frame[slot] = tuple[i];
        bound[slot] = 1;
        newly_bound->push_back(slot);
      }
    }
    return true;
  }

  void Rec(std::size_t index) {
    if (index == atoms.size()) {
      rows->insert(rows->end(), frame, frame + stride);
      ++count;
      return;
    }
    const instance::RelationInstance* rel =
        database.Find(atoms[index].relation);
    if (rel == nullptr) return;
    std::vector<Slot> newly_bound;
    for (const Tuple& tuple : rel->tuples()) {
      if (Bind(atoms[index], tuple, &newly_bound)) Rec(index + 1);
      for (Slot slot : newly_bound) bound[slot] = 0;
      newly_bound.clear();
      if (limit != 0 && count >= limit) return;
    }
  }
};

// Runs the oracle over `atoms` with slots [0, inputs) of `frame` bound and
// returns the match count.
std::size_t MatchNaive(const std::vector<Atom>& atoms, const SlotMap& slots,
                       Slot inputs, const Instance& database, Value* frame,
                       std::size_t stride, std::vector<Value>* rows,
                       std::size_t limit) {
  NaiveMatch match{atoms, slots, database, frame,
                   std::vector<char>(slots.size(), 0), stride, rows, limit};
  std::fill_n(match.bound.begin(), inputs, 1);
  match.Rec(0);
  return match.count;
}

// Every variable of `atoms` (function arguments included), one slot each in
// name order.
SlotMap SlotsOf(const std::vector<Atom>& atoms) {
  std::set<std::string> vars;
  for (const Atom& atom : atoms) atom.CollectVariables(&vars);
  SlotMap slots;
  slots.Add(vars);
  return slots;
}

// Runs an unseeded plan over `atoms`: the shared body of MatchAtoms,
// certain-answer queries and homomorphism tests. Returns the match count;
// `*rows` holds that many frames of `slots.size()` values.
std::size_t RunQueryPlan(const std::vector<Atom>& atoms, const SlotMap& slots,
                         const Instance& database, std::size_t limit,
                         std::vector<Value>* rows) {
  MatchPlan plan(atoms, slots, /*inputs=*/0);
  std::vector<Value> frame(slots.size());
  MatchPlan::Request request;
  request.db = &database;
  return plan.Run(request, frame.data(), rows, limit);
}

}  // namespace

Matches MatchAtoms(const std::vector<Atom>& atoms, const Instance& database,
                   std::size_t limit) {
  Matches out;
  out.slots = SlotsOf(atoms);
  out.count = RunQueryPlan(atoms, out.slots, database, limit, &out.rows);
  return out;
}

Matches MatchAtomsNaive(const std::vector<Atom>& atoms,
                        const Instance& database, std::size_t limit) {
  Matches out;
  out.slots = SlotsOf(atoms);
  std::vector<Value> frame(out.slots.size());
  out.count = MatchNaive(atoms, out.slots, /*inputs=*/0, database,
                         frame.data(), out.slots.size(), &out.rows, limit);
  return out;
}

std::optional<logic::Term> GroundTerm(const logic::Term& term,
                                      const SlotMap& slots,
                                      const Value* frame) {
  switch (term.kind()) {
    case logic::Term::Kind::kConstant:
      return term;
    case logic::Term::Kind::kVariable: {
      const Slot slot = slots.Find(term.name());
      if (slot == kNoSlot) return std::nullopt;
      return logic::Term::Const(frame[slot]);
    }
    case logic::Term::Kind::kFunction: {
      std::vector<logic::Term> args;
      args.reserve(term.args().size());
      for (const logic::Term& arg : term.args()) {
        std::optional<logic::Term> g = GroundTerm(arg, slots, frame);
        if (!g.has_value()) return std::nullopt;
        args.push_back(std::move(*g));
      }
      return logic::Term::Func(term.name(), std::move(args));
    }
  }
  return std::nullopt;
}

namespace {

// Shared machinery for first- and second-order chases over a combined
// (source + target) instance.
// Data-exchange mode: tgd/clause bodies match against `source` (read-only)
// and heads materialize into `target` — the two vocabularies never collide
// even when schemas share relation names. Closure mode (ChaseInstance)
// passes source == nullptr, making the target serve both roles.
class ChaseRun {
 public:
  ChaseRun(const Instance* source, Instance target,
           const ChaseOptions& options)
      : source_(source), target_(std::move(target)), options_(options) {}

  // Arms incremental-maintenance mode: restore/export the resume state
  // through `session`, seed the run's deltas with the source tuples
  // `inserted` since the state was exported, seed the provenance store with
  // the previous call's derivations, and book every target-side
  // insert/erase into `net_change`.
  void AttachSession(ChaseSessionState* session, RunDeltas inserted,
                     Provenance provenance, FactDelta* net_change) {
    session_ = session;
    lists_ = std::move(inserted);
    provenance_ = std::move(provenance);
    net_change_ = net_change;
  }

  const Instance& read_db() const {
    return source_ == nullptr ? target_ : *source_;
  }
  Instance& target() { return target_; }
  ChaseStats& stats() { return stats_; }
  Provenance& provenance() { return provenance_; }
  std::optional<ChaseBreach>& breach() { return breach_; }

  // Runs tgd clauses and egds to fixpoint. The clause list is in SO-clause
  // form; plain tgds are represented with existentials pre-skolemized by
  // the caller or passed via `existentials` handling below.
  Status Run(const std::vector<logic::SoTgdClause>& clauses,
             const std::vector<logic::Tgd>& fo_tgds,
             const std::vector<logic::Egd>& egds) {
    obs::ObsSpan span(options_.obs, "chase.run");
    span.SetAttribute("so_clauses", clauses.size());
    span.SetAttribute("tgds", fo_tgds.size());
    span.SetAttribute("egds", egds.size());
    span.SetAttribute("source_tuples", read_db().TotalTuples());
    obs::ScopedLatency latency(options_.obs, "chase.run.latency_us");
    // Arm the watchdog. One writable token serves every layer: the caller's
    // options_.cancel when provided, else a run-local token when any budget
    // is set, else nothing at all — the unarmed path hands nullptr to the
    // match layer, so the default chase never even loads an atomic.
    const bool budgeted = options_.wall_budget_us > 0 ||
                          options_.tuple_budget > 0 ||
                          options_.rss_budget_kb > 0;
    watch_token_ = options_.cancel != nullptr
                       ? options_.cancel
                       : (budgeted ? &own_token_ : nullptr);
    breach_.reset();
    const auto run_start = std::chrono::steady_clock::now();
    const std::size_t initial_tuples = target_.TotalTuples();
    // Heartbeat surfaces: gauge references are resolved once (they are
    // stable for the registry's lifetime) so per-round refreshes are plain
    // atomic stores; the event log adds a record only while enabled.
    obs::EventLog* events =
        options_.obs == nullptr ? nullptr : &options_.obs->events;
    obs::Gauge* g_round = nullptr;
    obs::Gauge* g_delta = nullptr;
    obs::Gauge* g_total = nullptr;
    obs::Gauge* g_nulls = nullptr;
    obs::Gauge* g_round_us = nullptr;
    obs::Gauge* g_rss = nullptr;
    if (options_.obs != nullptr) {
      obs::MetricsRegistry& m = options_.obs->metrics;
      g_round = &m.GetGauge("chase.progress.round");
      g_delta = &m.GetGauge("chase.progress.delta_tuples");
      g_total = &m.GetGauge("chase.progress.total_tuples");
      g_nulls = &m.GetGauge("chase.progress.nulls_created");
      g_round_us = &m.GetGauge("chase.progress.round_us");
      g_rss = &m.GetGauge("chase.progress.rss_kb");
    }
    // Only a chase from an empty frontier seals its result on publish. A
    // resumed maintenance pass stays delta-sized: sealing would cost
    // O(|target|), so its readers take the set paths.
    const bool seal_on_publish =
        !options_.naive && (session_ == nullptr || !session_->initialized);
    // One RuleStats slot per constraint, in iteration order: SO-clauses,
    // then tgds, then egds. Labels are assigned up front so rules that
    // never fire still show up (with zero cost) in the attribution.
    stats_.rules.clear();
    stats_.rules.resize(clauses.size() + fo_tgds.size() + egds.size());
    // A resumed session carries the next free null label across calls
    // (labels smuggled in via source deltas included), so it skips the
    // O(|instance|) max-label sweep that would dominate a delta-sized pass.
    if (session_ != nullptr && session_->initialized) {
      next_label_ = session_->next_label;
    } else {
      const std::int64_t source_max =
          source_ == nullptr ? -1 : source_->MaxNullLabel();
      next_label_ = std::max(source_max, target_.MaxNullLabel()) + 1;
    }
    // A resumed run continues the previous call's fixpoint: every rule
    // already matched in full, so it matches only against its deltas, which
    // start as the seeded source inserts; and Skolem terms keep resolving to
    // the nulls they already invented. A rule-count mismatch means the
    // session was captured for a different rule set — start fresh instead.
    if (session_ != nullptr && session_->initialized &&
        session_->rules == stats_.rules.size()) {
      matched_once_.assign(stats_.rules.size(), true);
      skolem_ = std::move(session_->skolem);
    } else {
      matched_once_.assign(stats_.rules.size(), false);
      lists_.clear();  // a full first pass needs no seed
    }
    {
      std::size_t slot = 0;
      for (std::size_t i = 0; i < clauses.size(); ++i) {
        stats_.rules[slot++].label = logic::RuleLabel(clauses[i], i);
      }
      for (std::size_t i = 0; i < fo_tgds.size(); ++i) {
        stats_.rules[slot++].label = logic::RuleLabel(fo_tgds[i], i);
      }
      for (std::size_t i = 0; i < egds.size(); ++i) {
        stats_.rules[slot++].label = logic::RuleLabel(egds[i], i);
      }
    }
    // Compile every constraint once for the whole run, in slot order.
    plans_.clear();
    plans_.reserve(stats_.rules.size());
    for (const logic::SoTgdClause& clause : clauses) {
      plans_.push_back(CompileRule(clause.body, clause.head, {}, read_db()));
      for (const auto& [l, r] : clause.equalities) {
        plans_.back().equalities.emplace_back(
            CompileTerm(l, plans_.back().slots),
            CompileTerm(r, plans_.back().slots));
      }
    }
    for (const logic::Tgd& tgd : fo_tgds) {
      plans_.push_back(CompileRule(tgd.body, tgd.head,
                                   tgd.ExistentialVariables(), read_db()));
      plans_.back().head_probe = MatchPlan(tgd.head, plans_.back().slots,
                                           plans_.back().body_slots);
    }
    static const std::vector<Atom> kNoHead;
    for (const logic::Egd& egd : egds) {
      plans_.push_back(CompileRule(egd.body, kNoHead, {}, target_));
      plans_.back().left = plans_.back().slots.Find(egd.left);
      plans_.back().right = plans_.back().slots.Find(egd.right);
    }
    if (options_.track_provenance) {
      for (RulePlan& plan : plans_) RegisterWitnessRule(plan);
    }
    positions_.clear();
    for (const RulePlan& plan : plans_) {
      positions_.emplace_back(plan.reads.size(), 0);
    }
    ResolveReads();
    // Times one rule's matching+firing for the current round and books the
    // aggregate-counter deltas into its RuleStats slot.
    auto attributed = [this](RuleStats& rule,
                             auto&& fire) -> Result<bool> {
      std::size_t matched0 = stats_.assignments_matched;
      std::size_t firings0 = stats_.tgd_firings;
      std::size_t nulls0 = stats_.nulls_created;
      std::size_t unified0 = stats_.egd_unifications;
      auto start = std::chrono::steady_clock::now();
      Result<bool> fired = fire();
      double us =
          std::chrono::duration_cast<
              std::chrono::duration<double, std::micro>>(
              std::chrono::steady_clock::now() - start)
              .count();
      rule.wall_us += us;
      rule.round_us.push_back(us);
      rule.triggers_tested += stats_.assignments_matched - matched0;
      rule.firings += stats_.tgd_firings - firings0 +
                      stats_.egd_unifications - unified0;
      rule.nulls_created += stats_.nulls_created - nulls0;
      rule.unifications += stats_.egd_unifications - unified0;
      if (fired.ok() && *fired) ++rule.rounds_active;
      return fired;
    };
    bool changed = true;
    std::size_t rounds = 0;
    while (changed) {
      if (++rounds > options_.max_rounds) {
        // The hard stop nobody asked for: attach the flight recorder so the
        // error names what the chase was doing when it ran away.
        std::string msg = "chase exceeded max_rounds (" +
                          std::to_string(options_.max_rounds) + ")";
        if (events != nullptr) {
          std::string dump = events->DumpRecent();
          if (!dump.empty()) msg += "\n" + dump;
        }
        return Status::Internal(msg);
      }
      changed = false;
      obs::ObsSpan round_span(options_.obs, "chase.round");
      round_span.SetAttribute("round", rounds);
      const auto round_start = std::chrono::steady_clock::now();
      std::size_t round_firings0 = stats_.tgd_firings;
      std::size_t round_nulls0 = stats_.nulls_created;
      std::size_t round_unified0 = stats_.egd_unifications;
      std::size_t round_matched0 = stats_.assignments_matched;
      std::size_t round_delta0 = stats_.delta_tuples;
      std::size_t rule_index = 0;
      for (const logic::SoTgdClause& clause : clauses) {
        std::size_t slot = rule_index++;
        MM2_ASSIGN_OR_RETURN(
            bool fired, attributed(stats_.rules[slot], [&] {
              return FireSoClause(clause, slot);
            }));
        changed |= fired;
      }
      for (const logic::Tgd& tgd : fo_tgds) {
        std::size_t slot = rule_index++;
        MM2_ASSIGN_OR_RETURN(bool fired,
                             attributed(stats_.rules[slot],
                                        [&] { return FireTgd(tgd, slot); }));
        changed |= fired;
      }
      for (const logic::Egd& egd : egds) {
        std::size_t slot = rule_index++;
        MM2_ASSIGN_OR_RETURN(bool fired,
                             attributed(stats_.rules[slot],
                                        [&] { return FireEgd(egd, slot); }));
        changed |= fired;
      }
      ++stats_.rounds;
      round_span.SetAttribute("tgd_firings",
                              stats_.tgd_firings - round_firings0);
      round_span.SetAttribute("nulls_created",
                              stats_.nulls_created - round_nulls0);
      round_span.SetAttribute("egd_unifications",
                              stats_.egd_unifications - round_unified0);
      round_span.SetAttribute("assignments_matched",
                              stats_.assignments_matched - round_matched0);
      // ---- Round-boundary heartbeat + watchdog -------------------------
      // Everything below is skipped on the bare path (no obs, no budgets)
      // except two steady_clock reads per round — noise next to a round's
      // match work.
      const std::size_t total_tuples = target_.TotalTuples();
      const std::uint64_t derived =
          total_tuples > initial_tuples
              ? static_cast<std::uint64_t>(total_tuples - initial_tuples)
              : 0;
      const double round_us =
          std::chrono::duration_cast<
              std::chrono::duration<double, std::micro>>(
              std::chrono::steady_clock::now() - round_start)
              .count();
      const std::size_t round_delta = stats_.delta_tuples - round_delta0;
      const bool events_on = events != nullptr && events->enabled();
      // One /proc read per round, and only when someone is watching (the
      // event log) or the rss budget needs the number.
      double rss_kb = -1;
      if (events_on || options_.rss_budget_kb > 0) {
        rss_kb = obs::CurrentRssKb();
      }
      if (g_round != nullptr) {
        g_round->Set(static_cast<std::int64_t>(rounds));
        g_delta->Set(static_cast<std::int64_t>(round_delta));
        g_total->Set(static_cast<std::int64_t>(total_tuples));
        g_nulls->Set(static_cast<std::int64_t>(stats_.nulls_created));
        g_round_us->Set(static_cast<std::int64_t>(round_us + 0.5));
        if (rss_kb >= 0) g_rss->Set(static_cast<std::int64_t>(rss_kb));
      }
      if (events_on) {
        events->Emit(
            obs::EventLevel::kInfo, "chase.heartbeat",
            {obs::F("round", static_cast<std::uint64_t>(rounds)),
             obs::F("delta", static_cast<std::uint64_t>(round_delta)),
             obs::F("total_tuples", static_cast<std::uint64_t>(total_tuples)),
             obs::F("nulls", static_cast<std::uint64_t>(stats_.nulls_created)),
             obs::F("round_us", round_us), obs::F("rss_kb", rss_kb)});
      }
      if (watch_token_ != nullptr) {
        const std::uint64_t wall_us = static_cast<std::uint64_t>(
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - run_start)
                .count());
        if (options_.tuple_budget > 0 && derived > options_.tuple_budget) {
          RecordBreach("tuples", options_.tuple_budget, derived, rounds);
        } else if (options_.wall_budget_us > 0 &&
                   wall_us > options_.wall_budget_us) {
          RecordBreach("wall_us", options_.wall_budget_us, wall_us, rounds);
        } else if (options_.rss_budget_kb > 0) {
          if (rss_kb < 0) rss_kb = obs::CurrentRssKb();
          if (rss_kb > static_cast<double>(options_.rss_budget_kb)) {
            RecordBreach("rss_kb", options_.rss_budget_kb,
                         static_cast<std::uint64_t>(rss_kb), rounds);
          }
        }
        if (watch_token_->stop_requested()) {
          if (!breach_.has_value()) {
            // An external controller tripped the shared token (possibly
            // mid-round — the matchers already unwound); surface it with
            // the same machinery as a budget stop.
            breach_.emplace();
            breach_->kind = "cancel";
            breach_->round = rounds;
          }
          break;
        }
      }
    }
    // At a fixpoint every rule has consumed its lists to the end, so no
    // position needs to outlive the run.
    for (std::size_t r = 0; r < plans_.size(); ++r) {
      assert(breach_.has_value() || options_.naive ||
             positions_[r] == Ends(plans_[r]));
    }
    if (breach_.has_value()) {
      FinishBreach(events, &span);
    } else if (seal_on_publish) {
      // The finished result is read, not chased: one seal gives its
      // readers the sorted run (prefix ranges, columnar scans).
      obs::ObsSpan seal_span(options_.obs, "chase.seal");
      target_.PrepareAllSegments(&stats_.segment);
    }
    // Re-export the resume state. A breached run stopped mid-fixpoint, so
    // its frontier is not a safe resume point — invalidate instead. A run
    // that reached its fixpoint matched every rule in full.
    if (session_ != nullptr) {
      session_->rules = stats_.rules.size();
      session_->skolem = std::move(skolem_);
      session_->next_label = next_label_;
      session_->initialized = !breach_.has_value();
    }
    stats_.index_probes = index_stats_.probes;
    stats_.index_probe_hits = index_stats_.probe_hits;
    stats_.index_builds = index_stats_.builds;
    stats_.segment_shape = target_.SegmentShapeTotal();
    if (source_ != nullptr) stats_.segment_shape += source_->SegmentShapeTotal();
    span.SetAttribute("segment_seals", stats_.segment.seals);
    span.SetAttribute("segment_probes", stats_.segment.probes);
    span.SetAttribute("rounds", stats_.rounds);
    span.SetAttribute("target_tuples", target_.TotalTuples());
    span.SetAttribute("index_probes", stats_.index_probes);
    span.SetAttribute("delta_tuples", stats_.delta_tuples);
    return Status::OK();
  }

 private:
  Value FreshNull() {
    ++stats_.nulls_created;
    return Value::LabeledNull(next_label_++);
  }

  // A match request over `db` whose reads count into this run's stats.
  MatchPlan::Request ReadRequest(const Instance* db,
                                 const obs::CancelToken* cancel) {
    MatchPlan::Request request;
    request.db = db;
    request.cancel = cancel;
    request.index_stats = &index_stats_;
    request.segment_stats = &stats_.segment;
    return request;
  }

  // One constraint compiled for the run (see plan.h). Body variables take
  // slots [0, body_slots) in name order; a tgd's existentials take the
  // slots after them, also in name order, so fresh nulls are invented in
  // the order Tgd::ExistentialVariables lists them.
  struct RulePlan {
    const std::vector<Atom>* body_atoms = nullptr;
    const std::vector<Atom>* head_atoms = nullptr;
    SlotMap slots;
    Slot body_slots = 0;
    MatchPlan body;        // over the body slots only
    MatchPlan head_probe;  // FO tgds: extends a body frame into the target
    std::vector<PlanAtom> head;
    std::vector<PlanAtom> witness;  // the body, read back as facts
    // Provenance ids: the body as a registered witness rule, and each head
    // atom's relation. Set when the run tracks provenance.
    Provenance::Id witness_rule = Provenance::kNone;
    std::vector<Provenance::Id> head_relations;
    std::vector<std::pair<PlanTerm, PlanTerm>> equalities;  // SO premises
    Slot left = kNoSlot;  // egd equality
    Slot right = kNoSlot;
    // The instance the body matches against.
    const Instance* db = nullptr;
    // Body atom -> first body atom over the same relation: deltas and
    // delta accounting are per relation.
    std::vector<std::size_t> first_of_relation;
    // First body atom over a relation -> that relation and its run list;
    // null for the other atoms, and while the relation is undeclared.
    std::vector<RunDeltas::value_type*> reads;
  };

  static RulePlan CompileRule(const std::vector<Atom>& body,
                              const std::vector<Atom>& head,
                              const std::set<std::string>& existentials,
                              const Instance& db) {
    RulePlan plan;
    plan.db = &db;
    plan.body_atoms = &body;
    plan.head_atoms = &head;
    plan.slots = SlotsOf(body);
    plan.body_slots = static_cast<Slot>(plan.slots.size());
    plan.body = MatchPlan(body, plan.slots, /*inputs=*/0);
    plan.slots.Add(existentials);
    plan.head = CompileAtoms(head, plan.slots);
    plan.witness = CompileAtoms(body, plan.slots);
    for (std::size_t i = 0; i < body.size(); ++i) {
      std::size_t first = 0;
      while (body[first].relation != body[i].relation) ++first;
      plan.first_of_relation.push_back(first);
    }
    plan.reads.assign(body.size(), nullptr);
    return plan;
  }

  // Points every rule's first body atom over each relation at that
  // relation's run list, creating the list. Runs when the run starts and
  // again whenever a head declares a relation (a closure's heads can).
  void ResolveReads() {
    for (RulePlan& plan : plans_) {
      const std::vector<Atom>& atoms = *plan.body_atoms;
      for (std::size_t i = 0; i < atoms.size(); ++i) {
        if (plan.first_of_relation[i] != i || plan.reads[i] != nullptr) {
          continue;
        }
        const instance::RelationInstance* rel =
            plan.db->Find(atoms[i].relation);
        if (rel != nullptr) plan.reads[i] = &*lists_.try_emplace(rel).first;
      }
    }
  }

  // The end of each of the rule's run lists: where its next delta starts.
  static std::vector<std::size_t> Ends(const RulePlan& plan) {
    std::vector<std::size_t> ends(plan.reads.size(), 0);
    for (std::size_t i = 0; i < ends.size(); ++i) {
      if (plan.reads[i] != nullptr) ends[i] = plan.reads[i]->second.size();
    }
    return ends;
  }

  // One body-matching pass for rule `rule_index` plus the list positions
  // that make it repeatable. The positions are taken BEFORE matching, so
  // tuples a rule inserts while firing land after them and get reprocessed
  // next round. Callers commit via CommitPositions once every returned
  // match has actually been processed — tgds commit right after matching,
  // egds only after a violation-free pass (a unification invalidates the
  // remaining matches, which must be re-derived). Matches stream into one
  // flat buffer of body frames.
  struct BodyMatch {
    std::vector<Value> rows;  // `count` frames of `stride` values
    std::size_t count = 0;
    std::size_t stride = 0;
    std::vector<std::size_t> positions;  // indexed like RulePlan::reads

    const Value* row(std::size_t i) const { return rows.data() + i * stride; }
  };

  BodyMatch MatchBody(std::size_t rule_index) {
    RulePlan& plan = plans_[rule_index];
    const std::vector<Atom>& atoms = *plan.body_atoms;
    BodyMatch out;
    out.stride = plan.body_slots;
    out.positions = Ends(plan);
    if (options_.naive) {
      frame_.resize(plan.body_slots);
      out.count = MatchNaive(atoms, plan.slots, /*inputs=*/0, *plan.db,
                             frame_.data(), plan.body_slots, &out.rows, 0);
    } else if (matched_once_[rule_index]) {
      std::size_t consumed = MatchDelta(plan, positions_[rule_index], &out);
      stats_.delta_tuples += consumed;
      if (consumed == 0) ++stats_.delta_skips;
    } else {
      frame_.resize(plan.body_slots);
      out.count = plan.body.Run(ReadRequest(plan.db, watch_token_),
                                frame_.data(), &out.rows);
      // The first full pass consumes the whole extension as its delta.
      for (const RunDeltas::value_type* read : plan.reads) {
        if (read != nullptr) stats_.delta_tuples += read->first->size();
      }
    }
    stats_.assignments_matched += out.count;
    return out;
  }

  // Semi-naive delta match: only matches where at least one body atom binds
  // a tuple that arrived in its relation's run list at or after the rule's
  // position. One pass per body-atom position — that atom enumerates its
  // relation's delta (in arrival order, skipping erased entries) while the
  // rest probe as usual. Sorting the frames and dropping duplicates (a match
  // can touch two delta tuples) yields the order of a set of name-keyed
  // assignments, because slots follow variable-name order. Returns the delta
  // sizes consumed (per distinct body relation); zero means the caller
  // could have skipped.
  std::size_t MatchDelta(RulePlan& plan,
                         const std::vector<std::size_t>& positions,
                         BodyMatch* out) {
    const std::vector<Atom>& atoms = *plan.body_atoms;
    std::vector<instance::RelationInstance::TupleRefs> deltas(atoms.size());
    std::size_t consumed = 0;
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if (plan.reads[i] == nullptr) continue;
      const std::vector<const Tuple*>& arrived = plan.reads[i]->second;
      for (std::size_t k = positions[i]; k < arrived.size(); ++k) {
        if (arrived[k] != nullptr) deltas[i].push_back(arrived[k]);
      }
      consumed += deltas[i].size();
    }
    frame_.resize(plan.body_slots);
    MatchPlan::Request request = ReadRequest(plan.db, watch_token_);
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      const instance::RelationInstance::TupleRefs& delta =
          deltas[plan.first_of_relation[i]];
      if (delta.empty()) continue;
      request.anchor = i;
      request.delta = &delta;
      out->count += plan.body.Run(request, frame_.data(), &out->rows);
    }
    SortUnique(out);
    return consumed;
  }

  static void SortUnique(BodyMatch* match) {
    const std::size_t stride = match->stride;
    if (stride == 0) {
      match->count = std::min<std::size_t>(match->count, 1);
      return;
    }
    std::vector<std::size_t> order(match->count);
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    auto row = [&](std::size_t i) { return match->rows.data() + i * stride; };
    std::sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
      return std::lexicographical_compare(row(a), row(a) + stride, row(b),
                                          row(b) + stride);
    });
    std::vector<Value> sorted;
    sorted.reserve(match->rows.size());
    std::size_t count = 0;
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Value* r = row(order[k]);
      if (k > 0 && std::equal(r, r + stride, row(order[k - 1]))) continue;
      sorted.insert(sorted.end(), r, r + stride);
      ++count;
    }
    match->rows = std::move(sorted);
    match->count = count;
  }

  void CommitPositions(std::size_t rule_index, BodyMatch& match) {
    positions_[rule_index] = std::move(match.positions);
    matched_once_[rule_index] = true;
  }

  // Evaluates a compiled head term over `frame`, interpreting Skolem terms
  // through the Skolem table. When `invent` is false, a missing Skolem
  // entry returns nullopt instead of creating a null.
  std::optional<Value> EvalTerm(const PlanTerm& term, const Value* frame,
                                bool invent) {
    switch (term.kind) {
      case PlanTerm::Kind::kConstant:
        return term.value;
      case PlanTerm::Kind::kSlot:
        return frame[term.slot];
      case PlanTerm::Kind::kUnbound:
        return std::nullopt;
      case PlanTerm::Kind::kSkolem: {
        std::vector<Value> args;
        args.reserve(term.args.size());
        for (const PlanTerm& arg : term.args) {
          std::optional<Value> v = EvalTerm(arg, frame, invent);
          if (!v.has_value()) return std::nullopt;
          args.push_back(*v);
        }
        auto key = std::make_pair(term.function, std::move(args));
        auto it = skolem_.find(key);
        if (it != skolem_.end()) return it->second;
        if (!invent) return std::nullopt;
        Value null = FreshNull();
        skolem_.emplace(std::move(key), null);
        return null;
      }
    }
    return std::nullopt;
  }

  // Evaluates every head atom of `plan` into out[0..head.size()); false when
  // some term has no value (an unbound variable, or a Skolem value that
  // does not exist yet and `invent` is false).
  bool EvalHead(const RulePlan& plan, const Value* frame, bool invent,
                Tuple* out) {
    for (std::size_t j = 0; j < plan.head.size(); ++j) {
      out[j].clear();
      out[j].reserve(plan.head[j].terms.size());
      for (const PlanTerm& t : plan.head[j].terms) {
        std::optional<Value> v = EvalTerm(t, frame, invent);
        if (!v.has_value()) return false;
        out[j].push_back(*v);
      }
    }
    return true;
  }

  // The target relation a head atom writes to; nullptr while undeclared.
  instance::RelationInstance* TargetRelation(PlanAtom& atom) {
    if (atom.rel == nullptr) atom.rel = target_.FindMutable(atom.relation);
    return atom.rel;
  }

  bool AllPresent(RulePlan& plan, const Tuple* tuples) {
    for (std::size_t j = 0; j < plan.head.size(); ++j) {
      const instance::RelationInstance* rel = TargetRelation(plan.head[j]);
      if (rel == nullptr || !rel->Contains(tuples[j])) return false;
    }
    return true;
  }

  Witness WitnessOf(const RulePlan& plan, const Value* frame) const {
    Witness witness;
    witness.reserve(plan.witness.size());
    for (const PlanAtom& atom : plan.witness) {
      Fact fact;
      fact.relation = atom.relation;
      fact.tuple.reserve(atom.terms.size());
      for (const PlanTerm& t : atom.terms) {
        switch (t.kind) {
          case PlanTerm::Kind::kConstant:
            fact.tuple.push_back(t.value);
            break;
          case PlanTerm::Kind::kSlot:
            fact.tuple.push_back(frame[t.slot]);
            break;
          default:  // function terms never occur in matched bodies
            fact.tuple.push_back(Value::Null());
        }
      }
      witness.push_back(std::move(fact));
    }
    return witness;
  }

  // Registers the rule's body and head relations with the provenance store.
  void RegisterWitnessRule(RulePlan& plan) {
    if (plan.head.empty()) return;  // egds book no witness
    std::vector<Provenance::BodyAtom> body;
    for (const PlanAtom& atom : plan.witness) {
      Provenance::BodyAtom& out = body.emplace_back();
      out.relation = atom.relation;
      for (const PlanTerm& t : atom.terms) {
        Provenance::Column& column = out.columns.emplace_back();
        if (t.kind == PlanTerm::Kind::kSlot) {
          column.slot = t.slot;
        } else if (t.kind == PlanTerm::Kind::kConstant) {
          column.constant = t.value;
        }  // function terms never occur in matched bodies: NULL
      }
    }
    plan.witness_rule = provenance_.AddRule(body, plan.body_slots);
    plan.head_relations.clear();
    for (const PlanAtom& atom : plan.head) {
      plan.head_relations.push_back(provenance_.AddRelation(atom.relation));
    }
  }

  // Books the body frame as a witness of head atom `j`'s fact `tuple`; a
  // session chase also lists the fact under every fact the witness reads,
  // the support index deletion maintenance walks. Sessions call this on
  // every supporting trigger, fired or probe-satisfied, so the recorded
  // derivations are complete: deletion maintenance can treat a fact whose
  // witnesses all died as genuinely underivable.
  void RecordWitness(const RulePlan& plan, std::size_t j, const Tuple& tuple,
                     const Value* body_frame) {
    provenance_.Book(plan.witness_rule, plan.head_relations[j], tuple,
                     body_frame, session_ != nullptr);
  }

  // Session chases book a satisfied trigger too: its head facts (under the
  // satisfying frame) each gain the body as a witness.
  void RecordSatisfied(RulePlan& plan, const Value* head_frame,
                       const Value* body_frame) {
    if (session_ == nullptr || !options_.track_provenance) return;
    head_scratch_.resize(plan.head.size());
    if (!EvalHead(plan, head_frame, /*invent=*/false, head_scratch_.data())) {
      return;
    }
    for (std::size_t j = 0; j < plan.head.size(); ++j) {
      RecordWitness(plan, j, head_scratch_[j], body_frame);
    }
  }

  // Inserts the evaluated head `tuples` (consumed: moved into the target
  // unless provenance tracking still needs them afterwards).
  Result<bool> InsertHead(RulePlan& plan, const Value* frame, Tuple* tuples) {
    bool inserted_any = false;
    for (std::size_t j = 0; j < plan.head.size(); ++j) {
      PlanAtom& atom = plan.head[j];
      Tuple& tuple = tuples[j];
      if (TargetRelation(atom) == nullptr) {
        target_.DeclareRelation(atom.relation, tuple.size());
        ResolveReads();
      }
      instance::RelationInstance* rel = TargetRelation(atom);
      if (rel->arity() != tuple.size()) {
        return Status::InvalidArgument("arity mismatch on '" + atom.relation +
                                       "' during chase");
      }
      const Tuple* node = options_.track_provenance
                              ? rel->Insert(tuple)
                              : rel->Insert(std::move(tuple));
      const bool inserted = node != nullptr;
      if (inserted) {
        auto list = lists_.find(rel);
        if (list != lists_.end()) list->second.push_back(node);
      }
      inserted_any |= inserted;
      // Sessions also record the witness for an already-present fact (a
      // multi-atom head can be partially satisfied), keeping the support
      // index complete.
      if (options_.track_provenance && (inserted || session_ != nullptr)) {
        RecordWitness(plan, j, tuple, frame);
        if (inserted && net_change_ != nullptr) {
          ++(*net_change_)[Fact{atom.relation, tuple}];
        }
      }
    }
    if (inserted_any) ++stats_.tgd_firings;
    return inserted_any;
  }

  Result<bool> FireSoClause(const logic::SoTgdClause& clause,
                            std::size_t rule_index) {
    RulePlan& plan = plans_[rule_index];
    bool changed = false;
    BodyMatch match = MatchBody(rule_index);
    CommitPositions(rule_index, match);
    head_tuples_.resize(plan.head.size());
    for (std::size_t i = 0; i < match.count; ++i) {
      const Value* frame = match.row(i);
      // Premise equalities under Skolem semantics: two distinct constants
      // act as a filter (the match simply does not fire); when a labeled
      // null is involved we unify — the canonical interpretation where the
      // constrained Skolem functions agree.
      bool filtered_out = false;
      for (const auto& [l, r] : plan.equalities) {
        std::optional<Value> lv = EvalTerm(l, frame, /*invent=*/true);
        std::optional<Value> rv = EvalTerm(r, frame, /*invent=*/true);
        if (!lv.has_value() || !rv.has_value()) {
          return Status::Internal("unbound term in SO-tgd equality");
        }
        if (*lv == *rv) continue;
        if (!lv->is_labeled_null() && !rv->is_labeled_null()) {
          filtered_out = true;
          break;
        }
        if (session_ != nullptr) {
          session_->unification_witnesses.push_back(WitnessOf(plan, frame));
        }
        MM2_RETURN_IF_ERROR(UnifyValues(*lv, *rv));
        changed = true;
      }
      if (filtered_out) continue;
      if (EvalHead(plan, frame, /*invent=*/false, head_tuples_.data()) &&
          AllPresent(plan, head_tuples_.data())) {
        RecordSatisfied(plan, frame, frame);
        continue;
      }
      if (!EvalHead(plan, frame, /*invent=*/true, head_tuples_.data())) {
        return Status::Internal("unbound head variable in SO-tgd clause: " +
                                clause.ToString());
      }
      MM2_ASSIGN_OR_RETURN(bool inserted,
                           InsertHead(plan, frame, head_tuples_.data()));
      changed |= inserted;
    }
    return changed;
  }

  // Restricted-chase satisfaction probe: looks for an extension of the
  // body frame in frame_ that covers the head atoms in the target, and
  // leaves it in probe_rows_. It never polls the stop token: a probe cut
  // short would read as unsatisfied and fire a satisfied trigger.
  bool HeadSatisfied(RulePlan& plan) {
    probe_rows_.clear();
    if (options_.naive) {
      return MatchNaive(*plan.head_atoms, plan.slots, plan.body_slots,
                        target_, frame_.data(), plan.slots.size(),
                        &probe_rows_, 1) > 0;
    }
    return plan.head_probe.Run(ReadRequest(&target_, nullptr), frame_.data(),
                               &probe_rows_, 1) > 0;
  }

  Result<bool> FireTgd(const logic::Tgd& tgd, std::size_t rule_index) {
    RulePlan& plan = plans_[rule_index];
    bool changed = false;
    BodyMatch match = MatchBody(rule_index);
    CommitPositions(rule_index, match);
    head_tuples_.resize(plan.head.size());
    for (std::size_t i = 0; i < match.count; ++i) {
      frame_.resize(plan.slots.size());
      std::copy_n(match.row(i), match.stride, frame_.begin());
      if (HeadSatisfied(plan)) {
        // The probe's extension binds the head existentials to the
        // satisfying values, naming the exact facts this trigger supports.
        RecordSatisfied(plan, probe_rows_.data(), frame_.data());
        continue;
      }
      for (Slot e = plan.body_slots; e < plan.slots.size(); ++e) {
        frame_[e] = FreshNull();
      }
      if (!EvalHead(plan, frame_.data(), /*invent=*/false,
                    head_tuples_.data())) {
        return Status::Internal("unbound head variable in tgd: " +
                                tgd.ToString());
      }
      MM2_ASSIGN_OR_RETURN(
          bool inserted, InsertHead(plan, frame_.data(), head_tuples_.data()));
      changed |= inserted;
    }
    return changed;
  }

  Result<bool> FireEgd(const logic::Egd& egd, std::size_t rule_index) {
    const RulePlan& plan = plans_[rule_index];
    bool changed = false;
    while (true) {
      bool fired = false;
      BodyMatch match = MatchBody(rule_index);
      for (std::size_t i = 0; i < match.count; ++i) {
        if (plan.left == kNoSlot || plan.right == kNoSlot) {
          return Status::InvalidArgument("egd equality over unbound var: " +
                                         egd.ToString());
        }
        const Value* frame = match.row(i);
        const Value left = frame[plan.left];
        const Value right = frame[plan.right];
        if (left == right) continue;
        if (session_ != nullptr) {
          session_->unification_witnesses.push_back(WitnessOf(plan, frame));
        }
        MM2_RETURN_IF_ERROR(UnifyValues(left, right));
        fired = true;
        changed = true;
        break;  // instance changed; recompute matches
      }
      if (!fired) {
        // Every match before the positions is violation-free, so only now
        // may they advance. Unification rewrites (erase + reinsert) land
        // after them and re-match next pass.
        CommitPositions(rule_index, match);
        break;
      }
    }
    return changed;
  }

  // Equates two values: a labeled null is rewritten to the other value
  // everywhere (preferring to keep constants); two distinct constants are
  // an inconsistency. A merge can collapse two Skolem entries onto one key
  // with different values; those two values are queued and merged only
  // after the current merge has rewritten everything, each resolved first
  // through the merges made so far.
  Status UnifyValues(const Value& a, const Value& b) {
    std::vector<std::pair<Value, Value>> pending = {{a, b}};
    std::map<Value, Value> merged;  // null -> the value it became
    auto resolve = [&merged](Value v) {
      for (auto it = merged.find(v); it != merged.end(); it = merged.find(v)) {
        v = it->second;
      }
      return v;
    };
    for (std::size_t k = 0; k < pending.size(); ++k) {
      const Value x = resolve(pending[k].first);
      const Value y = resolve(pending[k].second);
      if (x == y) continue;
      if (!x.is_labeled_null() && !y.is_labeled_null()) {
        return Status::Inconsistent("egd forces distinct constants equal: " +
                                    x.ToString() + " = " + y.ToString());
      }
      const Value& from = x.is_labeled_null() ? x : y;
      const Value& to = x.is_labeled_null() ? y : x;
      MergeNull(from, to, &pending);
      merged.emplace(from, to);
    }
    return Status::OK();
  }

  // Rewrites the labeled null `from` to `to` in the target, the Skolem
  // table, the provenance and the unification journal. Skolem entries that
  // collapse onto one key with different values keep the first and queue
  // the pair on `*collisions`.
  void MergeNull(const Value& from, const Value& to,
                 std::vector<std::pair<Value, Value>>* collisions) {
    ++stats_.egd_unifications;
    // Rewrite every relation extension of the target (nulls only ever
    // live there).
    for (auto& [name, rel] : target_.relations_mutable()) {
      std::vector<Tuple> rewritten;
      std::vector<Tuple> removed;
      for (const Tuple& t : rel.tuples()) {
        bool hit = false;
        Tuple nt = t;
        for (Value& v : nt) {
          if (v == from) {
            v = to;
            hit = true;
          }
        }
        if (hit) {
          removed.push_back(t);
          rewritten.push_back(std::move(nt));
        }
      }
      if (removed.empty()) continue;
      // The run list forgets the tuples about to be erased (they are the
      // ones holding `from`); their rewritten forms arrive below.
      auto list = lists_.find(&rel);
      if (list != lists_.end()) {
        for (const Tuple*& entry : list->second) {
          if (entry != nullptr &&
              std::find(entry->begin(), entry->end(), from) != entry->end()) {
            entry = nullptr;
          }
        }
      }
      for (const Tuple& t : removed) {
        rel.Erase(t);
        if (net_change_ != nullptr) --(*net_change_)[Fact{name, t}];
      }
      for (Tuple& t : rewritten) {
        const Tuple* node = rel.Insert(std::move(t));
        if (node == nullptr) continue;
        if (list != lists_.end()) list->second.push_back(node);
        if (net_change_ != nullptr) ++(*net_change_)[Fact{name, *node}];
      }
    }
    // Rewrite Skolem table images (and arguments).
    std::map<std::pair<std::string, std::vector<Value>>, Value> new_skolem;
    for (auto& [key, value] : skolem_) {
      auto new_key = key;
      for (Value& v : new_key.second) {
        if (v == from) v = to;
      }
      const Value new_value = (value == from) ? to : value;
      auto [it, fresh] = new_skolem.try_emplace(std::move(new_key), new_value);
      if (!fresh && !(it->second == new_value)) {
        collisions->emplace_back(it->second, new_value);
      }
    }
    skolem_ = std::move(new_skolem);
    if (options_.track_provenance) provenance_.RewriteValue(from, to);
    // Keep the unification journal in the merged vocabulary, so deletion
    // maintenance compares its facts against current target/source facts.
    if (session_ != nullptr) {
      for (Witness& witness : session_->unification_witnesses) {
        for (Fact& fact : witness) {
          for (Value& v : fact.tuple) {
            if (v == from) v = to;
          }
        }
      }
    }
  }

  // Books a budget breach and trips the shared stop token, so in-flight
  // match work unwinds through the same switch the round loop is about to
  // poll. First breach wins, like the token itself.
  void RecordBreach(const char* kind, std::uint64_t limit,
                    std::uint64_t observed, std::size_t round) {
    if (breach_.has_value()) return;
    breach_.emplace();
    breach_->kind = kind;
    breach_->limit = limit;
    breach_->observed = observed;
    breach_->round = round;
    watch_token_->RequestStop(std::string("chase ") + kind +
                              " budget breached");
  }

  // Completes a pending breach once the loop has unwound: attributes the
  // stop to the costliest rule, renders the human-readable diagnostic, and
  // appends the flight-recorder dump so the evidence travels with it.
  void FinishBreach(obs::EventLog* events, obs::ObsSpan* span) {
    const RuleStats* dominant = nullptr;
    for (const RuleStats& rule : stats_.rules) {
      if (dominant == nullptr || rule.wall_us > dominant->wall_us) {
        dominant = &rule;
      }
    }
    if (dominant != nullptr) breach_->dominant_rule = dominant->label;
    std::string diag = "chase stopped early: ";
    if (breach_->kind == "cancel") {
      diag += "cancelled";
      std::string reason = watch_token_->reason();
      if (!reason.empty()) diag += " (" + reason + ")";
    } else {
      diag += breach_->kind + " budget breached (observed " +
              std::to_string(breach_->observed) + " > limit " +
              std::to_string(breach_->limit) + ")";
    }
    diag += " at round " + std::to_string(breach_->round);
    if (dominant != nullptr) {
      char cost[64];
      std::snprintf(cost, sizeof(cost), " (%zu firings, %.1fus)",
                    dominant->firings, dominant->wall_us);
      diag += "; dominant rule: " + dominant->label + cost;
    }
    // Emit before dumping, so the breach itself is the ring's last record.
    if (events != nullptr && events->enabled()) {
      events->Emit(
          obs::EventLevel::kWarn, "chase.breach",
          {obs::F("kind", breach_->kind), obs::F("limit", breach_->limit),
           obs::F("observed", breach_->observed),
           obs::F("round", static_cast<std::uint64_t>(breach_->round)),
           obs::F("dominant_rule", breach_->dominant_rule)});
    }
    if (events != nullptr) {
      std::string dump = events->DumpRecent();
      if (!dump.empty()) diag += "\n" + dump;
    }
    breach_->diagnostic = std::move(diag);
    if (span != nullptr) span->SetAttribute("breach", breach_->kind);
  }

  const Instance* source_;  // nullptr => closure mode (read the target)
  Instance target_;
  const ChaseOptions& options_;
  ChaseStats stats_;
  // The run's hash-index reads; copied into stats_ when the run ends.
  instance::IndexStats index_stats_;
  Provenance provenance_;
  std::int64_t next_label_ = 0;
  std::map<std::pair<std::string, std::vector<Value>>, Value> skolem_;
  // Compiled constraints, indexed like stats_.rules, and the firing
  // scratch they share: the current frame, a head probe's extension, and
  // evaluated head tuples.
  std::vector<RulePlan> plans_;
  std::vector<Value> frame_;
  std::vector<Value> probe_rows_;
  std::vector<Tuple> head_tuples_;
  std::vector<Tuple> head_scratch_;
  // Semi-naive state. `lists_` holds the tuples that arrived during this
  // run in every relation a rule body reads (seeded, when resuming, with the
  // source inserts). Indexed like stats_.rules: each rule's positions in
  // its lists as of its last committed matching pass (indexed like
  // RulePlan::reads), and whether the rule has completed its first (full)
  // pass.
  RunDeltas lists_;
  std::vector<std::vector<std::size_t>> positions_;
  std::vector<bool> matched_once_;
  // Incremental-maintenance hooks, both null outside ResumeChase: the
  // caller-owned resume state (restored at the top of Run, re-exported at
  // the bottom) and the run's net target-side fact delta.
  ChaseSessionState* session_ = nullptr;
  FactDelta* net_change_ = nullptr;
  // Watchdog state. `watch_token_` is non-null only while armed (the
  // caller's external token, or own_token_ when a budget is set); the match
  // layer receives it as const and only ever polls it.
  obs::CancelToken own_token_;
  obs::CancelToken* watch_token_ = nullptr;
  std::optional<ChaseBreach> breach_;
};

// Mirrors a finished run's ChaseStats into the attached registry, so every
// collector sees one consistent `chase.*` counter family no matter which
// entry point ran the chase.
void MirrorStats(obs::Context* obs, const ChaseStats& stats,
                 std::size_t provenance_entries, bool budget_stop,
                 bool analyzed) {
  if (obs == nullptr) return;
  obs::MetricsRegistry& m = obs->metrics;
  m.GetCounter("chase.runs").Increment();
  if (budget_stop) m.GetCounter("chase.budget_stops").Increment();
  m.GetCounter("chase.rounds").Increment(stats.rounds);
  m.GetCounter("chase.tgd_firings").Increment(stats.tgd_firings);
  m.GetCounter("chase.nulls_created").Increment(stats.nulls_created);
  m.GetCounter("chase.egd_unifications").Increment(stats.egd_unifications);
  m.GetCounter("chase.assignments_matched")
      .Increment(stats.assignments_matched);
  m.GetCounter("chase.provenance_entries").Increment(provenance_entries);
  m.GetCounter("index.probes").Increment(stats.index_probes);
  m.GetCounter("index.probe_hits").Increment(stats.index_probe_hits);
  m.GetCounter("index.builds").Increment(stats.index_builds);
  m.GetCounter("chase.delta.tuples").Increment(stats.delta_tuples);
  m.GetCounter("chase.delta.rule_skips").Increment(stats.delta_skips);
  m.GetHistogram("chase.rounds_per_run",
                 {1, 2, 3, 5, 8, 13, 21, 50, 100, 1000, 10000})
      .Record(static_cast<double>(stats.rounds));
  // Sealed-run family: materialized once a run sealed or served a probe,
  // so chases that never touch a run keep a run-free metric surface.
  if (stats.segment.any()) {
    const instance::SegmentOpStats& seg = stats.segment;
    m.GetCounter("storage.segment.seals").Increment(seg.seals);
    m.GetCounter("storage.segment.sealed_rows").Increment(seg.sealed_rows);
    m.GetCounter("storage.segment.compares").Increment(seg.compares);
    m.GetCounter("storage.segment.probes").Increment(seg.probes);
    m.GetCounter("storage.segment.probe_hits").Increment(seg.probe_hits);
    m.GetCounter("storage.segment.skips").Increment(seg.skips);
    m.GetGauge("storage.segment.live_segments")
        .Set(static_cast<std::int64_t>(stats.segment_shape.live_segments));
  }
  // Foresight family: materialized only for runs with an attached
  // analysis, so plain chases keep their exact pre-existing metric surface.
  if (analyzed) {
    constexpr std::uint64_t kGaugeMax =
        static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
    m.GetGauge("chase.foresight.predicted_rounds")
        .Set(static_cast<std::int64_t>(
            std::min(stats.predicted_rounds, kGaugeMax)));
    m.GetGauge("chase.foresight.observed_rounds")
        .Set(static_cast<std::int64_t>(stats.rounds));
    m.GetGauge("chase.foresight.terminating")
        .Set(stats.predicted_terminating ? 1 : 0);
    if (stats.foresight_armed) {
      m.GetCounter("chase.foresight.armed").Increment();
    }
  }
  // Per-constraint attribution, keyed by rule label so repeated runs of the
  // same rule set accumulate. obs::Profiler reads this family back out of
  // the snapshot for `explain`'s ranked chase table; a rule's wall time is
  // its round_us histogram's exact sum.
  for (const RuleStats& rule : stats.rules) {
    const std::string prefix = "chase.rule." + rule.label + ".";
    m.GetCounter(prefix + "triggers").Increment(rule.triggers_tested);
    m.GetCounter(prefix + "firings").Increment(rule.firings);
    m.GetCounter(prefix + "nulls").Increment(rule.nulls_created);
    m.GetCounter(prefix + "rounds_active").Increment(rule.rounds_active);
    obs::Histogram& rounds_hist = m.GetHistogram(prefix + "round_us");
    for (double us : rule.round_us) rounds_hist.Record(us);
  }
  MirrorValueStats(obs);
}

// Distinct values across an instance — the `n` the analysis' polynomial
// bounds are evaluated at. Computed only when an analysis is attached.
std::uint64_t ActiveDomainSize(const Instance& db) {
  std::set<Value> values;
  for (const auto& [name, rel] : db.relations()) {
    (void)name;
    for (const Tuple& tuple : rel.tuples()) {
      for (const Value& v : tuple) values.insert(v);
    }
  }
  return values.size();
}

// Termination foresight: when the attached analysis says the rule set may
// not terminate and the caller armed no budget or stop switch of their
// own, arm a conservative tuple budget scaled to the input — a diverging
// chase then unwinds through the normal graceful-breach watchdog path
// instead of burning a core until max_rounds hard-errors. Emits the
// `chase.foresight` warning so the decision is visible in the log and the
// flight recorder. Returns whether a budget was armed.
bool ApplyForesight(ChaseOptions* options, std::size_t input_tuples) {
  if (options->analysis == nullptr || options->analysis->terminating()) {
    return false;
  }
  const bool guarded =
      options->wall_budget_us > 0 || options->tuple_budget > 0 ||
      options->rss_budget_kb > 0 || options->cancel != nullptr;
  if (guarded) return false;
  options->tuple_budget =
      std::max<std::size_t>(4096, 64 * std::max<std::size_t>(input_tuples, 1));
  if (options->obs != nullptr && options->obs->events.enabled()) {
    options->obs->events.Emit(
        obs::EventLevel::kWarn, "chase.foresight",
        {obs::F("termination", "potentially_non_terminating"),
         obs::F("cycle", Join(options->analysis->cycle, " -> ")),
         obs::F("auto_tuple_budget",
                static_cast<std::uint64_t>(options->tuple_budget))});
  }
  return true;
}

// Shared by every entry point: arms foresight from the attached analysis
// and packs the finished run into a ChaseResult with the foresight fields
// stamped. The O(|input|) active-domain sweep runs only when the rounds
// bound reads it, so an egd-free exchange — every resumed maintenance pass
// of one included — stays delta-sized.
class AnalysisSetup {
 public:
  AnalysisSetup(const ChaseOptions& options, const Instance& input)
      : options_(options) {
    if (options_.analysis == nullptr) return;
    if (options_.analysis->RoundsBoundReadsDomain()) {
      domain_ = ActiveDomainSize(input);
    }
    armed_ = ApplyForesight(&options_, input.TotalTuples());
  }

  // The adjusted copy the run executes under.
  const ChaseOptions& options() const { return options_; }

  ChaseResult Finish(ChaseRun& run) const {
    ChaseResult result;
    result.stats = std::move(run.stats());
    result.provenance = std::move(run.provenance());
    result.target = std::move(run.target());
    result.breach = std::move(run.breach());
    const bool analyzed = options_.analysis != nullptr;
    if (analyzed) {
      result.stats.predicted_terminating = options_.analysis->terminating();
      result.stats.predicted_rounds =
          options_.analysis->PredictedRounds(domain_);
      result.stats.foresight_armed = armed_;
    }
    MirrorStats(options_.obs, result.stats, result.provenance.size(),
                result.breach.has_value(), analyzed);
    return result;
  }

 private:
  ChaseOptions options_;
  std::uint64_t domain_ = 0;
  bool armed_ = false;
};

Status RequireWeakAcyclicity(const std::vector<logic::Tgd>& tgds,
                             const ChaseOptions& options) {
  if (!options.require_weak_acyclicity) return Status::OK();
  logic::AcyclicityReport report = logic::CheckWeakAcyclicity(tgds);
  if (report.weakly_acyclic) return Status::OK();
  return Status::Unsupported("chase may not terminate: " + report.ToString());
}

// Runs a mapping's constraints: the SO-tgd's clauses for a second-order
// mapping, its (optionally acyclicity-checked) tgds otherwise.
Status RunMapping(ChaseRun& run, const logic::Mapping& mapping,
                  const ChaseOptions& options) {
  if (mapping.is_second_order()) {
    return run.Run(mapping.so_tgd().clauses, {}, mapping.target_egds());
  }
  MM2_RETURN_IF_ERROR(RequireWeakAcyclicity(mapping.tgds(), options));
  return run.Run({}, mapping.tgds(), mapping.target_egds());
}

}  // namespace

void MirrorValueStats(obs::Context* obs) {
  if (obs == nullptr) return;
  // Gauges, not counters: the pool is process-wide cumulative state, so each
  // mirror overwrites with the current totals instead of re-adding them.
  const instance::StringPool::Stats pool =
      instance::StringPool::Global().GetStats();
  obs::MetricsRegistry& m = obs->metrics;
  m.GetGauge("value.intern.strings")
      .Set(static_cast<std::int64_t>(pool.strings));
  m.GetGauge("value.intern.bytes").Set(static_cast<std::int64_t>(pool.bytes));
  m.GetGauge("value.intern.hits").Set(static_cast<std::int64_t>(pool.hits));
  m.GetGauge("value.intern.misses")
      .Set(static_cast<std::int64_t>(pool.misses));
  m.GetGauge("value.bytes_per_value")
      .Set(static_cast<std::int64_t>(sizeof(instance::Value)));
}

Result<ChaseResult> RunChase(const logic::Mapping& mapping,
                             const instance::Instance& source,
                             const ChaseOptions& options) {
  AnalysisSetup setup(options, source);
  ChaseRun run(&source, Instance::EmptyFor(mapping.target()),
               setup.options());
  MM2_RETURN_IF_ERROR(RunMapping(run, mapping, options));
  return setup.Finish(run);
}

Result<ChaseResult> ResumeChase(const logic::Mapping& mapping,
                                const instance::Instance& source,
                                instance::Instance target,
                                Provenance provenance,
                                ChaseSessionState* state,
                                RunDeltas inserted,
                                FactDelta* net_change,
                                const ChaseOptions& options) {
  ChaseOptions resumed = options;
  // Provenance is the DRed substrate — a session without it cannot answer
  // deletions, so maintenance always records it.
  resumed.track_provenance = true;
  AnalysisSetup setup(resumed, source);
  ChaseRun run(&source, std::move(target), setup.options());
  run.AttachSession(state, std::move(inserted), std::move(provenance),
                    net_change);
  MM2_RETURN_IF_ERROR(RunMapping(run, mapping, options));
  return setup.Finish(run);
}

Result<ChaseResult> ChaseInstance(const std::vector<logic::Tgd>& tgds,
                                  const std::vector<logic::Egd>& egds,
                                  const instance::Instance& database,
                                  const ChaseOptions& options) {
  MM2_RETURN_IF_ERROR(RequireWeakAcyclicity(tgds, options));
  AnalysisSetup setup(options, database);
  ChaseRun run(nullptr, database, setup.options());
  MM2_RETURN_IF_ERROR(run.Run({}, tgds, egds));
  return setup.Finish(run);
}

namespace {

// Evaluates a conjunctive query's body through one compiled plan and
// projects every match onto the head, sorted and deduplicated. `certain`
// drops rows carrying a labeled null.
Result<std::vector<Tuple>> Answers(const logic::ConjunctiveQuery& query,
                                   const Instance& database, bool certain) {
  MM2_RETURN_IF_ERROR(query.Validate());
  const SlotMap slots = SlotsOf(query.body);
  std::vector<Value> rows;
  const std::size_t count = RunQueryPlan(query.body, slots, database, 0, &rows);
  std::vector<PlanTerm> head;
  for (const Term& t : query.head.terms) head.push_back(CompileTerm(t, slots));
  std::set<Tuple> answers;
  for (std::size_t i = 0; i < count; ++i) {
    const Value* frame = rows.data() + i * slots.size();
    Tuple row;
    row.reserve(head.size());
    bool has_null = false;
    for (const PlanTerm& t : head) {
      const Value& v =
          t.kind == PlanTerm::Kind::kConstant ? t.value : frame[t.slot];
      has_null |= v.is_labeled_null();
      row.push_back(v);
    }
    if (!certain || !has_null) answers.insert(std::move(row));
  }
  std::vector<Tuple> out;
  out.reserve(answers.size());
  while (!answers.empty()) {
    out.push_back(std::move(answers.extract(answers.begin()).value()));
  }
  return out;
}

}  // namespace

Result<std::vector<Tuple>> CertainAnswers(const logic::ConjunctiveQuery& query,
                                          const Instance& database) {
  return Answers(query, database, /*certain=*/true);
}

Result<std::vector<Tuple>> AllAnswers(const logic::ConjunctiveQuery& query,
                                      const Instance& database) {
  return Answers(query, database, /*certain=*/false);
}

namespace {

// Renders an instance as a list of atoms whose labeled nulls become
// variables, so homomorphism search reduces to one match plan.
std::vector<Atom> InstanceAsAtoms(const Instance& database) {
  std::vector<Atom> atoms;
  for (const auto& [name, rel] : database.relations()) {
    for (const Tuple& t : rel.tuples()) {
      Atom atom;
      atom.relation = name;
      for (const Value& v : t) {
        if (v.is_labeled_null()) {
          atom.terms.push_back(
              Term::Var("_n" + std::to_string(v.label())));
        } else {
          atom.terms.push_back(Term::Const(v));
        }
      }
      atoms.push_back(std::move(atom));
    }
  }
  return atoms;
}

}  // namespace

bool ExistsHomomorphism(const Instance& from, const Instance& to) {
  // One atom per tuple of `from`: the executor is iterative, so the join
  // depth is bounded by memory, not by the stack.
  const std::vector<Atom> atoms = InstanceAsAtoms(from);
  const SlotMap slots = SlotsOf(atoms);
  std::vector<Value> rows;
  return RunQueryPlan(atoms, slots, to, /*limit=*/1, &rows) > 0;
}

instance::Instance ComputeCore(const Instance& database, obs::Context* obs,
                               const obs::CancelToken* cancel) {
  obs::ObsSpan span(obs, "chase.core");
  span.SetAttribute("input_tuples", database.TotalTuples());
  obs::ScopedLatency latency(obs, "chase.core.latency_us");
  std::size_t iterations = 0;
  Instance core = database;
  bool changed = true;
  while (changed) {
    if (cancel != nullptr && cancel->stop_requested()) break;
    changed = false;
    // Collect nulls and candidate replacement values.
    std::set<Value> nulls;
    std::set<Value> values;
    for (const auto& [name, rel] : core.relations()) {
      for (const Tuple& t : rel.tuples()) {
        for (const Value& v : t) {
          values.insert(v);
          if (v.is_labeled_null()) nulls.insert(v);
        }
      }
    }
    for (const Value& null : nulls) {
      // A stop request returns the current instance — still a valid
      // solution, just possibly short of the minimal core.
      if (cancel != nullptr && cancel->stop_requested()) break;
      // Only tuples containing `null` can move under the retraction;
      // single-column probes enumerate exactly those (and stay maintained
      // across the in-place rewrites below). Copies, not pointers: the
      // apply step mutates the relations.
      std::vector<std::pair<std::string, Tuple>> affected;
      {
        std::set<const Tuple*> seen;
        for (const auto& [name, rel] : core.relations()) {
          for (std::size_t c = 0; c < rel.arity(); ++c) {
            const instance::RelationInstance::TupleRefs* refs =
                rel.Probe({c}, {null});
            if (refs == nullptr) continue;
            for (const Tuple* t : *refs) {
              if (seen.insert(t).second) affected.emplace_back(name, *t);
            }
          }
        }
      }
      // Retraction h: null -> candidate, identity elsewhere. Valid if
      // h(core) is contained in core; unaffected tuples are fixpoints.
      auto retraction_valid = [&](const Value& candidate) {
        for (const auto& [name, t] : affected) {
          Tuple image = t;
          for (Value& v : image) {
            if (v == null) v = candidate;
          }
          if (!core.Find(name)->Contains(image)) return false;
        }
        return true;
      };
      // The scan stops at the first valid candidate in value order.
      for (const Value& candidate : values) {
        if (candidate == null) continue;
        if (retraction_valid(candidate)) {
          // Apply in place: affected tuples collapse onto their images
          // (an image never equals another affected tuple — images no
          // longer contain `null`, affected tuples all do).
          for (const auto& [name, t] : affected) {
            Tuple image = t;
            for (Value& v : image) {
              if (v == null) v = candidate;
            }
            instance::RelationInstance* rel = core.FindMutable(name);
            rel->Erase(t);
            rel->Insert(std::move(image));
          }
          changed = true;
          ++iterations;
          break;
        }
      }
      if (changed) break;
    }
  }
  if (obs != nullptr) {
    obs->metrics.GetCounter("chase.core_iterations").Increment(iterations);
  }
  span.SetAttribute("iterations", iterations);
  span.SetAttribute("core_tuples", core.TotalTuples());
  return core;
}

}  // namespace mm2::chase
