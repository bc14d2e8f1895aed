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

std::string Fact::ToString() const {
  return relation + instance::TupleToString(tuple);
}

void Provenance::Record(const Fact& target, Witness witness) {
  map_[target].push_back(std::move(witness));
}

const std::vector<Witness>* Provenance::WitnessesOf(const Fact& target) const {
  auto it = map_.find(target);
  return it == map_.end() ? nullptr : &it->second;
}

void Provenance::RewriteValue(const Value& from, const Value& to) {
  auto rewrite_fact = [&](Fact fact) {
    for (Value& v : fact.tuple) {
      if (v == from) v = to;
    }
    return fact;
  };
  std::map<Fact, std::vector<Witness>> rewritten;
  for (auto& [fact, witnesses] : map_) {
    Fact new_fact = rewrite_fact(fact);
    for (Witness& w : witnesses) {
      for (Fact& f : w) f = rewrite_fact(f);
    }
    auto& slot = rewritten[new_fact];
    slot.insert(slot.end(), witnesses.begin(), witnesses.end());
  }
  map_ = std::move(rewritten);
}

namespace {

// Tries to extend `assignment` so that `atom` maps onto `tuple`.
// `newly_bound` collects pointers into the atom's term names (stable for
// the duration of the match), so the per-descend unbind loop never copies
// variable-name strings.
bool MatchTuple(const Atom& atom, const Tuple& tuple, Assignment* assignment,
                std::vector<const std::string*>* newly_bound) {
  if (atom.terms.size() != tuple.size()) return false;
  for (std::size_t i = 0; i < atom.terms.size(); ++i) {
    const Term& term = atom.terms[i];
    switch (term.kind()) {
      case Term::Kind::kConstant:
        if (!(term.value() == tuple[i])) return false;
        break;
      case Term::Kind::kVariable: {
        auto it = assignment->find(term.name());
        if (it != assignment->end()) {
          if (!(it->second == tuple[i])) return false;
        } else {
          assignment->emplace(term.name(), tuple[i]);
          newly_bound->push_back(&term.name());
        }
        break;
      }
      case Term::Kind::kFunction:
        return false;  // function terms never occur in matchable bodies
    }
  }
  return true;
}

void MatchAtomsNaiveRec(const std::vector<Atom>& atoms, std::size_t index,
                        const Instance& database, Assignment* assignment,
                        std::vector<Assignment>* out, std::size_t limit) {
  if (limit != 0 && out->size() >= limit) return;
  if (index == atoms.size()) {
    out->push_back(*assignment);
    return;
  }
  const Atom& atom = atoms[index];
  const instance::RelationInstance* rel = database.Find(atom.relation);
  if (rel == nullptr) return;
  for (const Tuple& tuple : rel->tuples()) {
    std::vector<const std::string*> newly_bound;
    if (MatchTuple(atom, tuple, assignment, &newly_bound)) {
      MatchAtomsNaiveRec(atoms, index + 1, database, assignment, out, limit);
    }
    for (const std::string* v : newly_bound) assignment->erase(*v);
    if (limit != 0 && out->size() >= limit) return;
  }
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
                         const Instance& database, bool any_order,
                         std::size_t limit, std::vector<Value>* rows) {
  MatchPlan plan(atoms, slots, /*inputs=*/0);
  std::vector<Value> frame(slots.size());
  MatchPlan::Request request;
  request.db = &database;
  request.any_order = any_order;
  return plan.Run(request, frame.data(), rows, limit);
}

}  // namespace

std::vector<Assignment> MatchAtoms(const std::vector<Atom>& atoms,
                                   const Instance& database,
                                   std::size_t limit) {
  const SlotMap slots = SlotsOf(atoms);
  std::vector<Value> rows;
  const std::size_t count = RunQueryPlan(atoms, slots, database,
                                         /*any_order=*/false, limit, &rows);
  // Frames become Assignments only here, at the public boundary.
  std::vector<Assignment> out(count);
  for (std::size_t i = 0; i < count; ++i) {
    const Value* row = rows.data() + i * slots.size();
    for (Slot s = 0; s < slots.size(); ++s) {
      out[i].emplace_hint(out[i].end(), slots.name(s), row[s]);
    }
  }
  return out;
}

std::vector<Assignment> MatchAtomsNaive(const std::vector<Atom>& atoms,
                                        const Instance& database,
                                        std::size_t limit) {
  std::vector<Assignment> out;
  Assignment assignment;
  MatchAtomsNaiveRec(atoms, 0, database, &assignment, &out, limit);
  return out;
}

namespace {

// Compact, metric-name-safe rule labels: "<kind><index>:<body>-><head>"
// with relation lists joined by '+'. These key both ChaseStats::rules and
// the mirrored `chase.rule.<label>.*` metric family.
std::string JoinRelations(const std::vector<Atom>& atoms) {
  std::string out;
  for (const Atom& atom : atoms) {
    if (!out.empty()) out += '+';
    out += atom.relation;
  }
  return out;
}

std::string RuleLabel(const logic::Tgd& tgd, std::size_t index) {
  return "tgd" + std::to_string(index) + ":" + JoinRelations(tgd.body) +
         "->" + JoinRelations(tgd.head);
}

std::string RuleLabel(const logic::SoTgdClause& clause, std::size_t index) {
  return "so" + std::to_string(index) + ":" + JoinRelations(clause.body) +
         "->" + JoinRelations(clause.head);
}

std::string RuleLabel(const logic::Egd& egd, std::size_t index) {
  return "egd" + std::to_string(index) + ":" + JoinRelations(egd.body) + ":" +
         egd.left + "=" + egd.right;
}

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
      : source_(source), target_(std::move(target)), options_(options) {
    if (options.trust_first_null_label) {
      next_label_ = options.first_null_label;
    } else {
      std::int64_t source_max =
          source_ == nullptr ? -1 : source_->MaxNullLabel();
      next_label_ = std::max(options.first_null_label,
                             std::max(source_max, target_.MaxNullLabel()) + 1);
    }
  }

  // Arms incremental-maintenance mode: restore/export semi-naive state
  // through `session`, seed the provenance map with the previous call's
  // derivations, and book every target-side insert/erase into `net_change`.
  void AttachSession(ChaseSessionState* session, Provenance provenance,
                     FactDelta* net_change) {
    session_ = session;
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
    instance::IndexStats storage0 = target_.IndexStatsTotal();
    if (source_ != nullptr) storage0 += source_->IndexStatsTotal();
    instance::SegmentOpStats seg0 = target_.SegmentStatsTotal();
    if (source_ != nullptr) seg0 += source_->SegmentStatsTotal();
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
    // Resumed runs restore the semi-naive frontier captured by the previous
    // call instead of resetting it: rules re-match only above their old
    // watermarks, and Skolem terms keep resolving to the nulls they already
    // invented. A rule-count mismatch means the session was captured for a
    // different rule set — start fresh rather than misattribute watermarks.
    if (session_ != nullptr && session_->initialized &&
        session_->watermarks.size() == stats_.rules.size()) {
      watermarks_ = std::move(session_->watermarks);
      matched_once_ = session_->matched_once;
      skolem_ = std::move(session_->skolem);
      next_label_ = std::max(next_label_, session_->next_label);
    } else {
      watermarks_.assign(stats_.rules.size(), {});
      matched_once_.assign(stats_.rules.size(), false);
    }
    {
      std::size_t slot = 0;
      for (std::size_t i = 0; i < clauses.size(); ++i) {
        stats_.rules[slot++].label = RuleLabel(clauses[i], i);
      }
      for (std::size_t i = 0; i < fo_tgds.size(); ++i) {
        stats_.rules[slot++].label = RuleLabel(fo_tgds[i], i);
      }
      for (std::size_t i = 0; i < egds.size(); ++i) {
        stats_.rules[slot++].label = RuleLabel(egds[i], i);
      }
    }
    // Compile every constraint once for the whole run, in slot order.
    plans_.clear();
    plans_.reserve(stats_.rules.size());
    for (const logic::SoTgdClause& clause : clauses) {
      plans_.push_back(CompileRule(clause.body, clause.head, {}));
      for (const auto& [l, r] : clause.equalities) {
        plans_.back().equalities.emplace_back(
            CompileTerm(l, plans_.back().slots),
            CompileTerm(r, plans_.back().slots));
      }
    }
    for (const logic::Tgd& tgd : fo_tgds) {
      plans_.push_back(
          CompileRule(tgd.body, tgd.head, tgd.ExistentialVariables()));
      plans_.back().head_probe = MatchPlan(tgd.head, plans_.back().slots,
                                           plans_.back().body_slots);
    }
    static const std::vector<Atom> kNoHead;
    for (const logic::Egd& egd : egds) {
      plans_.push_back(CompileRule(egd.body, kNoHead, {}));
      plans_.back().left = plans_.back().slots.Find(egd.left);
      plans_.back().right = plans_.back().slots.Find(egd.right);
    }
    // Stratified scheduler (null analysis_ => disabled; the flat path pays
    // one pointer compare per rule per round). The analysis' rule list is
    // built in the same slot order as stats_.rules, so indices line up; a
    // count mismatch means the caller attached an analysis of a different
    // rule set, in which case scheduling is silently disabled rather than
    // risking a wrong skip.
    analysis_ = options_.analysis;
    if (analysis_ != nullptr &&
        analysis_->rules.size() != stats_.rules.size()) {
      analysis_ = nullptr;
    }
    if (analysis_ != nullptr) SetUpStrata();
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
    // Under stratified scheduling a quiet round may simply mean the active
    // strata reached fixpoint while later strata still await activation —
    // keep looping until every stratum is done (each quiet round retires at
    // least one stratum, so this terminates).
    while (changed || (analysis_ != nullptr && !AllStrataDone())) {
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
      if (analysis_ != nullptr) {
        stratum_ran_.assign(stats_.strata_count, 0);
        stratum_changed_.assign(stats_.strata_count, 0);
      }
      std::size_t rule_index = 0;
      for (const logic::SoTgdClause& clause : clauses) {
        std::size_t slot = rule_index++;
        if (SkipByStratum(slot)) continue;
        MM2_ASSIGN_OR_RETURN(
            bool fired, attributed(stats_.rules[slot], [&] {
              return FireSoClause(clause, slot);
            }));
        changed |= fired;
        NoteStratumResult(slot, fired);
      }
      for (const logic::Tgd& tgd : fo_tgds) {
        std::size_t slot = rule_index++;
        if (SkipByStratum(slot)) continue;
        MM2_ASSIGN_OR_RETURN(bool fired,
                             attributed(stats_.rules[slot],
                                        [&] { return FireTgd(tgd, slot); }));
        changed |= fired;
        NoteStratumResult(slot, fired);
      }
      for (const logic::Egd& egd : egds) {
        std::size_t slot = rule_index++;
        if (SkipByStratum(slot)) continue;
        MM2_ASSIGN_OR_RETURN(bool fired,
                             attributed(stats_.rules[slot],
                                        [&] { return FireEgd(egd, slot); }));
        changed |= fired;
        NoteStratumResult(slot, fired);
      }
      ++stats_.rounds;
      if (analysis_ != nullptr) RetireStrata();
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
        std::vector<obs::EventField> heartbeat = {
            obs::F("round", static_cast<std::uint64_t>(rounds)),
            obs::F("delta", static_cast<std::uint64_t>(round_delta)),
            obs::F("total_tuples", static_cast<std::uint64_t>(total_tuples)),
            obs::F("nulls", static_cast<std::uint64_t>(stats_.nulls_created)),
            obs::F("round_us", round_us), obs::F("rss_kb", rss_kb)};
        if (analysis_ != nullptr) {
          // The scheduling frontier: the earliest stratum still making (or
          // awaiting) progress, plus how many are already retired.
          heartbeat.push_back(obs::F(
              "stratum", static_cast<std::uint64_t>(StratumFrontier())));
          heartbeat.push_back(obs::F(
              "strata_done", static_cast<std::uint64_t>(StrataDoneCount())));
        }
        events->Emit(obs::EventLevel::kInfo, "chase.heartbeat",
                     std::move(heartbeat));
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
    if (breach_.has_value()) {
      FinishBreach(events, &span);
    } else if (seal_on_publish) {
      // The finished result is read, not chased: one seal gives its
      // readers the sorted run (prefix ranges, columnar scans).
      obs::ObsSpan seal_span(options_.obs, "chase.seal");
      target_.PrepareAllSegments();
    }
    // Re-export the resume state. A breached run stopped mid-fixpoint, so
    // its frontier is not a safe resume point — invalidate instead.
    if (session_ != nullptr) {
      session_->watermarks = std::move(watermarks_);
      session_->matched_once = matched_once_;
      session_->skolem = std::move(skolem_);
      session_->next_label = next_label_;
      session_->initialized = !breach_.has_value();
    }
    instance::IndexStats storage1 = target_.IndexStatsTotal();
    if (source_ != nullptr) storage1 += source_->IndexStatsTotal();
    stats_.index_probes = storage1.probes - storage0.probes;
    stats_.index_probe_hits = storage1.probe_hits - storage0.probe_hits;
    stats_.index_builds = storage1.builds - storage0.builds;
    instance::SegmentOpStats seg1 = target_.SegmentStatsTotal();
    if (source_ != nullptr) seg1 += source_->SegmentStatsTotal();
    stats_.segment = seg1 - seg0;
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

  // ---- Stratified scheduling ---------------------------------------------
  // Strata indices are the analysis' topological order, so upstream strata
  // always carry smaller indices and a single ascending pass lets
  // retirement cascade within one round boundary.
  void SetUpStrata() {
    const std::size_t strata = analysis_->strata.size();
    stats_.strata_count = strata;
    stratum_of_.resize(stats_.rules.size());
    for (std::size_t i = 0; i < stats_.rules.size(); ++i) {
      stratum_of_[i] = analysis_->rules[i].stratum;
      stats_.rules[i].stratum = static_cast<int>(analysis_->rules[i].stratum);
    }
    stratum_upstream_.assign(strata, {});
    std::set<std::pair<std::size_t, std::size_t>> seen;
    for (const analysis::RuleEdge& e : analysis_->rule_edges) {
      std::size_t from = analysis_->rules[e.from].stratum;
      std::size_t to = analysis_->rules[e.to].stratum;
      if (from != to && seen.insert({from, to}).second) {
        stratum_upstream_[to].push_back(from);
      }
    }
    stratum_done_.assign(strata, 0);
    stratum_active_.assign(strata, 1);
    RefreshActivation();
  }

  bool UpstreamDone(std::size_t s) const {
    for (std::size_t u : stratum_upstream_[s]) {
      if (!stratum_done_[u]) return false;
    }
    return true;
  }

  // Exchange mode defers a stratum until its upstream cone is quiescent
  // (late activation); closure mode runs everything that is not retired —
  // deferring there can permute null naming and firing attribution, which
  // would break bit-identity with the flat schedule.
  void RefreshActivation() {
    const bool closure = source_ == nullptr;
    for (std::size_t s = 0; s < stratum_active_.size(); ++s) {
      stratum_active_[s] =
          !stratum_done_[s] && (closure || UpstreamDone(s)) ? 1 : 0;
    }
  }

  bool AllStrataDone() const {
    for (char done : stratum_done_) {
      if (!done) return false;
    }
    return true;
  }

  std::size_t StrataDoneCount() const {
    std::size_t count = 0;
    for (char done : stratum_done_) count += done ? 1 : 0;
    return count;
  }

  std::size_t StratumFrontier() const {
    for (std::size_t s = 0; s < stratum_done_.size(); ++s) {
      if (!stratum_done_[s]) return s;
    }
    return stratum_done_.size();
  }

  // True when rule `slot` must not be matched this round. Both skip kinds
  // are provably empty passes under the flat schedule (see ChaseOptions),
  // counted separately so `chase.strata.*` shows where the saving came
  // from.
  bool SkipByStratum(std::size_t slot) {
    if (analysis_ == nullptr) return false;
    const std::size_t s = stratum_of_[slot];
    if (stratum_done_[s]) {
      ++stats_.strata_skips_retired;
      return true;
    }
    if (!stratum_active_[s]) {
      ++stats_.strata_skips_inactive;
      return true;
    }
    stratum_ran_[s] = 1;
    return false;
  }

  void NoteStratumResult(std::size_t slot, bool fired) {
    if (analysis_ != nullptr && fired) {
      stratum_changed_[stratum_of_[slot]] = 1;
    }
  }

  // Round-boundary retirement: a stratum whose whole upstream cone is done
  // and whose rules all ran this round without changing anything has
  // reached its final fixpoint — no future round can feed it new input.
  void RetireStrata() {
    for (std::size_t s = 0; s < stratum_done_.size(); ++s) {
      if (!stratum_done_[s] && stratum_ran_[s] && !stratum_changed_[s] &&
          UpstreamDone(s)) {
        stratum_done_[s] = 1;
      }
    }
    RefreshActivation();
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
    std::vector<std::pair<PlanTerm, PlanTerm>> equalities;  // SO premises
    Slot left = kNoSlot;  // egd equality
    Slot right = kNoSlot;
    // Body atom -> first body atom over the same relation: deltas and
    // delta accounting are per relation.
    std::vector<std::size_t> first_of_relation;
  };

  static RulePlan CompileRule(const std::vector<Atom>& body,
                              const std::vector<Atom>& head,
                              const std::set<std::string>& existentials) {
    RulePlan plan;
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
    return plan;
  }

  // One body-matching pass for rule `rule_index` plus the watermark
  // snapshot that makes it repeatable. The snapshot is taken BEFORE
  // matching, so tuples a rule inserts while firing land above it and get
  // reprocessed next round. Callers commit via CommitWatermarks once every
  // returned match has actually been processed — tgds commit right after
  // matching, egds only after a violation-free pass (a unification
  // invalidates the remaining matches, which must be re-derived). Matches
  // stream into one flat buffer of body frames.
  struct BodyMatch {
    std::vector<Value> rows;  // `count` frames of `stride` values
    std::size_t count = 0;
    std::size_t stride = 0;
    std::map<std::string, std::size_t, std::less<>> watermarks;
    bool delta_pass = false;

    const Value* row(std::size_t i) const { return rows.data() + i * stride; }
  };

  std::map<std::string, std::size_t, std::less<>> SnapshotWatermarks(
      const std::vector<Atom>& atoms, const Instance& db) const {
    std::map<std::string, std::size_t, std::less<>> snap;
    for (const Atom& atom : atoms) {
      if (snap.count(atom.relation) > 0) continue;
      const instance::RelationInstance* rel = db.Find(atom.relation);
      snap.emplace(atom.relation, rel == nullptr ? 0 : rel->Watermark());
    }
    return snap;
  }

  BodyMatch MatchBody(std::size_t rule_index, const Instance& db) {
    RulePlan& plan = plans_[rule_index];
    const std::vector<Atom>& atoms = *plan.body_atoms;
    BodyMatch out;
    out.stride = plan.body_slots;
    out.watermarks = SnapshotWatermarks(atoms, db);
    if (options_.naive) {
      // The oracle matches into Assignments; they become frames here, so
      // firing has one code path.
      for (const Assignment& a : MatchAtomsNaive(atoms, db)) {
        for (Slot s = 0; s < plan.body_slots; ++s) {
          out.rows.push_back(a.at(plan.slots.name(s)));
        }
        ++out.count;
      }
    } else if (options_.semi_naive && matched_once_[rule_index]) {
      out.delta_pass = true;
      std::size_t consumed = MatchDelta(plan, db, watermarks_[rule_index], &out);
      stats_.delta_tuples += consumed;
      if (consumed == 0) ++stats_.delta_skips;
    } else {
      frame_.resize(plan.body_slots);
      MatchPlan::Request request;
      request.db = &db;
      request.cancel = watch_token_;
      out.count = plan.body.Run(request, frame_.data(), &out.rows);
      if (options_.semi_naive) {
        // The first full pass consumes the whole extension as its delta.
        for (const auto& [name, mark] : out.watermarks) {
          (void)mark;
          const instance::RelationInstance* rel = db.Find(name);
          if (rel != nullptr) stats_.delta_tuples += rel->size();
        }
      }
    }
    stats_.assignments_matched += out.count;
    return out;
  }

  // Semi-naive delta match: only matches where at least one body atom binds
  // a tuple inserted since that relation's watermark. One pass per body-atom
  // position — that atom enumerates its relation's delta (log refs, in
  // insertion order) while the rest probe as usual. Sorting the frames and
  // dropping duplicates (a match can touch two delta tuples) yields exactly
  // the std::set<Assignment> order, because slots follow variable-name
  // order. Returns the delta sizes consumed (per distinct body relation);
  // zero means the caller could have skipped.
  std::size_t MatchDelta(RulePlan& plan, const Instance& db,
                         const std::map<std::string, std::size_t,
                                        std::less<>>& watermarks,
                         BodyMatch* out) {
    const std::vector<Atom>& atoms = *plan.body_atoms;
    std::vector<instance::RelationInstance::TupleRefs> deltas(atoms.size());
    std::size_t consumed = 0;
    for (std::size_t i = 0; i < atoms.size(); ++i) {
      if (plan.first_of_relation[i] != i) continue;
      const instance::RelationInstance* rel = db.Find(atoms[i].relation);
      if (rel == nullptr) continue;
      auto it = watermarks.find(atoms[i].relation);
      deltas[i] = rel->DeltaSince(it == watermarks.end() ? 0 : it->second);
      consumed += deltas[i].size();
    }
    frame_.resize(plan.body_slots);
    MatchPlan::Request request;
    request.db = &db;
    request.cancel = watch_token_;
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

  void CommitWatermarks(std::size_t rule_index, BodyMatch& match) {
    watermarks_[rule_index] = std::move(match.watermarks);
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

  // Books `witness` as a support of `fact` into the provenance map and —
  // for session chases — the source->target dependents index. Sessions
  // call this on every supporting trigger, fired or probe-satisfied, so
  // the recorded derivations are complete: deletion maintenance can treat
  // a fact whose witnesses all died as genuinely underivable.
  void RecordWitness(const Fact& fact, Witness witness) {
    if (session_ != nullptr) {
      for (const Fact& s : witness) {
        session_->dependents[s].push_back(fact);
      }
    }
    provenance_.Record(fact, std::move(witness));
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
      RecordWitness(Fact{plan.head[j].relation, head_scratch_[j]},
                    WitnessOf(plan, body_frame));
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
      }
      instance::RelationInstance* rel = TargetRelation(atom);
      if (rel->arity() != tuple.size()) {
        return Status::InvalidArgument("arity mismatch on '" + atom.relation +
                                       "' during chase");
      }
      bool inserted = options_.track_provenance ? rel->Insert(tuple)
                                                : rel->Insert(std::move(tuple));
      inserted_any |= inserted;
      // Sessions also record the witness for an already-present fact (a
      // multi-atom head can be partially satisfied), keeping the support
      // index complete.
      if (options_.track_provenance && (inserted || session_ != nullptr)) {
        Fact fact{atom.relation, tuple};
        RecordWitness(fact, WitnessOf(plan, frame));
        if (inserted && net_change_ != nullptr) ++(*net_change_)[fact];
      }
    }
    if (inserted_any) ++stats_.tgd_firings;
    return inserted_any;
  }

  Result<bool> FireSoClause(const logic::SoTgdClause& clause,
                            std::size_t rule_index) {
    RulePlan& plan = plans_[rule_index];
    bool changed = false;
    BodyMatch match = MatchBody(rule_index, read_db());
    CommitWatermarks(rule_index, match);
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
      if (options_.restricted &&
          EvalHead(plan, frame, /*invent=*/false, head_tuples_.data()) &&
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
  // leaves it in probe_rows_.
  bool HeadSatisfied(RulePlan& plan) {
    probe_rows_.clear();
    if (options_.naive) {
      Assignment probe;
      for (Slot s = 0; s < plan.body_slots; ++s) {
        probe.emplace(plan.slots.name(s), frame_[s]);
      }
      std::vector<Assignment> extension;
      MatchAtomsNaiveRec(*plan.head_atoms, 0, target_, &probe, &extension, 1);
      if (extension.empty()) return false;
      for (Slot s = 0; s < plan.slots.size(); ++s) {
        auto it = extension.front().find(plan.slots.name(s));
        probe_rows_.push_back(it == extension.front().end() ? Value()
                                                            : it->second);
      }
      return true;
    }
    MatchPlan::Request request;
    request.db = &target_;
    return plan.head_probe.Run(request, frame_.data(), &probe_rows_, 1) > 0;
  }

  Result<bool> FireTgd(const logic::Tgd& tgd, std::size_t rule_index) {
    RulePlan& plan = plans_[rule_index];
    bool changed = false;
    BodyMatch match = MatchBody(rule_index, read_db());
    CommitWatermarks(rule_index, match);
    head_tuples_.resize(plan.head.size());
    for (std::size_t i = 0; i < match.count; ++i) {
      frame_.resize(plan.slots.size());
      std::copy_n(match.row(i), match.stride, frame_.begin());
      if (options_.restricted && HeadSatisfied(plan)) {
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
      BodyMatch match = MatchBody(rule_index, target_);
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
        // Every match at or below the snapshot is violation-free, so only
        // now may the delta watermark advance. Unification rewrites
        // (erase + reinsert) land above it and re-match next pass.
        CommitWatermarks(rule_index, match);
        break;
      }
    }
    return changed;
  }

  // Equates two values: a labeled null is rewritten to the other value
  // everywhere (preferring to keep constants); two distinct constants are
  // an inconsistency.
  Status UnifyValues(const Value& a, const Value& b) {
    Value from;
    Value to;
    if (a.is_labeled_null()) {
      from = a;
      to = b;
    } else if (b.is_labeled_null()) {
      from = b;
      to = a;
    } else {
      return Status::Inconsistent("egd forces distinct constants equal: " +
                                  a.ToString() + " = " + b.ToString());
    }
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
      for (const Tuple& t : removed) {
        rel.Erase(t);
        if (net_change_ != nullptr) --(*net_change_)[Fact{name, t}];
      }
      for (Tuple& t : rewritten) {
        if (net_change_ != nullptr) {
          Fact fact{name, t};
          if (rel.Insert(std::move(t))) ++(*net_change_)[fact];
        } else {
          rel.Insert(std::move(t));
        }
      }
    }
    // Rewrite Skolem table images (and arguments).
    std::map<std::pair<std::string, std::vector<Value>>, Value> new_skolem;
    for (auto& [key, value] : skolem_) {
      auto new_key = key;
      for (Value& v : new_key.second) {
        if (v == from) v = to;
      }
      Value new_value = (value == from) ? to : value;
      auto it = new_skolem.find(new_key);
      if (it != new_skolem.end() && !(it->second == new_value)) {
        // Two entries collapse to the same key with different values:
        // unify those too (recursion depth bounded by #nulls).
        MM2_RETURN_IF_ERROR(UnifyValues(it->second, new_value));
        return Status::OK();
      }
      new_skolem.emplace(std::move(new_key), std::move(new_value));
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
      // The dependents index names target facts on its value side; keep
      // them in the merged vocabulary so deletion maintenance finds their
      // provenance entries. (Keys are source facts — never rewritten.)
      for (auto& [source_fact, facts] : session_->dependents) {
        for (Fact& fact : facts) {
          for (Value& v : fact.tuple) {
            if (v == from) v = to;
          }
        }
      }
    }
    return Status::OK();
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
  // Semi-naive state, indexed like stats_.rules: the per-relation insert-log
  // watermark as of each rule's last committed matching pass, and whether
  // the rule has completed its first (full) pass.
  std::vector<std::map<std::string, std::size_t, std::less<>>> watermarks_;
  std::vector<bool> matched_once_;
  // Stratified-scheduler state, all empty when analysis_ is null. Indexed
  // by stratum id (= the analysis' topological order).
  const analysis::MappingAnalysis* analysis_ = nullptr;
  std::vector<std::size_t> stratum_of_;  // rule slot -> stratum id
  std::vector<std::vector<std::size_t>> stratum_upstream_;  // strict deps
  std::vector<char> stratum_done_;     // retired forever
  std::vector<char> stratum_active_;   // eligible to match this round
  std::vector<char> stratum_ran_;      // matched during the current round
  std::vector<char> stratum_changed_;  // changed state this round
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
                 std::size_t provenance_entries, bool budget_stop) {
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
  // Strata + foresight families: materialized only for analysis-scheduled
  // runs, so plain chases keep their exact pre-existing metric surface.
  if (stats.strata_count > 0) {
    m.GetGauge("chase.strata.count")
        .Set(static_cast<std::int64_t>(stats.strata_count));
    m.GetCounter("chase.strata.skips_inactive")
        .Increment(stats.strata_skips_inactive);
    m.GetCounter("chase.strata.skips_retired")
        .Increment(stats.strata_skips_retired);
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
    // Per-stratum aggregates — obs::Profiler reads these back as the
    // StratumCost table of `explain`.
    std::map<int, std::pair<double, std::uint64_t>> per_stratum;  // wall, fire
    std::map<int, std::uint64_t> stratum_rules;
    for (const RuleStats& rule : stats.rules) {
      if (rule.stratum < 0) continue;
      per_stratum[rule.stratum].first += rule.wall_us;
      per_stratum[rule.stratum].second += rule.firings;
      ++stratum_rules[rule.stratum];
    }
    for (const auto& [stratum, cost] : per_stratum) {
      const std::string prefix =
          "chase.stratum." + std::to_string(stratum) + ".";
      m.GetCounter(prefix + "wall_us")
          .Increment(static_cast<std::uint64_t>(cost.first + 0.5));
      m.GetCounter(prefix + "firings").Increment(cost.second);
      m.GetGauge(prefix + "rules")
          .Set(static_cast<std::int64_t>(stratum_rules[stratum]));
    }
  }
  // Per-constraint attribution, keyed by rule label so repeated runs of the
  // same rule set accumulate. obs::Profiler parses this family back out of
  // the snapshot for `explain`'s ranked chase table.
  for (const RuleStats& rule : stats.rules) {
    const std::string prefix = "chase.rule." + rule.label + ".";
    m.GetCounter(prefix + "wall_us")
        .Increment(static_cast<std::uint64_t>(rule.wall_us + 0.5));
    m.GetCounter(prefix + "triggers").Increment(rule.triggers_tested);
    m.GetCounter(prefix + "firings").Increment(rule.firings);
    m.GetCounter(prefix + "nulls").Increment(rule.nulls_created);
    m.GetCounter(prefix + "rounds_active").Increment(rule.rounds_active);
    if (rule.stratum >= 0) {
      m.GetGauge(prefix + "stratum").Set(rule.stratum);
    }
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

// Shared by every entry point: resolves `stratified` into an analysis
// (`analyze` computes one when none is attached), arms foresight, and
// packs the finished run into a ChaseResult with the foresight fields
// stamped. The O(|input|) active-domain sweep runs only when the rounds
// bound reads it, so an egd-free exchange — every resumed maintenance
// pass of one included — stays delta-sized.
class AnalysisSetup {
 public:
  template <typename Analyze>
  AnalysisSetup(const ChaseOptions& options, const Instance& input,
                Analyze&& analyze)
      : options_(options) {
    if (options_.stratified && options_.analysis == nullptr) {
      owned_.emplace(analyze());
      options_.analysis = &*owned_;
    }
    if (options_.analysis == nullptr) return;
    if (options_.analysis->RoundsBoundReadsDomain()) {
      domain_ = ActiveDomainSize(input);
    }
    armed_ = ApplyForesight(&options_, input.TotalTuples());
  }
  // options_.analysis may point into owned_.
  AnalysisSetup(const AnalysisSetup&) = delete;
  AnalysisSetup& operator=(const AnalysisSetup&) = delete;

  // The adjusted copy the run executes under.
  const ChaseOptions& options() const { return options_; }

  ChaseResult Finish(ChaseRun& run) const {
    ChaseResult result;
    result.stats = std::move(run.stats());
    result.provenance = std::move(run.provenance());
    result.target = std::move(run.target());
    result.breach = std::move(run.breach());
    if (options_.analysis != nullptr) {
      result.stats.predicted_terminating = options_.analysis->terminating();
      result.stats.predicted_rounds =
          options_.analysis->PredictedRounds(domain_);
      result.stats.foresight_armed = armed_;
    }
    MirrorStats(options_.obs, result.stats, result.provenance.size(),
                result.breach.has_value());
    return result;
  }

 private:
  ChaseOptions options_;
  std::optional<analysis::MappingAnalysis> owned_;
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
  AnalysisSetup setup(options, source,
                      [&] { return analysis::AnalyzeMapping(mapping); });
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
                                FactDelta* net_change,
                                const ChaseOptions& options) {
  ChaseOptions resumed = options;
  // Provenance is the DRed substrate — a session without it cannot answer
  // deletions, so maintenance always records it.
  resumed.track_provenance = true;
  // A resumed session already knows the next free null label (kept current
  // across calls, including labels smuggled in via source deltas), so the
  // O(|instance|) max-label sweep is skipped.
  if (state != nullptr && state->initialized) {
    resumed.first_null_label =
        std::max(resumed.first_null_label, state->next_label);
    resumed.trust_first_null_label = true;
  }
  AnalysisSetup setup(resumed, source,
                      [&] { return analysis::AnalyzeMapping(mapping); });
  ChaseRun run(&source, std::move(target), setup.options());
  run.AttachSession(state, std::move(provenance), net_change);
  MM2_RETURN_IF_ERROR(RunMapping(run, mapping, options));
  return setup.Finish(run);
}

Result<ChaseResult> ChaseInstance(const std::vector<logic::Tgd>& tgds,
                                  const std::vector<logic::Egd>& egds,
                                  const instance::Instance& database,
                                  const ChaseOptions& options) {
  MM2_RETURN_IF_ERROR(RequireWeakAcyclicity(tgds, options));
  AnalysisSetup setup(options, database,
                      [&] { return analysis::AnalyzeClosure(tgds, egds); });
  ChaseRun run(nullptr, database, setup.options());
  MM2_RETURN_IF_ERROR(run.Run({}, tgds, egds));
  return setup.Finish(run);
}

namespace {

// Evaluates a conjunctive query's body through one compiled plan and
// projects every match onto the head. Answers land in a set, so the plan
// may scan a sealed run's columns instead of walking the set. `certain`
// drops rows carrying a labeled null.
Result<std::vector<Tuple>> Answers(const logic::ConjunctiveQuery& query,
                                   const Instance& database, bool certain) {
  MM2_RETURN_IF_ERROR(query.Validate());
  const SlotMap slots = SlotsOf(query.body);
  std::vector<Value> rows;
  const std::size_t count = RunQueryPlan(query.body, slots, database,
                                         /*any_order=*/true, 0, &rows);
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
  return std::vector<Tuple>(answers.begin(), answers.end());
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
  return RunQueryPlan(atoms, slots, to, /*any_order=*/true, /*limit=*/1,
                      &rows) > 0;
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
