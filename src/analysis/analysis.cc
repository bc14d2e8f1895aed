#include "analysis/analysis.h"

#include <algorithm>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <tuple>
#include <utility>

#include "common/json.h"
#include "common/strings.h"

namespace mm2::analysis {

namespace {

constexpr std::uint64_t kSat = std::numeric_limits<std::uint64_t>::max();

std::uint64_t SatAdd(std::uint64_t a, std::uint64_t b) {
  return a > kSat - b ? kSat : a + b;
}

std::uint64_t SatMul(std::uint64_t a, std::uint64_t b) {
  if (a == 0 || b == 0) return 0;
  return a > kSat / b ? kSat : a * b;
}

std::uint64_t SatPow(std::uint64_t base, std::uint64_t exp) {
  std::uint64_t out = 1;
  for (std::uint64_t i = 0; i < exp; ++i) out = SatMul(out, base);
  return out;
}

void CollectConstants(const logic::Term& term, std::set<std::string>* out) {
  if (term.is_constant()) {
    out->insert(term.value().ToString());
  } else if (term.is_function()) {
    for (const logic::Term& arg : term.args()) CollectConstants(arg, out);
  }
}

// Iterative-enough Tarjan SCC (recursion depth = graph diameter, fine at
// mapping scale). Returns component ids; components are emitted in
// reverse topological order of the condensation.
std::size_t StronglyConnectedComponents(
    std::size_t n, const std::vector<std::vector<std::size_t>>& adj,
    std::vector<std::size_t>* comp_of) {
  comp_of->assign(n, n);
  std::vector<std::size_t> index(n, n), low(n, 0);
  std::vector<bool> on_stack(n, false);
  std::vector<std::size_t> stack;
  std::size_t next_index = 0, components = 0;
  auto strongconnect = [&](std::size_t v, auto&& self) -> void {
    index[v] = low[v] = next_index++;
    stack.push_back(v);
    on_stack[v] = true;
    for (std::size_t w : adj[v]) {
      if (index[w] == n) {
        self(w, self);
        low[v] = std::min(low[v], low[w]);
      } else if (on_stack[w]) {
        low[v] = std::min(low[v], index[w]);
      }
    }
    if (low[v] == index[v]) {
      while (true) {
        std::size_t w = stack.back();
        stack.pop_back();
        on_stack[w] = false;
        (*comp_of)[w] = components;
        if (w == v) break;
      }
      ++components;
    }
  };
  for (std::size_t v = 0; v < n; ++v) {
    if (index[v] == n) strongconnect(v, strongconnect);
  }
  return components;
}

struct PosEdge {
  std::size_t to;
  bool special;
};

// For the witness cycle: does `from` reach `to` in the position graph?
bool Reaches(const std::vector<std::vector<PosEdge>>& adj, std::size_t from,
             std::size_t to, std::vector<std::size_t>* path) {
  std::vector<bool> visited(adj.size(), false);
  std::vector<std::size_t> stack_path;
  bool found = false;
  auto dfs = [&](std::size_t node, auto&& self) -> void {
    if (found || visited[node]) return;
    visited[node] = true;
    stack_path.push_back(node);
    if (node == to) {
      *path = stack_path;
      found = true;
      return;
    }
    for (const PosEdge& e : adj[node]) {
      self(e.to, self);
      if (found) return;
    }
    stack_path.pop_back();
  };
  dfs(from, dfs);
  return found;
}

std::string DotEscape(const std::string& raw) {
  std::string out;
  out.reserve(raw.size() + 8);
  for (char c : raw) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

std::string BoundToString(std::uint64_t v) {
  return v == kSat ? "unbounded" : std::to_string(v);
}

// Accumulates rules, positions, and edges, then condenses. One instance
// per Analyze* call.
class Builder {
 public:
  explicit Builder(ChaseMode mode) : mode_(mode) {
    out_.mode = mode;
    read_ns_ = mode == ChaseMode::kExchange ? "src:" : "";
    write_ns_ = mode == ChaseMode::kExchange ? "tgt:" : "";
  }

  void AddTgd(const logic::Tgd& tgd, std::size_t index) {
    RuleNode rule;
    rule.label = logic::RuleLabel(tgd, index);
    rule.kind = "tgd";
    std::set<std::string> existentials = tgd.ExistentialVariables();
    std::set<std::string> head_vars = tgd.HeadVariables();
    rule.creates_values = !existentials.empty();
    out_.invention_count += existentials.size();
    out_.max_body_vars =
        std::max(out_.max_body_vars, tgd.BodyVariables().size());

    std::map<std::string, std::vector<std::size_t>> body_positions;
    std::set<std::string> reads, writes;
    for (const logic::Atom& atom : tgd.body) {
      reads.insert(read_ns_ + atom.relation);
      for (std::size_t i = 0; i < atom.terms.size(); ++i) {
        CollectConstants(atom.terms[i], &constants_);
        if (atom.terms[i].is_variable()) {
          body_positions[atom.terms[i].name()].push_back(
              Pos(read_ns_, atom.relation, i));
        }
      }
    }
    std::vector<std::size_t> invented_positions;
    for (const logic::Atom& atom : tgd.head) {
      writes.insert(write_ns_ + atom.relation);
      NoteWrittenArity(write_ns_ + atom.relation, atom.terms.size());
      for (std::size_t i = 0; i < atom.terms.size(); ++i) {
        const logic::Term& t = atom.terms[i];
        CollectConstants(t, &constants_);
        if (!t.is_variable()) continue;
        std::size_t head_pos = Pos(write_ns_, atom.relation, i);
        if (existentials.count(t.name()) > 0) {
          invented_positions.push_back(head_pos);
          continue;
        }
        auto it = body_positions.find(t.name());
        if (it == body_positions.end()) continue;
        for (std::size_t from : it->second) AddPosEdge(from, head_pos, false);
      }
    }
    AddSpecialEdges(body_positions, head_vars, existentials,
                    invented_positions);
    FinishRule(std::move(rule), std::move(reads), std::move(writes));
  }

  void AddSoClause(const logic::SoTgdClause& clause, std::size_t index) {
    RuleNode rule;
    rule.label = logic::RuleLabel(clause, index);
    rule.kind = "so";
    rule.creates_values = false;
    out_.max_body_vars =
        std::max(out_.max_body_vars, clause.BodyVariables().size());

    std::map<std::string, std::vector<std::size_t>> body_positions;
    std::set<std::string> reads, writes;
    std::set<std::string> body_vars = clause.BodyVariables();
    for (const logic::Atom& atom : clause.body) {
      reads.insert(read_ns_ + atom.relation);
      for (std::size_t i = 0; i < atom.terms.size(); ++i) {
        CollectConstants(atom.terms[i], &constants_);
        if (atom.terms[i].is_variable()) {
          body_positions[atom.terms[i].name()].push_back(
              Pos(read_ns_, atom.relation, i));
        }
      }
    }
    // Distinct Skolem terms of this clause invent values; head variables
    // used in the head (incl. inside function arguments) feed them.
    std::set<std::string> skolems;
    std::set<std::string> head_used;
    std::vector<std::size_t> invented_positions;
    for (const logic::Atom& atom : clause.head) {
      writes.insert(write_ns_ + atom.relation);
      NoteWrittenArity(write_ns_ + atom.relation, atom.terms.size());
      for (std::size_t i = 0; i < atom.terms.size(); ++i) {
        const logic::Term& t = atom.terms[i];
        CollectConstants(t, &constants_);
        t.CollectVariables(&head_used);
        if (t.is_function()) {
          skolems.insert(t.ToString());
          invented_positions.push_back(Pos(write_ns_, atom.relation, i));
        } else if (t.is_variable()) {
          auto it = body_positions.find(t.name());
          if (it == body_positions.end()) continue;
          std::size_t head_pos = Pos(write_ns_, atom.relation, i);
          for (std::size_t from : it->second) {
            AddPosEdge(from, head_pos, false);
          }
        }
      }
    }
    for (const auto& [lhs, rhs] : clause.equalities) {
      CollectConstants(lhs, &constants_);
      CollectConstants(rhs, &constants_);
      if (lhs.is_function()) skolems.insert(lhs.ToString());
      if (rhs.is_function()) skolems.insert(rhs.ToString());
    }
    rule.creates_values = !skolems.empty();
    out_.invention_count += skolems.size();
    // Only variables that actually occur in the body can vary the Skolem
    // arguments; intersect before drawing special edges.
    std::set<std::string> head_used_universals;
    for (const std::string& v : head_used) {
      if (body_vars.count(v) > 0) head_used_universals.insert(v);
    }
    AddSpecialEdges(body_positions, head_used_universals, {},
                    invented_positions);
    FinishRule(std::move(rule), std::move(reads), std::move(writes));
  }

  void AddEgd(const logic::Egd& egd, std::size_t index) {
    RuleNode rule;
    rule.label = logic::RuleLabel(egd, index);
    rule.kind = "egd";
    std::set<std::string> reads;
    for (const logic::Atom& atom : egd.body) {
      // Egd bodies always match the written vocabulary (the chase target).
      reads.insert(write_ns_ + atom.relation);
      for (const logic::Term& t : atom.terms) {
        CollectConstants(t, &constants_);
      }
    }
    out_.max_body_vars = [&] {
      std::set<std::string> vars;
      for (const logic::Atom& atom : egd.body) atom.CollectVariables(&vars);
      return std::max(out_.max_body_vars, vars.size());
    }();
    egd_rules_.push_back(out_.rules.size());
    // Writes resolved in Finish(): a unification may rewrite nulls in any
    // relation of the written vocabulary, so egds conservatively write
    // all of it.
    FinishRule(std::move(rule), std::move(reads), {});
  }

  MappingAnalysis Finish() {
    // Conservative egd write set: every relation of the written vocabulary
    // any rule touches (tgd/SO heads plus egd bodies).
    std::set<std::string> written_vocab;
    for (std::size_t i = 0; i < out_.rules.size(); ++i) {
      if (out_.rules[i].kind == "egd") {
        for (const std::string& r : rule_reads_[i]) written_vocab.insert(r);
      } else {
        for (const std::string& r : rule_writes_[i]) written_vocab.insert(r);
      }
    }
    for (std::size_t i : egd_rules_) rule_writes_[i] = written_vocab;
    for (std::size_t i = 0; i < out_.rules.size(); ++i) {
      out_.rules[i].reads.assign(rule_reads_[i].begin(),
                                 rule_reads_[i].end());
      out_.rules[i].writes.assign(rule_writes_[i].begin(),
                                  rule_writes_[i].end());
    }

    BuildRuleGraph();
    Stratify();
    ClassifyTermination();
    out_.constant_count = constants_.size();
    return std::move(out_);
  }

 private:
  std::size_t Pos(const std::string& ns, const std::string& relation,
                  std::size_t column) {
    std::string name = ns + relation + "." + std::to_string(column);
    auto [it, inserted] = pos_index_.try_emplace(name, out_.positions.size());
    if (inserted) {
      out_.positions.push_back(PositionNode{name});
      pos_adj_.emplace_back();
    }
    return it->second;
  }

  void AddPosEdge(std::size_t from, std::size_t to, bool special) {
    if (!pos_edge_seen_.insert({from, to, special}).second) return;
    out_.position_edges.push_back(PositionEdge{from, to, special});
    pos_adj_[from].push_back(PosEdge{to, special});
  }

  void AddSpecialEdges(
      const std::map<std::string, std::vector<std::size_t>>& body_positions,
      const std::set<std::string>& head_vars,
      const std::set<std::string>& existentials,
      const std::vector<std::size_t>& invented_positions) {
    if (invented_positions.empty()) return;
    for (const auto& [var, froms] : body_positions) {
      if (head_vars.count(var) == 0 || existentials.count(var) > 0) continue;
      for (std::size_t from : froms) {
        for (std::size_t to : invented_positions) {
          AddPosEdge(from, to, true);
        }
      }
    }
  }

  void NoteWrittenArity(const std::string& name, std::size_t arity) {
    if (written_arity_.try_emplace(name, arity).second) {
      out_.written_arities.push_back(arity);
    }
  }

  void FinishRule(RuleNode rule, std::set<std::string> reads,
                  std::set<std::string> writes) {
    out_.rules.push_back(std::move(rule));
    rule_reads_.push_back(std::move(reads));
    rule_writes_.push_back(std::move(writes));
  }

  void BuildRuleGraph() {
    std::size_t n = out_.rules.size();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        bool depends = std::any_of(
            rule_writes_[i].begin(), rule_writes_[i].end(),
            [&](const std::string& w) { return rule_reads_[j].count(w); });
        if (depends) out_.rule_edges.push_back(RuleEdge{i, j});
      }
    }
  }

  // SCC condensation of the rule graph, topologically ordered; ties go to
  // the stratum containing the smallest rule index (stable across runs).
  void Stratify() {
    std::size_t n = out_.rules.size();
    std::vector<std::vector<std::size_t>> adj(n);
    std::set<std::pair<std::size_t, std::size_t>> self_loops;
    for (const RuleEdge& e : out_.rule_edges) {
      adj[e.from].push_back(e.to);
      if (e.from == e.to) self_loops.insert({e.from, e.to});
    }
    std::vector<std::size_t> comp_of;
    std::size_t k = StronglyConnectedComponents(n, adj, &comp_of);

    std::vector<std::vector<std::size_t>> members(k);
    for (std::size_t v = 0; v < n; ++v) members[comp_of[v]].push_back(v);
    std::vector<std::set<std::size_t>> comp_adj(k);
    std::vector<std::size_t> indegree(k, 0);
    for (const RuleEdge& e : out_.rule_edges) {
      std::size_t cf = comp_of[e.from], ct = comp_of[e.to];
      if (cf != ct && comp_adj[cf].insert(ct).second) ++indegree[ct];
    }
    // Kahn with a min-rule-index priority for a deterministic order.
    std::set<std::pair<std::size_t, std::size_t>> ready;  // (min rule, comp)
    for (std::size_t c = 0; c < k; ++c) {
      if (indegree[c] == 0) ready.insert({members[c].front(), c});
    }
    std::vector<std::size_t> stratum_of_comp(k, 0);
    while (!ready.empty()) {
      auto [min_rule, c] = *ready.begin();
      ready.erase(ready.begin());
      stratum_of_comp[c] = out_.strata.size();
      out_.strata.push_back(members[c]);
      bool recursive =
          members[c].size() > 1 ||
          self_loops.count({members[c].front(), members[c].front()}) > 0;
      for (std::size_t v : members[c]) {
        out_.rules[v].stratum = stratum_of_comp[c];
        out_.rules[v].recursive = recursive;
      }
      for (std::size_t next : comp_adj[c]) {
        if (--indegree[next] == 0) {
          ready.insert({members[next].front(), next});
        }
      }
    }
  }

  void ClassifyTermination() {
    // A cycle through a special edge u -s-> v exists iff v reaches u.
    for (const PositionEdge& e : out_.position_edges) {
      if (!e.special) continue;
      std::vector<std::size_t> path;
      if (Reaches(pos_adj_, e.to, e.from, &path)) {
        out_.weakly_acyclic = false;
        out_.termination = Termination::kPotentiallyNonTerminating;
        out_.cycle.push_back(out_.positions[e.from].name);
        for (std::size_t p : path) {
          out_.cycle.push_back(out_.positions[p].name);
        }
        out_.cycle.push_back(out_.positions[e.from].name);
        return;
      }
    }
    ComputeRanks();
  }

  // rank(p) = max number of special edges on any path ending at p. Weak
  // acyclicity guarantees no special edge inside a position SCC, so the
  // condensation DAG carries a simple longest-path DP.
  void ComputeRanks() {
    std::size_t n = out_.positions.size();
    if (n == 0) return;
    std::vector<std::vector<std::size_t>> adj(n);
    for (const PositionEdge& e : out_.position_edges) {
      adj[e.from].push_back(e.to);
    }
    std::vector<std::size_t> comp_of;
    std::size_t k = StronglyConnectedComponents(n, adj, &comp_of);
    std::vector<std::vector<std::pair<std::size_t, bool>>> comp_adj(k);
    std::vector<std::size_t> indegree(k, 0);
    for (const PositionEdge& e : out_.position_edges) {
      std::size_t cf = comp_of[e.from], ct = comp_of[e.to];
      if (cf == ct) continue;
      comp_adj[cf].push_back({ct, e.special});
      ++indegree[ct];
    }
    std::vector<std::size_t> rank(k, 0), queue;
    for (std::size_t c = 0; c < k; ++c) {
      if (indegree[c] == 0) queue.push_back(c);
    }
    while (!queue.empty()) {
      std::size_t c = queue.back();
      queue.pop_back();
      for (const auto& [next, special] : comp_adj[c]) {
        rank[next] = std::max(rank[next], rank[c] + (special ? 1 : 0));
        if (--indegree[next] == 0) queue.push_back(next);
      }
    }
    for (std::size_t c = 0; c < k; ++c) {
      out_.max_rank = std::max(out_.max_rank, rank[c]);
    }
  }

  ChaseMode mode_;
  std::string read_ns_, write_ns_;
  MappingAnalysis out_;
  std::map<std::string, std::size_t> pos_index_;
  std::vector<std::vector<PosEdge>> pos_adj_;
  std::set<std::tuple<std::size_t, std::size_t, bool>> pos_edge_seen_;
  std::map<std::string, std::size_t> written_arity_;
  std::set<std::string> constants_;
  std::vector<std::set<std::string>> rule_reads_, rule_writes_;
  std::vector<std::size_t> egd_rules_;
};

}  // namespace

std::uint64_t MappingAnalysis::PredictedValues(std::uint64_t domain) const {
  if (!weakly_acyclic) return kSat;
  std::uint64_t g = SatAdd(std::max<std::uint64_t>(domain, 1),
                           constant_count);
  if (invention_count == 0) return g;
  std::size_t iterations = std::max<std::size_t>(max_rank, 1);
  for (std::size_t i = 0; i < iterations && g != kSat; ++i) {
    g = SatAdd(g, SatMul(invention_count, SatPow(g, max_body_vars)));
  }
  return g;
}

std::uint64_t MappingAnalysis::PredictedTuples(std::uint64_t domain) const {
  if (!weakly_acyclic) return kSat;
  std::uint64_t values = PredictedValues(domain);
  std::uint64_t total = 0;
  for (std::size_t arity : written_arities) {
    total = SatAdd(total, SatPow(values, arity));
  }
  return total;
}

bool MappingAnalysis::RoundsBoundReadsDomain() const {
  return weakly_acyclic &&
         (mode == ChaseMode::kClosure ||
          std::any_of(rules.begin(), rules.end(),
                      [](const RuleNode& r) { return r.kind == "egd"; }));
}

std::uint64_t MappingAnalysis::PredictedRounds(std::uint64_t domain) const {
  if (!weakly_acyclic) return kSat;
  std::uint64_t base = SatAdd(2, strata.size());
  // Exchange tgds quiesce after one fire+confirm pass; every further round
  // performs at least one egd unification, each consuming a null.
  if (!RoundsBoundReadsDomain()) return base;
  std::uint64_t values = PredictedValues(domain);
  std::uint64_t base_values = SatAdd(std::max<std::uint64_t>(domain, 1),
                                     constant_count);
  std::uint64_t nulls = values >= base_values ? values - base_values : 0;
  if (mode == ChaseMode::kExchange) return SatAdd(base, SatAdd(nulls, 1));
  // Closure: every non-final round inserts a tuple or consumes a null.
  return SatAdd(base, SatAdd(PredictedTuples(domain), SatAdd(nulls, 1)));
}

std::string MappingAnalysis::ToText(std::uint64_t domain) const {
  std::ostringstream out;
  out << "mapping analysis ("
      << (mode == ChaseMode::kExchange ? "exchange" : "closure")
      << " mode)\n";
  out << "  termination: "
      << (terminating() ? "terminating (weakly acyclic)"
                        : "potentially non-terminating (cycle through an "
                          "existential edge)")
      << "\n";
  if (!cycle.empty()) {
    out << "  cycle: " << Join(cycle, " -> ") << "\n";
  }
  out << "  rules: " << rules.size() << ", strata: " << strata.size()
      << ", positions: " << positions.size() << " ("
      << position_edges.size() << " edges, max rank " << max_rank << ")\n";
  for (std::size_t s = 0; s < strata.size(); ++s) {
    out << "  stratum " << s << ":";
    for (std::size_t r : strata[s]) {
      out << " " << rules[r].label
          << (rules[r].recursive ? " (recursive)" : "");
    }
    out << "\n";
  }
  out << "  predicted (domain=" << domain
      << "): values<=" << BoundToString(PredictedValues(domain))
      << ", tuples<=" << BoundToString(PredictedTuples(domain))
      << ", rounds<=" << BoundToString(PredictedRounds(domain)) << "\n";
  return out.str();
}

std::string MappingAnalysis::ToJson(std::uint64_t domain) const {
  std::ostringstream out;
  out << "{\"mode\": \""
      << (mode == ChaseMode::kExchange ? "exchange" : "closure")
      << "\", \"termination\": \""
      << (terminating() ? "terminating" : "potentially_non_terminating")
      << "\", \"weakly_acyclic\": " << (weakly_acyclic ? "true" : "false")
      << ", \"max_rank\": " << max_rank;
  out << ", \"rules\": [";
  for (std::size_t i = 0; i < rules.size(); ++i) {
    const RuleNode& r = rules[i];
    if (i > 0) out << ", ";
    out << "{\"label\": \"" << json::Escape(r.label) << "\", \"kind\": \""
        << r.kind << "\", \"stratum\": " << r.stratum
        << ", \"recursive\": " << (r.recursive ? "true" : "false")
        << ", \"creates_values\": " << (r.creates_values ? "true" : "false")
        << ", \"reads\": [";
    for (std::size_t j = 0; j < r.reads.size(); ++j) {
      if (j > 0) out << ", ";
      out << "\"" << json::Escape(r.reads[j]) << "\"";
    }
    out << "], \"writes\": [";
    for (std::size_t j = 0; j < r.writes.size(); ++j) {
      if (j > 0) out << ", ";
      out << "\"" << json::Escape(r.writes[j]) << "\"";
    }
    out << "]}";
  }
  out << "], \"rule_edges\": [";
  for (std::size_t i = 0; i < rule_edges.size(); ++i) {
    if (i > 0) out << ", ";
    out << "{\"from\": " << rule_edges[i].from
        << ", \"to\": " << rule_edges[i].to << "}";
  }
  out << "], \"strata\": [";
  for (std::size_t s = 0; s < strata.size(); ++s) {
    if (s > 0) out << ", ";
    out << "[";
    for (std::size_t j = 0; j < strata[s].size(); ++j) {
      if (j > 0) out << ", ";
      out << strata[s][j];
    }
    out << "]";
  }
  out << "], \"positions\": [";
  for (std::size_t i = 0; i < positions.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << json::Escape(positions[i].name) << "\"";
  }
  out << "], \"position_edges\": [";
  for (std::size_t i = 0; i < position_edges.size(); ++i) {
    if (i > 0) out << ", ";
    out << "{\"from\": " << position_edges[i].from
        << ", \"to\": " << position_edges[i].to << ", \"special\": "
        << (position_edges[i].special ? "true" : "false") << "}";
  }
  out << "], \"cycle\": [";
  for (std::size_t i = 0; i < cycle.size(); ++i) {
    if (i > 0) out << ", ";
    out << "\"" << json::Escape(cycle[i]) << "\"";
  }
  out << "], \"predicted\": {\"domain\": " << domain
      << ", \"values\": " << PredictedValues(domain)
      << ", \"tuples\": " << PredictedTuples(domain)
      << ", \"rounds\": " << PredictedRounds(domain) << "}}";
  return out.str();
}

std::string MappingAnalysis::ToDot() const {
  std::ostringstream out;
  out << "digraph mapping_analysis {\n";
  out << "  rankdir=LR;\n";
  out << "  label=\""
      << (terminating() ? "terminating (weakly acyclic)"
                        : "potentially non-terminating")
      << "; " << strata.size() << " strata\";\n";
  for (std::size_t s = 0; s < strata.size(); ++s) {
    out << "  subgraph cluster_stratum_" << s << " {\n";
    out << "    label=\"stratum " << s << "\";\n";
    for (std::size_t r : strata[s]) {
      out << "    r" << r << " [shape=box, label=\""
          << DotEscape(rules[r].label)
          << (rules[r].recursive ? "\\n(recursive)" : "") << "\"];\n";
    }
    out << "  }\n";
  }
  for (const RuleEdge& e : rule_edges) {
    out << "  r" << e.from << " -> r" << e.to << ";\n";
  }
  if (!positions.empty()) {
    out << "  subgraph cluster_positions {\n";
    out << "    label=\"position graph (dashed = existential)\";\n";
    for (std::size_t i = 0; i < positions.size(); ++i) {
      out << "    p" << i << " [label=\"" << DotEscape(positions[i].name)
          << "\"];\n";
    }
    out << "  }\n";
    for (const PositionEdge& e : position_edges) {
      out << "  p" << e.from << " -> p" << e.to
          << (e.special ? " [style=dashed, color=red]" : "") << ";\n";
    }
  }
  out << "}\n";
  return out.str();
}

MappingAnalysis AnalyzeMapping(const logic::Mapping& mapping) {
  Builder builder(ChaseMode::kExchange);
  if (mapping.is_second_order()) {
    const std::vector<logic::SoTgdClause>& clauses =
        mapping.so_tgd().clauses;
    for (std::size_t i = 0; i < clauses.size(); ++i) {
      builder.AddSoClause(clauses[i], i);
    }
  } else {
    for (std::size_t i = 0; i < mapping.tgds().size(); ++i) {
      builder.AddTgd(mapping.tgds()[i], i);
    }
  }
  for (std::size_t i = 0; i < mapping.target_egds().size(); ++i) {
    builder.AddEgd(mapping.target_egds()[i], i);
  }
  return builder.Finish();
}

MappingAnalysis AnalyzeClosure(const std::vector<logic::Tgd>& tgds,
                               const std::vector<logic::Egd>& egds) {
  Builder builder(ChaseMode::kClosure);
  for (std::size_t i = 0; i < tgds.size(); ++i) builder.AddTgd(tgds[i], i);
  for (std::size_t i = 0; i < egds.size(); ++i) builder.AddEgd(egds[i], i);
  return builder.Finish();
}

}  // namespace mm2::analysis
