#ifndef MM2_ANALYSIS_ANALYSIS_H_
#define MM2_ANALYSIS_ANALYSIS_H_

// Static mapping introspection (paper Sections 2 and 6: mappings are
// first-class artifacts the engine reasons about, not just executes).
// Given a mapping's tgds/egds/SO-clauses this module builds
//
//   1. the *position graph* of Fagin-Kolaitis-Miller-Popa weak acyclicity:
//      nodes are (relation, column) positions; a regular edge copies a
//      universal variable from a body position to a head position; a
//      special edge runs from the body positions of head-used universals
//      to every position where the rule invents a value (an existential
//      variable, or a Skolem function term of an SO-clause). A cycle
//      through a special edge means the chase can keep feeding fresh
//      labelled nulls back into the positions that generate them —
//      potentially non-terminating. No such cycle -> weakly acyclic ->
//      terminating, with polynomial bounds derived from the position
//      ranks (max number of special edges on any path into a position).
//
//   2. the *rule-dependency graph*: an edge i -> j whenever rule i writes
//      a relation rule j's body reads, i.e. firing i can create new work
//      for j. Its SCC condensation, topologically ordered, is the
//      mapping's *stratification*: rules in a stratum only ever receive
//      new input from strictly earlier strata (or from their own SCC).
//      It is reported (`explain mapping`), not scheduled: the chase runs
//      every rule each round, and an attached analysis only arms
//      termination foresight (chase.h, ChaseOptions::analysis).
//
// Two modes mirror the two chase entry points. kExchange models RunChase:
// tgd/SO bodies read the immutable source vocabulary (namespaced "src:")
// and heads write the target ("tgt:"), so tgd-only mappings are always
// weakly acyclic and every tgd sits in its own stratum ahead of the egds.
// kClosure models ChaseInstance: one vocabulary serving both roles, the
// textbook setting where weak acyclicity has teeth.
//
// Everything here is static — no instance is consulted. The Predicted*
// bounds take the active-domain size as a parameter and saturate instead
// of overflowing, so callers can evaluate them on real inputs.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "logic/formula.h"
#include "logic/mapping.h"

namespace mm2::analysis {

enum class ChaseMode { kExchange, kClosure };
enum class Termination { kTerminating, kPotentiallyNonTerminating };

// One rule of the analyzed set, in chase slot order (SO-clauses, then
// first-order tgds, then egds — the order ChaseRun sizes its RuleStats).
struct RuleNode {
  std::string label;  // matches the RuleStats label of the same slot
  std::string kind;   // "tgd" | "so" | "egd"
  std::vector<std::string> reads;   // namespaced body relations
  std::vector<std::string> writes;  // namespaced written relations
  bool creates_values = false;      // existentials or Skolem terms
  std::size_t stratum = 0;          // index into MappingAnalysis::strata
  bool recursive = false;           // in a rule-graph cycle (incl. self-loop)
};

struct RuleEdge {
  std::size_t from = 0;  // writer
  std::size_t to = 0;    // reader
};

struct PositionNode {
  std::string name;  // "R.0", namespaced "src:R.0"/"tgt:R.0" in exchange mode
};

struct PositionEdge {
  std::size_t from = 0;
  std::size_t to = 0;
  bool special = false;  // target position receives invented values
};

struct MappingAnalysis {
  ChaseMode mode = ChaseMode::kExchange;

  std::vector<RuleNode> rules;
  std::vector<RuleEdge> rule_edges;
  std::vector<PositionNode> positions;
  std::vector<PositionEdge> position_edges;

  // SCC condensation of the rule graph in a stable topological order:
  // strata[s] lists rule indices, ascending; s1 < s2 whenever some rule in
  // strata[s1] writes what a rule in strata[s2] reads. Ties are broken by
  // the smallest rule index so the order is deterministic.
  std::vector<std::vector<std::size_t>> strata;

  bool weakly_acyclic = true;
  Termination termination = Termination::kTerminating;
  // When not weakly acyclic: the witness cycle through a special edge,
  // as position names (first entry repeated at the end).
  std::vector<std::string> cycle;

  // Bound ingredients (meaningful when weakly_acyclic).
  std::size_t max_rank = 0;          // max special edges on a path
  std::size_t max_body_vars = 0;     // W: widest rule body (variables)
  std::size_t invention_count = 0;   // E: existentials + Skolem terms
  std::size_t constant_count = 0;    // distinct constants in rule bodies/heads
  std::vector<std::size_t> written_arities;  // one per distinct written rel

  // FKMP-style saturating upper bounds, evaluated at active-domain size
  // `domain`. PredictedValues bounds the number of distinct values (domain
  // constants + invented nulls) via G_0 = domain + constants,
  // G_{i+1} = G_i + E * G_i^W, iterated max_rank times. PredictedTuples
  // sums PredictedValues^arity over the written relations. PredictedRounds
  // bounds the observed ChaseStats::rounds of a chase over an instance
  // with that active domain; it is the testable contract of the
  // classifier. All three saturate at UINT64_MAX, which callers should
  // render as "huge", not as a precise count.
  std::uint64_t PredictedValues(std::uint64_t domain) const;
  std::uint64_t PredictedTuples(std::uint64_t domain) const;
  std::uint64_t PredictedRounds(std::uint64_t domain) const;
  // Whether PredictedRounds reads `domain` at all: closure bounds do, an
  // exchange bound only through target egds. Otherwise the bound is a
  // constant of the mapping and callers may skip the active-domain sweep.
  bool RoundsBoundReadsDomain() const;

  bool terminating() const {
    return termination == Termination::kTerminating;
  }

  // Human-readable report: termination class, strata table, bounds
  // evaluated at `domain`.
  std::string ToText(std::uint64_t domain = 1000) const;
  // One JSON object (single line) with the full graphs, strata, and
  // bounds evaluated at `domain`.
  std::string ToJson(std::uint64_t domain = 1000) const;
  // Graphviz digraph: rule-dependency graph clustered by stratum plus the
  // position graph (special edges dashed). Feed to `dot -Tsvg`.
  std::string ToDot() const;
};

// Analyzes a mapping as RunChase executes it (exchange mode). Covers
// first-order tgds or the SO-tgd's clauses, plus target egds.
MappingAnalysis AnalyzeMapping(const logic::Mapping& mapping);

// Analyzes a closure rule set as ChaseInstance executes it: bodies and
// heads share one vocabulary.
MappingAnalysis AnalyzeClosure(const std::vector<logic::Tgd>& tgds,
                               const std::vector<logic::Egd>& egds);

}  // namespace mm2::analysis

#endif  // MM2_ANALYSIS_ANALYSIS_H_
