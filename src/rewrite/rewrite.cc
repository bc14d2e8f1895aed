#include "rewrite/rewrite.h"

#include <optional>
#include <set>
#include <utility>

#include "chase/chase.h"
#include "compose/compose.h"

namespace mm2::rewrite {

using instance::Instance;
using instance::Tuple;
using instance::Value;
using logic::Atom;
using logic::ConjunctiveQuery;
using logic::Mapping;
using logic::SoTgdClause;
using logic::Term;
using logic::Tgd;

Result<RewriteResult> RewriteQuery(const Mapping& mapping,
                                   const ConjunctiveQuery& query) {
  MM2_RETURN_IF_ERROR(query.Validate());
  // Pose the query as a one-rule mapping target => {answer relation} and
  // resolve it against the mapping with the Compose machinery.
  model::Schema answer_schema("q_answer", model::Metamodel::kRelational);
  std::vector<model::Attribute> attrs;
  for (std::size_t i = 0; i < query.head.terms.size(); ++i) {
    attrs.push_back({"c" + std::to_string(i),
                     model::DataType::String(), false});
  }
  answer_schema.AddRelation(
      model::Relation(query.head.relation, std::move(attrs)));
  Tgd as_rule;
  as_rule.body = query.body;
  as_rule.head = {query.head};
  Mapping query_mapping = Mapping::FromTgds(
      "q", mapping.target(), std::move(answer_schema), {as_rule});

  compose::ComposeStats stats;
  MM2_ASSIGN_OR_RETURN(Mapping composed,
                       compose::Compose(mapping, query_mapping, {}, &stats));
  RewriteResult result;
  result.rules = composed.Skolemized();
  result.resolutions = stats.combinations_examined;
  result.dropped_unresolvable = stats.clauses_unresolvable;
  return result;
}

Result<std::vector<Tuple>> EvaluateRewriting(const RewriteResult& rewriting,
                                             const Instance& source) {
  std::set<Tuple> answers;
  for (const SoTgdClause& clause : rewriting.rules.clauses) {
    const chase::Matches matches = chase::MatchAtoms(clause.body, source);
    for (std::size_t i = 0; i < matches.count; ++i) {
      const Value* frame = matches.row(i);
      // Equalities: certain only when both sides ground to the same term
      // (two equal constants, or structurally identical Skolem terms).
      bool certain = true;
      for (const auto& [l, r] : clause.equalities) {
        std::optional<Term> gl = chase::GroundTerm(l, matches.slots, frame);
        std::optional<Term> gr = chase::GroundTerm(r, matches.slots, frame);
        if (!gl.has_value() || !gr.has_value() || !(*gl == *gr)) {
          certain = false;
          break;
        }
      }
      if (!certain) continue;
      for (const Atom& head : clause.head) {
        Tuple row;
        row.reserve(head.terms.size());
        bool ground_constants = true;
        for (const Term& t : head.terms) {
          std::optional<Term> g = chase::GroundTerm(t, matches.slots, frame);
          if (!g.has_value() || !g->is_constant() ||
              g->value().is_labeled_null()) {
            ground_constants = false;
            break;
          }
          row.push_back(g->value());
        }
        if (ground_constants) answers.insert(std::move(row));
      }
    }
  }
  return std::vector<Tuple>(answers.begin(), answers.end());
}

Result<std::vector<Tuple>> AnswerOnSource(const Mapping& mapping,
                                          const ConjunctiveQuery& query,
                                          const Instance& source) {
  MM2_ASSIGN_OR_RETURN(RewriteResult rewriting,
                       RewriteQuery(mapping, query));
  return EvaluateRewriting(rewriting, source);
}

Result<std::vector<Tuple>> AnswerThroughChain(
    const std::vector<Mapping>& chain, const ConjunctiveQuery& query,
    const Instance& source) {
  if (chain.empty()) {
    return Status::InvalidArgument("empty mapping chain");
  }
  Mapping composed = chain.front();
  for (std::size_t i = 1; i < chain.size(); ++i) {
    MM2_ASSIGN_OR_RETURN(composed, compose::Compose(composed, chain[i]));
  }
  return AnswerOnSource(composed, query, source);
}

}  // namespace mm2::rewrite
