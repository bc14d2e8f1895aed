#include "runtime/constraints.h"

#include <map>
#include <optional>
#include <utility>

#include "compose/compose.h"

namespace mm2::runtime {

using instance::Instance;
using instance::Tuple;
using instance::Value;
using logic::Atom;
using logic::Egd;
using logic::Mapping;
using logic::SoTgdClause;
using logic::Term;
using logic::Tgd;

std::string EgdViolation::ToString() const {
  return "egd '" + egd.ToString() + "' violated: " + left_fact.ToString() +
         " vs " + right_fact.ToString() + " (" + left_value.ToString() +
         " != " + right_value.ToString() + ")";
}

std::vector<EgdViolation> CheckEgds(const Instance& database,
                                    const std::vector<Egd>& egds,
                                    std::size_t limit) {
  std::vector<EgdViolation> violations;
  for (const Egd& egd : egds) {
    const chase::Matches matches = chase::MatchAtoms(egd.body, database);
    const chase::Slot left = matches.slots.Find(egd.left);
    const chase::Slot right = matches.slots.Find(egd.right);
    if (left == chase::kNoSlot || right == chase::kNoSlot) continue;
    std::size_t found = 0;
    for (std::size_t i = 0; i < matches.count; ++i) {
      const Value* frame = matches.row(i);
      if (frame[left] == frame[right]) continue;
      EgdViolation violation;
      violation.egd = egd;
      violation.left_value = frame[left];
      violation.right_value = frame[right];
      // Reconstruct the two witness facts (first and last body atom images
      // carrying the disagreeing values; fall back to the first atom).
      auto instantiate = [&](const Atom& atom) {
        chase::Fact fact;
        fact.relation = atom.relation;
        for (const Term& t : atom.terms) {
          fact.tuple.push_back(t.is_constant()
                                   ? t.value()
                                   : frame[matches.slots.Find(t.name())]);
        }
        return fact;
      };
      violation.left_fact = instantiate(egd.body.front());
      violation.right_fact = instantiate(egd.body.back());
      violations.push_back(std::move(violation));
      ++found;
      if (limit != 0 && found >= limit) break;
    }
  }
  return violations;
}

Result<bool> ImpliesTargetEgd(const Mapping& mapping,
                              const std::vector<Egd>& source_egds,
                              const Egd& target_egd,
                              Instance* counterexample) {
  if (mapping.is_second_order()) {
    return Status::Unsupported(
        "ImpliesTargetEgd handles first-order mappings");
  }
  MM2_RETURN_IF_ERROR(target_egd.Validate(nullptr));

  // Pose the egd body as a consumer rule producing Viol(left, right) and
  // resolve it against the mapping, exactly as Compose and RewriteQuery do.
  model::Schema viol_schema("viol", model::Metamodel::kRelational);
  viol_schema.AddRelation(model::Relation(
      "Viol", {{"l", model::DataType::String(), false},
               {"r", model::DataType::String(), false}}));
  Tgd consumer;
  consumer.body = target_egd.body;
  consumer.head = {
      Atom{"Viol", {Term::Var(target_egd.left), Term::Var(target_egd.right)}}};
  Mapping query = Mapping::FromTgds("viol_probe", mapping.target(),
                                    std::move(viol_schema), {consumer});
  MM2_ASSIGN_OR_RETURN(Mapping composed, compose::Compose(mapping, query));

  // For each resolved clause, freeze its body as the most general source
  // instance triggering it (variables become labeled nulls), close it
  // under the source egds, and check whether the two equated values can
  // still differ on the canonical exchange result.
  for (const SoTgdClause& clause : composed.Skolemized().clauses) {
    // Freeze.
    std::set<std::string> vars;
    for (const Atom& a : clause.body) a.CollectVariables(&vars);
    std::map<std::string, Value> freeze;
    std::int64_t label = 0;
    for (const std::string& v : vars) {
      freeze[v] = Value::LabeledNull(label++);
    }
    Instance frozen = Instance::EmptyFor(mapping.source());
    for (const Atom& a : clause.body) {
      Tuple tuple;
      for (const Term& t : a.terms) {
        tuple.push_back(t.is_constant() ? t.value() : freeze.at(t.name()));
      }
      if (!frozen.HasRelation(a.relation)) {
        frozen.DeclareRelation(a.relation, tuple.size());
      }
      frozen.InsertUnchecked(a.relation, std::move(tuple));
    }
    // Close under source constraints; an inconsistency means no legal
    // source can trigger this clause at all.
    auto closed = chase::ChaseInstance({}, source_egds, frozen);
    if (!closed.ok()) {
      if (closed.status().code() == StatusCode::kInconsistent) continue;
      return closed.status();
    }
    // Re-match the clause body against the closed instance; every match is
    // a potential violation pattern.
    const chase::Matches matches =
        chase::MatchAtoms(clause.body, closed->target);
    for (std::size_t i = 0; i < matches.count; ++i) {
      const Value* frame = matches.row(i);
      bool premise_holds = true;
      for (const auto& [l, r] : clause.equalities) {
        std::optional<Term> gl = chase::GroundTerm(l, matches.slots, frame);
        std::optional<Term> gr = chase::GroundTerm(r, matches.slots, frame);
        // Structurally distinct ground Skolem terms denote independent
        // invented values on the canonical target; the premise equality
        // then fails there. (Conservative: see header.)
        if (!gl.has_value() || !gr.has_value() || !(*gl == *gr)) {
          premise_holds = false;
          break;
        }
      }
      if (!premise_holds) continue;
      if (clause.head.empty() || clause.head[0].terms.size() != 2) continue;
      const std::vector<Term>& equated = clause.head[0].terms;
      std::optional<Term> gl =
          chase::GroundTerm(equated[0], matches.slots, frame);
      std::optional<Term> gr =
          chase::GroundTerm(equated[1], matches.slots, frame);
      if (!gl.has_value() || !gr.has_value()) continue;
      if (!(*gl == *gr)) {
        // The equated positions can carry distinct values: counterexample.
        if (counterexample != nullptr) {
          *counterexample = closed->target;
        }
        return false;
      }
    }
  }
  return true;
}

}  // namespace mm2::runtime
