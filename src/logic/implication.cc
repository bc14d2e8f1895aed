#include "logic/implication.h"

#include <map>
#include <set>

#include "chase/chase.h"

namespace mm2::logic {

using instance::Instance;
using instance::Tuple;
using instance::Value;

Result<bool> Implies(const Mapping& mapping, const Tgd& tgd) {
  if (mapping.is_second_order()) {
    return Status::Unsupported(
        "implication testing handles first-order mappings only");
  }
  MM2_RETURN_IF_ERROR(tgd.Validate(nullptr, nullptr));

  // Freeze the tgd body: each universal variable becomes a distinct
  // labeled null (the canonical database).
  std::map<std::string, Value> freeze;
  std::int64_t label = 0;
  for (const std::string& v : tgd.BodyVariables()) {
    freeze[v] = Value::LabeledNull(label++);
  }
  Instance canonical;
  for (const Atom& atom : tgd.body) {
    Tuple tuple;
    tuple.reserve(atom.terms.size());
    for (const Term& t : atom.terms) {
      tuple.push_back(t.is_constant() ? t.value() : freeze.at(t.name()));
    }
    if (!canonical.HasRelation(atom.relation)) {
      canonical.DeclareRelation(atom.relation, tuple.size());
    }
    canonical.InsertUnchecked(atom.relation, std::move(tuple));
  }

  // Chase the canonical database with the mapping's constraints. The chase
  // invents nulls above every label its source holds, so they never collide
  // with the frozen ones.
  MM2_ASSIGN_OR_RETURN(chase::ChaseResult chased,
                       chase::RunChase(mapping, canonical));

  // The tgd is implied iff the head matches in the chase result with the
  // universal variables pinned to their frozen nulls (existentials free);
  // pin by substituting the frozen values as constants into the head.
  std::set<std::string> body_vars = tgd.BodyVariables();
  std::vector<Atom> head;
  head.reserve(tgd.head.size());
  for (const Atom& atom : tgd.head) {
    Atom bound;
    bound.relation = atom.relation;
    for (const Term& t : atom.terms) {
      if (t.is_variable() && body_vars.count(t.name()) > 0) {
        bound.terms.push_back(Term::Const(freeze.at(t.name())));
      } else {
        bound.terms.push_back(t);
      }
    }
    head.push_back(std::move(bound));
  }
  return chase::MatchAtoms(head, chased.target, /*limit=*/1).count > 0;
}

Result<bool> AreEquivalent(const Mapping& a, const Mapping& b) {
  if (a.is_second_order() || b.is_second_order()) {
    return Status::Unsupported(
        "equivalence testing handles first-order mappings only");
  }
  for (const Tgd& tgd : b.tgds()) {
    MM2_ASSIGN_OR_RETURN(bool implied, Implies(a, tgd));
    if (!implied) return false;
  }
  for (const Tgd& tgd : a.tgds()) {
    MM2_ASSIGN_OR_RETURN(bool implied, Implies(b, tgd));
    if (!implied) return false;
  }
  return true;
}

}  // namespace mm2::logic
