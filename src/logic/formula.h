#ifndef MM2_LOGIC_FORMULA_H_
#define MM2_LOGIC_FORMULA_H_

#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "logic/term.h"
#include "model/schema.h"

namespace mm2::logic {

// A relational atom R(t1,...,tn).
struct Atom {
  std::string relation;
  std::vector<Term> terms;

  bool operator==(const Atom&) const = default;

  void CollectVariables(std::set<std::string>* out) const;
  Atom ApplySubstitution(const Substitution& subst) const;
  // Simultaneous alpha-renaming (no binding chase).
  Atom Rename(const VariableRenaming& renaming) const;
  std::string ToString() const;
};

// Unifies two atoms (same relation, same arity, pairwise unifiable terms).
bool UnifyAtoms(const Atom& a, const Atom& b, Substitution* subst);

// A source-to-target tuple-generating dependency (paper Section 6.1):
//   forall x. body(x) -> exists y. head(x, y)
// Variables appearing only in the head are existentially quantified. This
// is the GLAV constraint class the paper adopts for engineered mappings.
struct Tgd {
  std::vector<Atom> body;
  std::vector<Atom> head;

  std::set<std::string> BodyVariables() const;
  std::set<std::string> HeadVariables() const;
  // Head-only variables (the existentials).
  std::set<std::string> ExistentialVariables() const;
  // True if every head variable also occurs in the body.
  bool IsFull() const { return ExistentialVariables().empty(); }

  Tgd ApplySubstitution(const Substitution& subst) const;
  // Renames every variable with fresh names from `gen` (alpha-renaming, so
  // rules can be unified without capture).
  Tgd RenameVariables(NameGenerator* gen) const;

  // Checks shape: nonempty body and head, no function terms (those belong
  // in SoTgd), and — when schemas are supplied — body atoms over `source`,
  // head atoms over `target`, with correct arities.
  Status Validate(const model::Schema* source,
                  const model::Schema* target) const;

  std::string ToString() const;
};

// An equality-generating dependency: forall x. body(x) -> left = right,
// where left/right are variables of the body. Encodes keys and functional
// dependencies on the target.
struct Egd {
  std::vector<Atom> body;
  std::string left;
  std::string right;

  Status Validate(const model::Schema* schema) const;
  std::string ToString() const;
};

// One implication of a second-order tgd. Terms in the head (and in body
// equalities) may mention the existential Skolem functions. Body equalities
// arise during composition when two rules force the same function value.
struct SoTgdClause {
  std::vector<Atom> body;
  std::vector<std::pair<Term, Term>> equalities;  // conjoined with body
  std::vector<Atom> head;

  std::set<std::string> BodyVariables() const;
  SoTgdClause ApplySubstitution(const Substitution& subst) const;
  SoTgdClause Rename(const VariableRenaming& renaming) const;
  std::string ToString() const;
};

// A second-order tgd: exists f1..fk . AND_i clause_i. SO-tgds are closed
// under composition, unlike s-t tgds (Fagin et al., cited in Section 6.1).
struct SoTgd {
  std::set<std::string> functions;
  std::vector<SoTgdClause> clauses;

  // Collects every distinct function term appearing anywhere.
  std::vector<Term> AllFunctionTerms() const;
  std::string ToString() const;
};

// Skolemizes an s-t tgd: each existential variable y becomes f_y(x1..xn)
// over the tgd's body variables (in sorted order). `gen` supplies unique
// function names. The result has no existential variables.
SoTgdClause Skolemize(const Tgd& tgd, NameGenerator* gen,
                      std::set<std::string>* functions_out);

// Attempts the reverse: turns a clause set back into s-t tgds when every
// function term can be re-read as an existential variable. Fails (returns
// nullopt) when a function appears in more than one clause with different
// argument tuples, in an equality, or nested — the cases where the
// composition is genuinely second-order.
std::optional<std::vector<Tgd>> Deskolemize(const SoTgd& so);

// Compact, metric-name-safe labels for the rule in a given slot,
// "<kind><index>:<body>-><head>" (egds: "egd<index>:<body>:<l>=<r>") with
// relation lists joined by '+'. They key the chase's per-rule stats and
// `chase.rule.<label>.*` metrics and name the rules `explain mapping` shows.
std::string RuleLabel(const Tgd& tgd, std::size_t index);
std::string RuleLabel(const SoTgdClause& clause, std::size_t index);
std::string RuleLabel(const Egd& egd, std::size_t index);

// A conjunctive query: head(x) :- body(x, y). The head relation is virtual.
struct ConjunctiveQuery {
  Atom head;
  std::vector<Atom> body;

  std::set<std::string> HeadVariables() const;
  Status Validate() const;  // head vars must appear in body; no functions
  std::string ToString() const;
};

}  // namespace mm2::logic

#endif  // MM2_LOGIC_FORMULA_H_
