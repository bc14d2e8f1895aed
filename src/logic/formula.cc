#include "logic/formula.h"

#include <algorithm>
#include <map>

#include "common/strings.h"

namespace mm2::logic {

namespace {

std::string AtomsToString(const std::vector<Atom>& atoms) {
  std::vector<std::string> parts;
  parts.reserve(atoms.size());
  for (const Atom& a : atoms) parts.push_back(a.ToString());
  return Join(parts, " & ");
}

Status ValidateAtoms(const std::vector<Atom>& atoms,
                     const model::Schema* schema, const char* side) {
  for (const Atom& atom : atoms) {
    if (atom.relation.empty()) {
      return Status::InvalidArgument(std::string(side) +
                                     " atom with empty relation name");
    }
    if (schema != nullptr) {
      const model::Relation* rel = schema->FindRelation(atom.relation);
      if (rel == nullptr) {
        return Status::NotFound(std::string(side) + " atom over '" +
                                atom.relation + "' missing from schema '" +
                                schema->name() + "'");
      }
      if (rel->arity() != atom.terms.size()) {
        return Status::InvalidArgument(
            "atom " + atom.ToString() + " has arity " +
            std::to_string(atom.terms.size()) + ", relation expects " +
            std::to_string(rel->arity()));
      }
    }
  }
  return Status::OK();
}

bool AtomsHaveFunctions(const std::vector<Atom>& atoms) {
  for (const Atom& atom : atoms) {
    for (const Term& t : atom.terms) {
      if (t.is_function()) return true;
    }
  }
  return false;
}

}  // namespace

void Atom::CollectVariables(std::set<std::string>* out) const {
  for (const Term& t : terms) t.CollectVariables(out);
}

Atom Atom::ApplySubstitution(const Substitution& subst) const {
  Atom out;
  out.relation = relation;
  out.terms.reserve(terms.size());
  for (const Term& t : terms) out.terms.push_back(subst.Apply(t));
  return out;
}

Atom Atom::Rename(const VariableRenaming& renaming) const {
  Atom out;
  out.relation = relation;
  out.terms.reserve(terms.size());
  for (const Term& t : terms) out.terms.push_back(ApplyRenaming(renaming, t));
  return out;
}

std::string Atom::ToString() const {
  std::string out = relation + "(";
  for (std::size_t i = 0; i < terms.size(); ++i) {
    if (i > 0) out += ", ";
    out += terms[i].ToString();
  }
  out += ")";
  return out;
}

bool UnifyAtoms(const Atom& a, const Atom& b, Substitution* subst) {
  if (a.relation != b.relation || a.terms.size() != b.terms.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.terms.size(); ++i) {
    if (!UnifyTerms(a.terms[i], b.terms[i], subst)) return false;
  }
  return true;
}

std::set<std::string> Tgd::BodyVariables() const {
  std::set<std::string> vars;
  for (const Atom& a : body) a.CollectVariables(&vars);
  return vars;
}

std::set<std::string> Tgd::HeadVariables() const {
  std::set<std::string> vars;
  for (const Atom& a : head) a.CollectVariables(&vars);
  return vars;
}

std::set<std::string> Tgd::ExistentialVariables() const {
  std::set<std::string> body_vars = BodyVariables();
  std::set<std::string> existential;
  for (const std::string& v : HeadVariables()) {
    if (body_vars.count(v) == 0) existential.insert(v);
  }
  return existential;
}

Tgd Tgd::ApplySubstitution(const Substitution& subst) const {
  Tgd out;
  out.body.reserve(body.size());
  out.head.reserve(head.size());
  for (const Atom& a : body) out.body.push_back(a.ApplySubstitution(subst));
  for (const Atom& a : head) out.head.push_back(a.ApplySubstitution(subst));
  return out;
}

Tgd Tgd::RenameVariables(NameGenerator* gen) const {
  std::set<std::string> vars = BodyVariables();
  for (const std::string& v : HeadVariables()) vars.insert(v);
  VariableRenaming renaming;
  for (const std::string& v : vars) renaming[v] = gen->Next();
  Tgd out;
  out.body.reserve(body.size());
  out.head.reserve(head.size());
  for (const Atom& a : body) out.body.push_back(a.Rename(renaming));
  for (const Atom& a : head) out.head.push_back(a.Rename(renaming));
  return out;
}

Status Tgd::Validate(const model::Schema* source,
                     const model::Schema* target) const {
  if (body.empty()) return Status::InvalidArgument("tgd with empty body");
  if (head.empty()) return Status::InvalidArgument("tgd with empty head");
  if (AtomsHaveFunctions(body) || AtomsHaveFunctions(head)) {
    return Status::InvalidArgument(
        "tgd contains function terms; use SoTgd for skolemized rules: " +
        ToString());
  }
  MM2_RETURN_IF_ERROR(ValidateAtoms(body, source, "body"));
  MM2_RETURN_IF_ERROR(ValidateAtoms(head, target, "head"));
  return Status::OK();
}

std::string Tgd::ToString() const {
  return AtomsToString(body) + " -> " + AtomsToString(head);
}

Status Egd::Validate(const model::Schema* schema) const {
  if (body.empty()) return Status::InvalidArgument("egd with empty body");
  MM2_RETURN_IF_ERROR(ValidateAtoms(body, schema, "body"));
  std::set<std::string> vars;
  for (const Atom& a : body) a.CollectVariables(&vars);
  if (vars.count(left) == 0 || vars.count(right) == 0) {
    return Status::InvalidArgument("egd equality over unbound variable: " +
                                   ToString());
  }
  return Status::OK();
}

std::string Egd::ToString() const {
  return AtomsToString(body) + " -> " + left + " = " + right;
}

namespace {

std::string JoinRelations(const std::vector<Atom>& atoms) {
  std::string out;
  for (const Atom& atom : atoms) {
    if (!out.empty()) out += '+';
    out += atom.relation;
  }
  return out;
}

}  // namespace

std::string RuleLabel(const Tgd& tgd, std::size_t index) {
  return "tgd" + std::to_string(index) + ":" + JoinRelations(tgd.body) +
         "->" + JoinRelations(tgd.head);
}

std::string RuleLabel(const SoTgdClause& clause, std::size_t index) {
  return "so" + std::to_string(index) + ":" + JoinRelations(clause.body) +
         "->" + JoinRelations(clause.head);
}

std::string RuleLabel(const Egd& egd, std::size_t index) {
  return "egd" + std::to_string(index) + ":" + JoinRelations(egd.body) + ":" +
         egd.left + "=" + egd.right;
}

std::set<std::string> SoTgdClause::BodyVariables() const {
  std::set<std::string> vars;
  for (const Atom& a : body) a.CollectVariables(&vars);
  return vars;
}

SoTgdClause SoTgdClause::ApplySubstitution(const Substitution& subst) const {
  SoTgdClause out;
  for (const Atom& a : body) out.body.push_back(a.ApplySubstitution(subst));
  for (const auto& [l, r] : equalities) {
    out.equalities.emplace_back(subst.Apply(l), subst.Apply(r));
  }
  for (const Atom& a : head) out.head.push_back(a.ApplySubstitution(subst));
  return out;
}

SoTgdClause SoTgdClause::Rename(const VariableRenaming& renaming) const {
  SoTgdClause out;
  for (const Atom& a : body) out.body.push_back(a.Rename(renaming));
  for (const auto& [l, r] : equalities) {
    out.equalities.emplace_back(ApplyRenaming(renaming, l),
                                ApplyRenaming(renaming, r));
  }
  for (const Atom& a : head) out.head.push_back(a.Rename(renaming));
  return out;
}

std::string SoTgdClause::ToString() const {
  std::string out = AtomsToString(body);
  for (const auto& [l, r] : equalities) {
    out += " & " + l.ToString() + " = " + r.ToString();
  }
  out += " -> " + AtomsToString(head);
  return out;
}

std::vector<Term> SoTgd::AllFunctionTerms() const {
  std::vector<Term> out;
  auto visit_term = [&](const Term& t, auto&& self) -> void {
    if (t.is_function()) {
      if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
      for (const Term& arg : t.args()) self(arg, self);
    }
  };
  for (const SoTgdClause& clause : clauses) {
    for (const Atom& a : clause.head) {
      for (const Term& t : a.terms) visit_term(t, visit_term);
    }
    for (const auto& [l, r] : clause.equalities) {
      visit_term(l, visit_term);
      visit_term(r, visit_term);
    }
  }
  return out;
}

std::string SoTgd::ToString() const {
  std::string out;
  if (!functions.empty()) {
    std::vector<std::string> fs(functions.begin(), functions.end());
    out += "exists " + Join(fs, ", ") + " . ";
  }
  std::vector<std::string> parts;
  parts.reserve(clauses.size());
  for (const SoTgdClause& c : clauses) parts.push_back("(" + c.ToString() + ")");
  out += Join(parts, " & ");
  return out;
}

SoTgdClause Skolemize(const Tgd& tgd, NameGenerator* gen,
                      std::set<std::string>* functions_out) {
  std::set<std::string> body_vars = tgd.BodyVariables();
  std::vector<Term> args;
  args.reserve(body_vars.size());
  for (const std::string& v : body_vars) args.push_back(Term::Var(v));

  Substitution subst;
  for (const std::string& existential : tgd.ExistentialVariables()) {
    std::string fname = gen->Next();
    if (functions_out != nullptr) functions_out->insert(fname);
    subst.Bind(existential, Term::Func(fname, args));
  }

  SoTgdClause clause;
  clause.body = tgd.body;
  for (const Atom& a : tgd.head) {
    clause.head.push_back(a.ApplySubstitution(subst));
  }
  return clause;
}

std::optional<std::vector<Tgd>> Deskolemize(const SoTgd& so) {
  // A function f is deskolemizable when: it never occurs nested or in an
  // equality, it occurs in exactly one clause, and within that clause all
  // its occurrences share one argument tuple made only of distinct
  // variables. Then f(args) can be re-read as one existential variable.
  struct FunctionUse {
    int clause = -1;
    std::vector<Term> args;
    bool bad = false;
  };
  std::map<std::string, FunctionUse> uses;

  auto note_term = [&](const Term& t, int clause_index, bool in_equality,
                       bool nested, auto&& self) -> void {
    if (!t.is_function()) return;
    FunctionUse& use = uses[t.name()];
    if (in_equality || nested) {
      use.bad = true;
    } else if (use.clause == -1) {
      use.clause = clause_index;
      use.args = t.args();
      for (const Term& arg : t.args()) {
        if (!arg.is_variable()) use.bad = true;
      }
      std::set<Term> distinct(t.args().begin(), t.args().end());
      if (distinct.size() != t.args().size()) use.bad = true;
    } else if (use.clause != clause_index || use.args != t.args()) {
      use.bad = true;
    }
    for (const Term& arg : t.args()) {
      self(arg, clause_index, in_equality, /*nested=*/true, self);
    }
  };

  for (std::size_t ci = 0; ci < so.clauses.size(); ++ci) {
    const SoTgdClause& clause = so.clauses[ci];
    for (const Atom& a : clause.head) {
      for (const Term& t : a.terms) {
        note_term(t, static_cast<int>(ci), false, false, note_term);
      }
    }
    for (const auto& [l, r] : clause.equalities) {
      note_term(l, static_cast<int>(ci), true, false, note_term);
      note_term(r, static_cast<int>(ci), true, false, note_term);
    }
    if (!clause.equalities.empty()) {
      // Equalities between non-function terms could be inlined, but the
      // composition algorithm only emits them for function terms; reject.
      return std::nullopt;
    }
  }
  for (const auto& [fname, use] : uses) {
    if (use.bad) return std::nullopt;
  }

  std::vector<Tgd> tgds;
  NameGenerator evar("_e");
  for (const SoTgdClause& clause : so.clauses) {
    Tgd tgd;
    tgd.body = clause.body;
    // Replace each function term with its existential variable.
    std::map<std::string, Term> replacement;
    auto rewrite = [&](const Term& t, auto&& self) -> Term {
      if (t.is_function()) {
        auto it = replacement.find(t.name());
        if (it == replacement.end()) {
          it = replacement.emplace(t.name(), evar.NextVar()).first;
        }
        return it->second;
      }
      if (t.is_variable() || t.is_constant()) return t;
      std::vector<Term> args;
      for (const Term& arg : t.args()) args.push_back(self(arg, self));
      return Term::Func(t.name(), std::move(args));
    };
    for (const Atom& a : clause.head) {
      Atom out;
      out.relation = a.relation;
      for (const Term& t : a.terms) out.terms.push_back(rewrite(t, rewrite));
      tgd.head.push_back(std::move(out));
    }
    tgds.push_back(std::move(tgd));
  }
  return tgds;
}

std::set<std::string> ConjunctiveQuery::HeadVariables() const {
  std::set<std::string> vars;
  head.CollectVariables(&vars);
  return vars;
}

Status ConjunctiveQuery::Validate() const {
  if (body.empty()) return Status::InvalidArgument("query with empty body");
  if (AtomsHaveFunctions(body) || AtomsHaveFunctions({head})) {
    return Status::InvalidArgument("query contains function terms");
  }
  std::set<std::string> body_vars;
  for (const Atom& a : body) a.CollectVariables(&body_vars);
  for (const std::string& v : HeadVariables()) {
    if (body_vars.count(v) == 0) {
      return Status::InvalidArgument("head variable '" + v +
                                     "' not bound in body: " + ToString());
    }
  }
  return Status::OK();
}

std::string ConjunctiveQuery::ToString() const {
  return head.ToString() + " :- " + AtomsToString(body);
}

}  // namespace mm2::logic
