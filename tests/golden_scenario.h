// The golden exchange scenarios shared by MatchPlanGoldenTest
// (match_plan_test.cc) and ProvenanceGoldenTest (provenance_test.cc): one
// seeded generator, so both pin the same chases.
#ifndef MM2_TESTS_GOLDEN_SCENARIO_H_
#define MM2_TESTS_GOLDEN_SCENARIO_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "instance/instance.h"
#include "instance/value.h"
#include "logic/formula.h"
#include "logic/mapping.h"
#include "logic/term.h"
#include "model/schema.h"
#include "workload/generators.h"

namespace mm2::chase {

inline model::Relation IntRelation(const std::string& name, std::size_t arity) {
  std::vector<model::Attribute> attrs;
  for (std::size_t i = 0; i < arity; ++i) {
    attrs.push_back({"a" + std::to_string(i), model::DataType::Int64()});
  }
  return model::Relation(name, std::move(attrs), {0});
}

// A random exchange: tgds with joins, body constants and existential
// heads, the same tgds skolemized into SO clauses (some with premise
// equalities), and occasional target key egds.
struct GoldenScenario {
  model::Schema source{"Src", model::Metamodel::kRelational};
  model::Schema target{"Tgt", model::Metamodel::kRelational};
  std::vector<logic::Tgd> tgds;
  logic::SoTgd so;
  std::vector<logic::Egd> egds;
  instance::Instance db;
};

inline GoldenScenario MakeGoldenScenario(std::uint64_t seed) {
  using instance::Instance;
  using instance::Tuple;
  using instance::Value;
  using logic::Atom;
  using logic::Egd;
  using logic::Term;
  using logic::Tgd;
  using workload::Rng;
  Rng rng(seed * 31 + 5);
  GoldenScenario s;
  std::vector<std::size_t> src_arity;
  std::vector<std::size_t> tgt_arity;
  for (std::size_t i = 0; i < 3; ++i) {
    src_arity.push_back(1 + rng.Uniform(3));
    s.source.AddRelation(IntRelation("R" + std::to_string(i), src_arity[i]));
    tgt_arity.push_back(1 + rng.Uniform(3));
    s.target.AddRelation(IntRelation("T" + std::to_string(i), tgt_arity[i]));
  }
  logic::NameGenerator functions("f");
  const std::size_t rules = 2 + rng.Uniform(3);
  for (std::size_t r = 0; r < rules; ++r) {
    Tgd tgd;
    std::vector<std::string> vars;
    const std::size_t body_atoms = 1 + rng.Uniform(2);
    for (std::size_t b = 0; b < body_atoms; ++b) {
      const std::size_t rel = rng.Uniform(3);
      Atom atom{"R" + std::to_string(rel), {}};
      for (std::size_t c = 0; c < src_arity[rel]; ++c) {
        if (rng.Chance(0.1)) {
          atom.terms.push_back(Term::Const(
              Value::Int64(static_cast<std::int64_t>(rng.Uniform(4)))));
        } else if (!vars.empty() && rng.Chance(0.5)) {
          atom.terms.push_back(Term::Var(vars[rng.Uniform(vars.size())]));
        } else {
          vars.push_back("x" + std::to_string(vars.size()));
          atom.terms.push_back(Term::Var(vars.back()));
        }
      }
      tgd.body.push_back(std::move(atom));
    }
    if (vars.empty()) vars.push_back("x0");  // all-constant body: no head vars
    std::size_t existentials = 0;
    const std::size_t head_atoms = 1 + rng.Uniform(2);
    for (std::size_t h = 0; h < head_atoms; ++h) {
      const std::size_t rel = rng.Uniform(3);
      Atom atom{"T" + std::to_string(rel), {}};
      for (std::size_t c = 0; c < tgt_arity[rel]; ++c) {
        if (rng.Chance(0.35)) {
          atom.terms.push_back(Term::Var("y" + std::to_string(existentials++)));
        } else {
          atom.terms.push_back(Term::Var(vars[rng.Uniform(vars.size())]));
        }
      }
      tgd.head.push_back(std::move(atom));
    }
    if (tgd.BodyVariables().count("x0") == 0) {
      // The head used a variable no body atom binds; keep the rule valid.
      for (Atom& atom : tgd.head) {
        for (Term& t : atom.terms) {
          if (t.is_variable() && t.name() == "x0") {
            t = Term::Const(Value::Int64(0));
          }
        }
      }
    }
    logic::SoTgdClause clause = logic::Skolemize(tgd, &functions, &s.so.functions);
    // Premise equalities: a Skolem term forced equal to a body value
    // (unifies a null with a constant), or two body values (a filter).
    std::vector<Term> skolems;
    for (const Atom& atom : clause.head) {
      for (const Term& t : atom.terms) {
        if (t.is_function()) skolems.push_back(t);
      }
    }
    const std::set<std::string> body_vars = tgd.BodyVariables();
    std::vector<std::string> bv(body_vars.begin(), body_vars.end());
    if (!skolems.empty() && !bv.empty() && rng.Chance(0.3)) {
      clause.equalities.emplace_back(skolems[rng.Uniform(skolems.size())],
                                     Term::Var(bv[rng.Uniform(bv.size())]));
    }
    if (bv.size() >= 2 && rng.Chance(0.2)) {
      clause.equalities.emplace_back(Term::Var(bv[0]), Term::Var(bv[1]));
    }
    s.so.clauses.push_back(std::move(clause));
    s.tgds.push_back(std::move(tgd));
  }
  for (std::size_t rel = 0; rel < 3; ++rel) {
    if (tgt_arity[rel] < 2 || rng.Chance(0.5)) continue;
    Atom a1{"T" + std::to_string(rel), {Term::Var("k")}};
    Atom a2{"T" + std::to_string(rel), {Term::Var("k")}};
    for (std::size_t c = 1; c < tgt_arity[rel]; ++c) {
      a1.terms.push_back(Term::Var("u" + std::to_string(c)));
      a2.terms.push_back(Term::Var("v" + std::to_string(c)));
    }
    Egd egd;
    egd.body = {std::move(a1), std::move(a2)};
    egd.left = "u1";
    egd.right = "v1";
    s.egds.push_back(std::move(egd));
  }
  s.db = Instance::EmptyFor(s.source);
  for (std::size_t rel = 0; rel < 3; ++rel) {
    const std::size_t rows = 3 + rng.Uniform(8);
    for (std::size_t row = 0; row < rows; ++row) {
      Tuple t;
      for (std::size_t c = 0; c < src_arity[rel]; ++c) {
        t.push_back(Value::Int64(static_cast<std::int64_t>(rng.Uniform(5))));
      }
      s.db.InsertUnchecked("R" + std::to_string(rel), std::move(t));
    }
  }
  return s;
}

}  // namespace mm2::chase

#endif  // MM2_TESTS_GOLDEN_SCENARIO_H_
