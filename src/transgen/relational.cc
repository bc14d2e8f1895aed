#include "transgen/relational.h"

#include <utility>
#include <vector>

#include "chase/chase.h"
#include "instance/value.h"

namespace mm2::transgen {

using algebra::Col;
using algebra::Expr;
using algebra::ExprRef;
using algebra::Lit;
using algebra::NamedExpr;
using algebra::Scalar;
using algebra::ScalarRef;
using instance::Value;
using logic::Atom;
using logic::Term;
using logic::Tgd;

std::string CompiledRelationalMapping::ToString() const {
  std::string out;
  for (const auto& [relation, plan] : loaders) {
    out += "-- loader for " + relation + ":\n" + plan->ToSql() + "\n";
  }
  return out;
}

namespace {

// Compiles a conjunctive body into a join tree. Returns the expression and
// fills `column_of_var` with the (first) output column holding each body
// variable's value.
Result<ExprRef> CompileBody(const model::Schema& source,
                            const std::vector<Atom>& body,
                            std::map<std::string, std::string>* column_of_var) {
  ExprRef plan;
  std::vector<ScalarRef> residual;  // constant / repeated-var selections

  for (std::size_t ai = 0; ai < body.size(); ++ai) {
    const Atom& atom = body[ai];
    const model::Relation* rel = source.FindRelation(atom.relation);
    if (rel == nullptr) {
      return Status::NotFound("body atom over unknown relation '" +
                              atom.relation + "'");
    }
    if (rel->arity() != atom.terms.size()) {
      return Status::InvalidArgument("arity mismatch in atom " +
                                     atom.ToString());
    }
    // Scan with columns renamed to a unique per-atom prefix.
    std::string prefix = "a" + std::to_string(ai) + "_";
    std::vector<NamedExpr> projections;
    for (const model::Attribute& a : rel->attributes()) {
      projections.push_back({prefix + a.name, Col(a.name)});
    }
    ExprRef scan = Expr::Project(Expr::Scan(atom.relation),
                                 std::move(projections));

    std::vector<std::pair<std::string, std::string>> join_keys;
    std::vector<ScalarRef> local;
    for (std::size_t i = 0; i < atom.terms.size(); ++i) {
      const Term& t = atom.terms[i];
      std::string column = prefix + rel->attribute(i).name;
      if (t.is_constant()) {
        local.push_back(Scalar::Eq(Col(column), Lit(t.value())));
        continue;
      }
      if (t.is_function()) {
        return Status::Unsupported(
            "function terms cannot be compiled; use the chase");
      }
      auto it = column_of_var->find(t.name());
      if (it == column_of_var->end()) {
        (*column_of_var)[t.name()] = column;
      } else if (it->second.rfind(prefix, 0) == 0) {
        // Repeated variable within this atom: local selection.
        local.push_back(algebra::ColEqCol(it->second, column));
      } else {
        // Shared with an earlier atom: equijoin key.
        join_keys.push_back({it->second, column});
      }
    }

    if (plan == nullptr) {
      plan = std::move(scan);
    } else if (join_keys.empty()) {
      plan = Expr::Join(std::move(plan), std::move(scan),
                        Expr::JoinKind::kCross, {});
    } else {
      plan = Expr::Join(std::move(plan), std::move(scan),
                        Expr::JoinKind::kInner, std::move(join_keys));
    }
    for (ScalarRef& s : local) residual.push_back(std::move(s));
  }
  if (!residual.empty()) {
    plan = Expr::Select(std::move(plan), Scalar::And(std::move(residual)));
  }
  return plan;
}

}  // namespace

Result<CompiledRelationalMapping> CompileRelationalMapping(
    const logic::Mapping& mapping) {
  if (mapping.is_second_order()) {
    return Status::Unsupported(
        "second-order mappings need the chase (Skolem value invention)");
  }
  if (!mapping.target_egds().empty()) {
    return Status::Unsupported(
        "mappings with target egds need the chase (null unification)");
  }
  for (const Tgd& tgd : mapping.tgds()) {
    if (tgd.body.size() > kMaxCompiledBodyAtoms) {
      return Status::InvalidArgument(
          "tgd body of " + std::to_string(tgd.body.size()) +
          " atoms exceeds the compiled loader's limit of " +
          std::to_string(kMaxCompiledBodyAtoms) + "; use exchange");
    }
  }
  MM2_RETURN_IF_ERROR(mapping.Validate());

  CompiledRelationalMapping compiled;
  // Per target relation, collect one branch per (tgd, head atom).
  std::map<std::string, std::vector<ExprRef>> branches;
  for (const Tgd& tgd : mapping.tgds()) {
    std::map<std::string, std::string> column_of_var;
    MM2_ASSIGN_OR_RETURN(ExprRef body_plan,
                         CompileBody(mapping.source(), tgd.body,
                                     &column_of_var));
    for (const Atom& head : tgd.head) {
      const model::Relation* rel =
          mapping.target().FindRelation(head.relation);
      if (rel == nullptr) {
        return Status::NotFound("head atom over unknown relation '" +
                                head.relation + "'");
      }
      std::vector<NamedExpr> out;
      for (std::size_t i = 0; i < head.terms.size(); ++i) {
        const Term& t = head.terms[i];
        const std::string& name = rel->attribute(i).name;
        if (t.is_constant()) {
          out.push_back({name, Lit(t.value())});
        } else if (t.is_variable()) {
          auto it = column_of_var.find(t.name());
          if (it == column_of_var.end()) {
            // Existential: flat NULL approximation.
            ++compiled.null_approximations;
            out.push_back({name, Lit(Value::Null())});
          } else {
            out.push_back({name, Col(it->second)});
          }
        } else {
          return Status::Unsupported("function term in head");
        }
      }
      branches[head.relation].push_back(
          Expr::Project(body_plan, std::move(out)));
    }
  }
  for (auto& [relation, parts] : branches) {
    ExprRef plan =
        parts.size() == 1 ? parts.front() : Expr::Union(std::move(parts));
    compiled.loaders[relation] = Expr::Distinct(std::move(plan));
  }
  return compiled;
}

Result<instance::Instance> ExecuteCompiledMapping(
    const CompiledRelationalMapping&, const logic::Mapping& mapping,
    const instance::Instance& source) {
  instance::Instance target = instance::Instance::EmptyFor(mapping.target());
  for (const Tgd& tgd : mapping.tgds()) {
    const chase::Matches matches = chase::MatchAtoms(tgd.body, source);
    if (matches.count == 0) continue;
    for (const Atom& head : tgd.head) {
      // Each column reads a constant, a body slot, or NULL for an
      // existential.
      std::vector<chase::PlanTerm> columns;
      for (const Term& t : head.terms) {
        columns.push_back(chase::CompileTerm(t, matches.slots));
      }
      auto project = [&](std::size_t i) {
        const Value* frame = matches.row(i);
        instance::Tuple row;
        row.reserve(columns.size());
        for (const chase::PlanTerm& c : columns) {
          switch (c.kind) {
            case chase::PlanTerm::Kind::kConstant:
              row.push_back(c.value);
              break;
            case chase::PlanTerm::Kind::kSlot:
              row.push_back(frame[c.slot]);
              break;
            default:
              row.push_back(Value::Null());
          }
        }
        return row;
      };
      // The first row takes the checked insert, which refuses a missing
      // relation or a mismatched arity; the rest have the same shape.
      MM2_RETURN_IF_ERROR(target.Insert(head.relation, project(0)));
      instance::RelationInstance* rel = target.FindMutable(head.relation);
      for (std::size_t i = 1; i < matches.count; ++i) rel->Insert(project(i));
    }
  }
  return target;
}

}  // namespace mm2::transgen
