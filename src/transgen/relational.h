#ifndef MM2_TRANSGEN_RELATIONAL_H_
#define MM2_TRANSGEN_RELATIONAL_H_

#include <cstddef>
#include <map>
#include <string>

#include "algebra/eval.h"
#include "algebra/expr.h"
#include "common/result.h"
#include "instance/instance.h"
#include "logic/mapping.h"

namespace mm2::transgen {

// TransGen for flat relational mappings: compiles a first-order (s-t tgd)
// mapping into one algebra expression per target relation. This is the
// "batch loading" fast path of Section 5 — instead of chasing tuple by
// tuple, the whole load becomes a set-oriented query plan:
//
//   - a conjunctive body compiles to a join tree (shared variables become
//     equijoin keys, repeated variables within an atom and constants
//     become selections, disconnected atoms become cross products);
//   - each head atom becomes a projection of that tree;
//   - multiple tgds deriving the same relation union together (dedup'd).
//
// Existential head variables compile to SQL NULL columns — the flat
// approximation of labeled nulls. It is exact for queries that never
// inspect those columns; callers needing genuine labeled-null semantics
// (certain answers over invented values, egd unification) use the chase.
// Mappings with target egds are rejected: keys require the chase.
//
// A body compiles to a left-deep join tree one level per atom, and the
// algebra's passes (SQL rendering, evaluation) recurse over it, so a tgd
// body of more than kMaxCompiledBodyAtoms atoms is refused with
// InvalidArgument instead of exhausting the stack; the chase (`exchange`)
// has no such limit. The figure is the text parser's nesting limit.
inline constexpr std::size_t kMaxCompiledBodyAtoms = 1000;

struct CompiledRelationalMapping {
  // target relation -> plan producing its extension.
  std::map<std::string, algebra::ExprRef> loaders;
  // How many existential columns were approximated by NULL.
  std::size_t null_approximations = 0;

  std::string ToString() const;
};

Result<CompiledRelationalMapping> CompileRelationalMapping(
    const logic::Mapping& mapping);

// Evaluates every loader over `source`, materializing the target instance.
Result<instance::Instance> ExecuteCompiledMapping(
    const CompiledRelationalMapping& compiled, const logic::Mapping& mapping,
    const instance::Instance& source);

}  // namespace mm2::transgen

#endif  // MM2_TRANSGEN_RELATIONAL_H_
