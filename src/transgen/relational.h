#ifndef MM2_TRANSGEN_RELATIONAL_H_
#define MM2_TRANSGEN_RELATIONAL_H_

#include <cstddef>
#include <map>
#include <string>

#include "algebra/expr.h"
#include "common/result.h"
#include "instance/instance.h"
#include "logic/mapping.h"

namespace mm2::transgen {

// TransGen for flat relational mappings: compiles a first-order (s-t tgd)
// mapping into one algebra expression per target relation, the loader a
// DBMS would run for the "batch loading" of Section 5 (`sql` prints it):
//
//   - a conjunctive body compiles to a join tree (shared variables become
//     equijoin keys, repeated variables within an atom and constants
//     become selections, disconnected atoms become cross products);
//   - each head atom becomes a projection of that tree;
//   - multiple tgds deriving the same relation union together (dedup'd).
//
// The rendered plan keeps SQL's semantics: NULL keys never join and `1`
// equals `1.0`. Existential head variables compile to SQL NULL columns —
// the flat approximation of labeled nulls. Mappings with target egds and
// second-order mappings are rejected: keys and Skolem terms need the chase.
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

// Loads the target of `mapping` from `source` (`batchload`): each tgd's
// body is matched once by the chase's match plans (chase::MatchAtoms), and
// every match's frame is projected onto each head atom and inserted into
// the target, every existential head variable reading plain NULL. Values
// compare as the chase compares them (NULL equals NULL, `1` does not equal
// `1.0`), so the result equals `exchange`'s on every relation the chase
// fills without labeled nulls. `compiled` is not read; callers compile
// first so that mappings the loader cannot express are refused.
Result<instance::Instance> ExecuteCompiledMapping(
    const CompiledRelationalMapping& compiled, const logic::Mapping& mapping,
    const instance::Instance& source);

}  // namespace mm2::transgen

#endif  // MM2_TRANSGEN_RELATIONAL_H_
