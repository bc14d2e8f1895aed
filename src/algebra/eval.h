#ifndef MM2_ALGEBRA_EVAL_H_
#define MM2_ALGEBRA_EVAL_H_

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "algebra/expr.h"
#include "common/result.h"
#include "common/status.h"
#include "instance/instance.h"
#include "model/schema.h"

namespace mm2::algebra {

// An intermediate query result: named columns plus rows (bag semantics).
struct Table {
  std::vector<std::string> columns;
  std::vector<instance::Tuple> rows;

  static constexpr std::size_t kNpos = static_cast<std::size_t>(-1);
  std::size_t ColumnIndex(std::string_view name) const;

  // Set equality (ignores row order and duplicates; columns must match by
  // position and name).
  bool SetEquals(const Table& other) const;

  std::string ToString() const;
};

// Maps relation names to their runtime column lists. Built from a schema:
// relations contribute their attribute names; entity sets contribute the
// hidden "$type" column followed by their EntitySetLayout columns.
class Catalog {
 public:
  Catalog() = default;

  // Builds a catalog for `schema`; fails if an entity-set layout cannot be
  // computed.
  static Result<Catalog> FromSchema(const model::Schema& schema);

  void Add(std::string relation, std::vector<std::string> columns);
  bool Has(std::string_view relation) const;
  Result<std::vector<std::string>> ColumnsOf(std::string_view relation) const;

  // Merges `other`'s entries into this catalog (later wins on collision).
  void Merge(const Catalog& other);

 private:
  std::map<std::string, std::vector<std::string>, std::less<>> columns_;
};

// The column name of the hidden entity-type discriminator.
inline constexpr char kTypeColumn[] = "$type";

// Evaluates a scalar against one row. `columns` names the row's fields.
Result<instance::Value> EvaluateScalar(const Scalar& scalar,
                                       const std::vector<std::string>& columns,
                                       const instance::Tuple& row);

// Evaluation knobs. Defaults reproduce the serial evaluator unless the
// MM2_THREADS environment variable says otherwise.
struct EvalOptions {
  // Worker threads for the parallel generic hash join (sharded build +
  // partitioned probe). 0 defers to MM2_THREADS, which defaults to 1
  // (serial). Output rows are byte-identical to the serial path at any
  // thread count: build workers keep per-key buckets in right-row order and
  // probe chunks concatenate in left-row order.
  std::size_t threads = 0;
  // Joins below this many combined input rows always run serial — the
  // fan-out costs more than the probes it spreads. Tests lower it to force
  // the parallel path on small inputs.
  std::size_t min_parallel_rows = 2048;
};

// Evaluates a relational expression against a database instance.
Result<Table> Evaluate(const Expr& expr, const Catalog& catalog,
                       const instance::Instance& database);

// As above with explicit evaluation options (threaded through every
// recursive operator evaluation under this call).
Result<Table> Evaluate(const Expr& expr, const Catalog& catalog,
                       const instance::Instance& database,
                       const EvalOptions& options);

// Materializes a table into `database` under `relation` with set semantics
// (declares/overwrites the relation extension).
void Materialize(const Table& table, std::string relation,
                 instance::Instance* database);

}  // namespace mm2::algebra

#endif  // MM2_ALGEBRA_EVAL_H_
