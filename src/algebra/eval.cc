#include "algebra/eval.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "common/strings.h"
#include "common/thread_pool.h"

namespace mm2::algebra {

using instance::Tuple;
using instance::Value;

std::size_t Table::ColumnIndex(std::string_view name) const {
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == name) return i;
  }
  return kNpos;
}

bool Table::SetEquals(const Table& other) const {
  if (columns != other.columns) return false;
  // Sorted-vector comparison: two sorts plus one linear pass, with none of
  // the per-node allocation a std::set rebuild pays.
  std::vector<Tuple> a = rows;
  std::vector<Tuple> b = other.rows;
  std::sort(a.begin(), a.end());
  a.erase(std::unique(a.begin(), a.end()), a.end());
  std::sort(b.begin(), b.end());
  b.erase(std::unique(b.begin(), b.end()), b.end());
  return a == b;
}

std::string Table::ToString() const {
  std::string out = "(" + Join(columns, ", ") + ")\n";
  for (const Tuple& row : rows) {
    out += "  " + instance::TupleToString(row) + "\n";
  }
  return out;
}

Result<Catalog> Catalog::FromSchema(const model::Schema& schema) {
  Catalog catalog;
  for (const model::Relation& r : schema.relations()) {
    catalog.Add(r.name(), r.AttributeNames());
  }
  for (const model::EntitySet& s : schema.entity_sets()) {
    MM2_ASSIGN_OR_RETURN(instance::EntitySetLayout layout,
                         instance::ComputeEntitySetLayout(schema, s));
    std::vector<std::string> columns;
    columns.reserve(layout.columns.size() + 1);
    columns.push_back(kTypeColumn);
    for (const std::string& c : layout.columns) columns.push_back(c);
    catalog.Add(s.name, std::move(columns));
  }
  return catalog;
}

void Catalog::Add(std::string relation, std::vector<std::string> columns) {
  columns_.insert_or_assign(std::move(relation), std::move(columns));
}

bool Catalog::Has(std::string_view relation) const {
  return columns_.find(relation) != columns_.end();
}

Result<std::vector<std::string>> Catalog::ColumnsOf(
    std::string_view relation) const {
  auto it = columns_.find(relation);
  if (it == columns_.end()) {
    return Status::NotFound("relation '" + std::string(relation) +
                            "' not in catalog");
  }
  return it->second;
}

void Catalog::Merge(const Catalog& other) {
  for (const auto& [name, cols] : other.columns_) {
    columns_.insert_or_assign(name, cols);
  }
}

namespace {

// Numeric-promoting equality/ordering for comparisons; returns nullopt
// when the values are incomparable (e.g. string vs int) or either side is
// a plain NULL.
std::optional<int> CompareValues(const Value& a, const Value& b) {
  if (a.is_null() || b.is_null()) return std::nullopt;
  auto numeric = [](const Value& v) -> std::optional<double> {
    switch (v.kind()) {
      case Value::Kind::kInt64:
        return static_cast<double>(v.int64());
      case Value::Kind::kDouble:
        return v.dbl();
      case Value::Kind::kDate:
        return static_cast<double>(v.date());
      default:
        return std::nullopt;
    }
  };
  std::optional<double> na = numeric(a);
  std::optional<double> nb = numeric(b);
  if (na.has_value() && nb.has_value()) {
    if (*na < *nb) return -1;
    if (*na > *nb) return 1;
    return 0;
  }
  if (a.kind() != b.kind()) return std::nullopt;
  if (a == b) return 0;
  return a < b ? -1 : 1;
}

bool IsTruthy(const Value& v) {
  return v.kind() == Value::Kind::kBool && v.boolean();
}

}  // namespace

Result<Value> EvaluateScalar(const Scalar& scalar,
                             const std::vector<std::string>& columns,
                             const Tuple& row) {
  switch (scalar.kind()) {
    case Scalar::Kind::kColumn: {
      for (std::size_t i = 0; i < columns.size(); ++i) {
        if (columns[i] == scalar.column()) return row[i];
      }
      return Status::NotFound("column '" + scalar.column() +
                              "' not in row (" + Join(columns, ", ") + ")");
    }
    case Scalar::Kind::kLiteral:
      return scalar.literal();
    case Scalar::Kind::kCompare: {
      MM2_ASSIGN_OR_RETURN(
          Value left, EvaluateScalar(*scalar.children()[0], columns, row));
      MM2_ASSIGN_OR_RETURN(
          Value right, EvaluateScalar(*scalar.children()[1], columns, row));
      std::optional<int> cmp = CompareValues(left, right);
      if (!cmp.has_value()) return Value::Bool(false);
      switch (scalar.compare_op()) {
        case Scalar::CompareOp::kEq:
          return Value::Bool(*cmp == 0);
        case Scalar::CompareOp::kNe:
          return Value::Bool(*cmp != 0);
        case Scalar::CompareOp::kLt:
          return Value::Bool(*cmp < 0);
        case Scalar::CompareOp::kLe:
          return Value::Bool(*cmp <= 0);
        case Scalar::CompareOp::kGt:
          return Value::Bool(*cmp > 0);
        case Scalar::CompareOp::kGe:
          return Value::Bool(*cmp >= 0);
      }
      return Status::Internal("bad compare op");
    }
    case Scalar::Kind::kAnd: {
      for (const ScalarRef& c : scalar.children()) {
        MM2_ASSIGN_OR_RETURN(Value v, EvaluateScalar(*c, columns, row));
        if (!IsTruthy(v)) return Value::Bool(false);
      }
      return Value::Bool(true);
    }
    case Scalar::Kind::kOr: {
      for (const ScalarRef& c : scalar.children()) {
        MM2_ASSIGN_OR_RETURN(Value v, EvaluateScalar(*c, columns, row));
        if (IsTruthy(v)) return Value::Bool(true);
      }
      return Value::Bool(false);
    }
    case Scalar::Kind::kNot: {
      MM2_ASSIGN_OR_RETURN(
          Value v, EvaluateScalar(*scalar.children()[0], columns, row));
      return Value::Bool(!IsTruthy(v));
    }
    case Scalar::Kind::kIsNull: {
      MM2_ASSIGN_OR_RETURN(
          Value v, EvaluateScalar(*scalar.children()[0], columns, row));
      return Value::Bool(v.is_null());
    }
    case Scalar::Kind::kIn: {
      MM2_ASSIGN_OR_RETURN(
          Value v, EvaluateScalar(*scalar.children()[0], columns, row));
      for (const Value& candidate : scalar.in_list()) {
        std::optional<int> cmp = CompareValues(v, candidate);
        if (cmp.has_value() && *cmp == 0) return Value::Bool(true);
      }
      return Value::Bool(false);
    }
    case Scalar::Kind::kCase: {
      for (const Scalar::CaseBranch& branch : scalar.case_branches()) {
        MM2_ASSIGN_OR_RETURN(Value cond,
                             EvaluateScalar(*branch.condition, columns, row));
        if (IsTruthy(cond)) {
          return EvaluateScalar(*branch.result, columns, row);
        }
      }
      if (scalar.case_else() != nullptr) {
        return EvaluateScalar(*scalar.case_else(), columns, row);
      }
      return Value::Null();
    }
  }
  return Status::Internal("bad scalar kind");
}

namespace {

// Appends right's columns to left's with the usual collision check.
Status AppendJoinColumns(const std::vector<std::string>& right_columns,
                         Table* out) {
  for (const std::string& c : right_columns) {
    if (std::find(out->columns.begin(), out->columns.end(), c) !=
        out->columns.end()) {
      return Status::InvalidArgument(
          "join output column collision on '" + c +
          "'; rename with Project before joining");
    }
    out->columns.push_back(c);
  }
  return Status::OK();
}

// Root-level evaluation context. Evaluate() recurses through the public
// entry point from every operator, so the root installs one context (with
// its lazily created thread pool) in a thread-local and the whole subtree
// shares it — no signature churn across a dozen operator evaluators, and
// nested Evaluate calls on worker threads (there are none today) would
// simply see no context and run serial.
struct EvalContext {
  EvalOptions options;
  std::size_t workers;
  std::unique_ptr<common::ThreadPool> pool;

  explicit EvalContext(const EvalOptions& opts)
      : options(opts), workers(common::ResolveThreadCount(opts.threads)) {}

  // Returns the pool when this join is big enough to amortize a fan-out,
  // creating it on first use; nullptr means "run serial".
  common::ThreadPool* PoolFor(std::size_t rows) {
    if (workers <= 1 || rows < options.min_parallel_rows) return nullptr;
    if (pool == nullptr) pool = std::make_unique<common::ThreadPool>(workers);
    return pool.get();
  }
};

thread_local EvalContext* g_eval_ctx = nullptr;

struct EvalContextGuard {
  bool installed;
  explicit EvalContextGuard(EvalContext* ctx)
      : installed(g_eval_ctx == nullptr) {
    if (installed) g_eval_ctx = ctx;
  }
  ~EvalContextGuard() {
    if (installed) g_eval_ctx = nullptr;
  }
};

// Parallel generic hash join. Build: each worker scans all right rows but
// keeps only the keys hashing into its shard, so every per-key bucket
// accumulates in right-row order — the same bucket order the serial
// std::map build produces. Probe: left rows split into contiguous chunks
// whose output vectors concatenate in chunk order. Result rows are
// therefore byte-identical to the serial path, kLeftOuter padding included.
Result<Table> ParallelHashJoin(const Expr& expr, const Table& left,
                               const Table& right, Table out,
                               const std::vector<std::size_t>& left_keys,
                               const std::vector<std::size_t>& right_keys,
                               common::ThreadPool& pool) {
  const std::size_t shard_count = pool.size();
  std::vector<std::map<Tuple, std::vector<const Tuple*>>> shards(shard_count);
  instance::TupleHash hasher;
  pool.ParallelFor(
      shard_count, [&](std::size_t begin, std::size_t end, std::size_t) {
        for (std::size_t s = begin; s < end; ++s) {
          for (const Tuple& r : right.rows) {
            Tuple key;
            key.reserve(right_keys.size());
            bool has_null = false;
            for (std::size_t k : right_keys) {
              if (r[k].is_null()) has_null = true;
              key.push_back(r[k]);
            }
            if (has_null) continue;  // NULL keys never join
            if (hasher(key) % shard_count != s) continue;
            shards[s][std::move(key)].push_back(&r);
          }
        }
      });
  const std::size_t width = out.columns.size();
  std::vector<std::vector<Tuple>> partial(
      std::min(pool.size(), std::max<std::size_t>(left.rows.size(), 1)));
  pool.ParallelFor(
      left.rows.size(),
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        std::vector<Tuple>& rows = partial[chunk];
        for (std::size_t i = begin; i < end; ++i) {
          const Tuple& l = left.rows[i];
          Tuple key;
          key.reserve(left_keys.size());
          bool has_null = false;
          for (std::size_t k : left_keys) {
            if (l[k].is_null()) has_null = true;
            key.push_back(l[k]);
          }
          const std::vector<const Tuple*>* bucket = nullptr;
          if (!has_null) {
            const auto& shard = shards[hasher(key) % shard_count];
            auto it = shard.find(key);
            if (it != shard.end()) bucket = &it->second;
          }
          if (bucket != nullptr) {
            for (const Tuple* r : *bucket) {
              Tuple row = l;
              row.insert(row.end(), r->begin(), r->end());
              rows.push_back(std::move(row));
            }
          } else if (expr.join_kind() == Expr::JoinKind::kLeftOuter) {
            Tuple row = l;
            row.resize(width, Value::Null());
            rows.push_back(std::move(row));
          }
        }
      });
  std::size_t total = 0;
  for (const auto& p : partial) total += p.size();
  out.rows.reserve(total);
  for (auto& p : partial) {
    for (Tuple& row : p) out.rows.push_back(std::move(row));
  }
  return out;
}

// Equi-join where the right operand is a base-table scan: probe the
// relation's on-demand index on the key columns instead of materializing
// the scan and rebuilding a hash map per call. Buckets come back in set
// order — exactly the order the materialized scan would have produced — so
// output rows are identical to the generic path's.
Result<Table> JoinScanProbe(const Expr& expr, const Table& left,
                            const Expr& scan, const Catalog& catalog,
                            const instance::Instance& database) {
  MM2_ASSIGN_OR_RETURN(std::vector<std::string> right_columns,
                       catalog.ColumnsOf(scan.relation()));
  const instance::RelationInstance* rel = database.Find(scan.relation());
  if (rel != nullptr && !rel->empty() &&
      rel->arity() != right_columns.size()) {
    return Status::Internal("catalog/instance arity mismatch on '" +
                            scan.relation() + "'");
  }
  Table out;
  out.columns = left.columns;
  MM2_RETURN_IF_ERROR(AppendJoinColumns(right_columns, &out));

  std::vector<std::size_t> left_keys;
  instance::RelationInstance::ColumnSet right_keys;
  for (const auto& [lname, rname] : expr.join_keys()) {
    std::size_t li = left.ColumnIndex(lname);
    std::size_t ri = Table::kNpos;
    for (std::size_t i = 0; i < right_columns.size(); ++i) {
      if (right_columns[i] == rname) {
        ri = i;
        break;
      }
    }
    if (li == Table::kNpos || ri == Table::kNpos) {
      return Status::NotFound("join key '" + lname + "'/'" + rname +
                              "' missing from operands");
    }
    left_keys.push_back(li);
    right_keys.push_back(ri);
  }
  if (left_keys.empty()) {
    return Status::InvalidArgument("equijoin requires at least one key");
  }

  // A key set covering columns [0, k) in order is a prefix of the sealed
  // run's sort order: seal the relation once and binary-search its columns
  // per probe instead of building a hash index. Rows come back in set
  // order — exactly the hash bucket's order — so output is identical.
  bool segment_probe = rel != nullptr;
  for (std::size_t i = 0; segment_probe && i < right_keys.size(); ++i) {
    if (right_keys[i] != i) segment_probe = false;
  }
  if (segment_probe) rel->PrepareSegments();

  const std::size_t width = out.columns.size();
  Tuple scratch;
  for (const Tuple& l : left.rows) {
    Tuple key;
    key.reserve(left_keys.size());
    bool has_null = false;
    for (std::size_t k : left_keys) {
      if (l[k].is_null()) has_null = true;
      key.push_back(l[k]);
    }
    if (segment_probe && !has_null) {
      if (auto range = rel->SegmentProbePrefix(key)) {
        for (std::size_t r = range->begin; r < range->end; ++r) {
          range->segment->CopyRow(r, &scratch);
          Tuple row;
          row.reserve(width);
          row.insert(row.end(), l.begin(), l.end());
          row.insert(row.end(), scratch.begin(), scratch.end());
          out.rows.push_back(std::move(row));
        }
        if (range->empty() &&
            expr.join_kind() == Expr::JoinKind::kLeftOuter) {
          Tuple row = l;
          row.resize(width, Value::Null());
          out.rows.push_back(std::move(row));
        }
        continue;
      }
    }
    // NULL keys never join; right tuples with NULL keys live in buckets no
    // non-null probe key can reach, so the exact-match probe excludes them.
    const instance::RelationInstance::TupleRefs* refs =
        (has_null || rel == nullptr) ? nullptr : rel->Probe(right_keys, key);
    if (refs != nullptr && !refs->empty()) {
      for (const Tuple* r : *refs) {
        Tuple row;
        row.reserve(width);
        row.insert(row.end(), l.begin(), l.end());
        row.insert(row.end(), r->begin(), r->end());
        out.rows.push_back(std::move(row));
      }
    } else if (expr.join_kind() == Expr::JoinKind::kLeftOuter) {
      Tuple row = l;
      row.resize(width, Value::Null());
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

Result<Table> EvaluateJoin(const Expr& expr, const Catalog& catalog,
                           const instance::Instance& database) {
  MM2_ASSIGN_OR_RETURN(Table left,
                       Evaluate(*expr.children()[0], catalog, database));
  const Expr& right_expr = *expr.children()[1];
  if (expr.join_kind() != Expr::JoinKind::kCross &&
      right_expr.kind() == Expr::Kind::kScan) {
    return JoinScanProbe(expr, left, right_expr, catalog, database);
  }
  MM2_ASSIGN_OR_RETURN(Table right, Evaluate(right_expr, catalog, database));

  Table out;
  out.columns = left.columns;
  MM2_RETURN_IF_ERROR(AppendJoinColumns(right.columns, &out));

  if (expr.join_kind() == Expr::JoinKind::kCross) {
    const std::size_t width = out.columns.size();
    out.rows.reserve(left.rows.size() * right.rows.size());
    for (const Tuple& l : left.rows) {
      for (const Tuple& r : right.rows) {
        Tuple row;
        row.reserve(width);
        row.insert(row.end(), l.begin(), l.end());
        row.insert(row.end(), r.begin(), r.end());
        out.rows.push_back(std::move(row));
      }
    }
    return out;
  }

  std::vector<std::size_t> left_keys;
  std::vector<std::size_t> right_keys;
  for (const auto& [lname, rname] : expr.join_keys()) {
    std::size_t li = left.ColumnIndex(lname);
    std::size_t ri = right.ColumnIndex(rname);
    if (li == Table::kNpos || ri == Table::kNpos) {
      return Status::NotFound("join key '" + lname + "'/'" + rname +
                              "' missing from operands");
    }
    left_keys.push_back(li);
    right_keys.push_back(ri);
  }
  if (left_keys.empty()) {
    return Status::InvalidArgument("equijoin requires at least one key");
  }

  // Big enough inputs take the parallel build/probe path; identical output.
  common::ThreadPool* pool =
      g_eval_ctx == nullptr
          ? nullptr
          : g_eval_ctx->PoolFor(left.rows.size() + right.rows.size());
  if (pool != nullptr) {
    return ParallelHashJoin(expr, left, right, std::move(out), left_keys,
                            right_keys, *pool);
  }

  // Hash join: build on the right side.
  std::map<Tuple, std::vector<const Tuple*>> build;
  for (const Tuple& r : right.rows) {
    Tuple key;
    key.reserve(right_keys.size());
    bool has_null = false;
    for (std::size_t k : right_keys) {
      if (r[k].is_null()) has_null = true;
      key.push_back(r[k]);
    }
    if (has_null) continue;  // NULL keys never join
    build[std::move(key)].push_back(&r);
  }
  for (const Tuple& l : left.rows) {
    Tuple key;
    key.reserve(left_keys.size());
    bool has_null = false;
    for (std::size_t k : left_keys) {
      if (l[k].is_null()) has_null = true;
      key.push_back(l[k]);
    }
    auto it = has_null ? build.end() : build.find(key);
    if (it != build.end()) {
      for (const Tuple* r : it->second) {
        Tuple row = l;
        row.insert(row.end(), r->begin(), r->end());
        out.rows.push_back(std::move(row));
      }
    } else if (expr.join_kind() == Expr::JoinKind::kLeftOuter) {
      Tuple row = l;
      row.resize(out.columns.size(), Value::Null());
      out.rows.push_back(std::move(row));
    }
  }
  return out;
}

// Digs a `column = literal` conjunct out of a selection predicate (the
// predicate itself, or any AND child, searched left to right).
std::optional<std::pair<std::string, Value>> FindKeyEquality(
    const Scalar& pred) {
  if (pred.kind() == Scalar::Kind::kAnd) {
    for (const ScalarRef& c : pred.children()) {
      std::optional<std::pair<std::string, Value>> hit = FindKeyEquality(*c);
      if (hit.has_value()) return hit;
    }
    return std::nullopt;
  }
  if (pred.kind() != Scalar::Kind::kCompare ||
      pred.compare_op() != Scalar::CompareOp::kEq) {
    return std::nullopt;
  }
  const Scalar& a = *pred.children()[0];
  const Scalar& b = *pred.children()[1];
  if (a.kind() == Scalar::Kind::kColumn &&
      b.kind() == Scalar::Kind::kLiteral) {
    return std::make_pair(a.column(), b.literal());
  }
  if (b.kind() == Scalar::Kind::kColumn &&
      a.kind() == Scalar::Kind::kLiteral) {
    return std::make_pair(b.column(), a.literal());
  }
  return std::nullopt;
}

// Every stored representation the literal can equality-match under
// CompareValues' numeric promotion (Int64/Double/Date all compare as
// doubles). nullopt means the literal is not safely probeable — plain NULL
// (= is always false), or a magnitude where double promotion goes lossy —
// and the caller falls back to the scan.
std::optional<std::vector<Value>> KeyRepresentations(const Value& v) {
  constexpr double kExact = 9007199254740992.0;  // 2^53
  switch (v.kind()) {
    case Value::Kind::kNull:
      return std::nullopt;
    case Value::Kind::kString:
    case Value::Kind::kBool:
    case Value::Kind::kLabeledNull:
      return std::vector<Value>{v};
    case Value::Kind::kInt64:
    case Value::Kind::kDouble:
    case Value::Kind::kDate: {
      double d = v.kind() == Value::Kind::kDouble
                     ? v.dbl()
                     : static_cast<double>(v.kind() == Value::Kind::kInt64
                                               ? v.int64()
                                               : v.date());
      if (!(d > -kExact && d < kExact)) return std::nullopt;  // incl. NaN
      if (d != std::floor(d)) return std::vector<Value>{Value::Double(d)};
      std::int64_t n = static_cast<std::int64_t>(d);
      return std::vector<Value>{Value::Int64(n), Value::Double(d),
                                Value::Date(n)};
    }
  }
  return std::nullopt;
}

// Selection-on-key over a base-table scan: probe the single-column index
// for each representation the literal can match, then run the full
// predicate over the (tiny) candidate set. The probe is only a pre-filter,
// so semantics are exactly the scan path's; candidates are re-sorted into
// set order so output order matches too. nullopt => not applicable.
Result<std::optional<Table>> TrySelectScanProbe(
    const Expr& select, const Expr& scan, const Catalog& catalog,
    const instance::Instance& database) {
  const instance::RelationInstance* rel = database.Find(scan.relation());
  if (rel == nullptr || rel->empty()) return std::optional<Table>();
  MM2_ASSIGN_OR_RETURN(std::vector<std::string> columns,
                       catalog.ColumnsOf(scan.relation()));
  if (rel->arity() != columns.size()) {
    return std::optional<Table>();  // let the scan path report the mismatch
  }
  std::optional<std::pair<std::string, Value>> eq =
      FindKeyEquality(*select.predicate());
  if (!eq.has_value()) return std::optional<Table>();
  std::size_t col = Table::kNpos;
  for (std::size_t i = 0; i < columns.size(); ++i) {
    if (columns[i] == eq->first) {
      col = i;
      break;
    }
  }
  if (col == Table::kNpos) return std::optional<Table>();
  std::optional<std::vector<Value>> reps = KeyRepresentations(eq->second);
  if (!reps.has_value()) return std::optional<Table>();

  std::vector<const Tuple*> candidates;
  instance::RelationInstance::ColumnSet cols{col};
  for (const Value& rep : *reps) {
    const instance::RelationInstance::TupleRefs* refs =
        rel->Probe(cols, {rep});
    if (refs != nullptr) {
      candidates.insert(candidates.end(), refs->begin(), refs->end());
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Tuple* a, const Tuple* b) { return *a < *b; });

  Table out;
  out.columns = std::move(columns);
  for (const Tuple* t : candidates) {
    MM2_ASSIGN_OR_RETURN(
        Value keep, EvaluateScalar(*select.predicate(), out.columns, *t));
    if (IsTruthy(keep)) out.rows.push_back(*t);
  }
  return std::optional<Table>(std::move(out));
}

}  // namespace

namespace {

// Grouped aggregation over an evaluated child table. NULLs are skipped by
// SUM/MIN/MAX/AVG and by COUNT(col); COUNT(*) counts rows.
Result<Table> EvaluateAggregate(const Expr& expr, const Table& in) {
  std::vector<std::size_t> group_cols;
  for (const std::string& g : expr.group_by()) {
    std::size_t idx = in.ColumnIndex(g);
    if (idx == Table::kNpos) {
      return Status::NotFound("group-by column '" + g + "' missing");
    }
    group_cols.push_back(idx);
  }
  struct Accumulator {
    std::size_t count = 0;       // rows in group (COUNT(*))
    std::vector<std::size_t> non_null;
    std::vector<double> sum;
    std::vector<Value> min;
    std::vector<Value> max;
  };
  std::vector<std::size_t> agg_cols;
  for (const Expr::AggSpec& a : expr.aggregates()) {
    if (a.op == Expr::AggOp::kCount && a.input.empty()) {
      agg_cols.push_back(Table::kNpos);
      continue;
    }
    std::size_t idx = in.ColumnIndex(a.input);
    if (idx == Table::kNpos) {
      return Status::NotFound("aggregate input column '" + a.input +
                              "' missing");
    }
    agg_cols.push_back(idx);
  }
  auto numeric = [](const Value& v, double* out) {
    switch (v.kind()) {
      case Value::Kind::kInt64:
        *out = static_cast<double>(v.int64());
        return true;
      case Value::Kind::kDouble:
        *out = v.dbl();
        return true;
      case Value::Kind::kDate:
        *out = static_cast<double>(v.date());
        return true;
      default:
        return false;
    }
  };

  std::map<Tuple, Accumulator> groups;
  for (const Tuple& row : in.rows) {
    Tuple key;
    key.reserve(group_cols.size());
    for (std::size_t c : group_cols) key.push_back(row[c]);
    Accumulator& acc = groups[key];
    if (acc.non_null.empty()) {
      acc.non_null.assign(expr.aggregates().size(), 0);
      acc.sum.assign(expr.aggregates().size(), 0.0);
      acc.min.assign(expr.aggregates().size(), Value::Null());
      acc.max.assign(expr.aggregates().size(), Value::Null());
    }
    ++acc.count;
    for (std::size_t i = 0; i < expr.aggregates().size(); ++i) {
      if (agg_cols[i] == Table::kNpos) continue;  // COUNT(*)
      const Value& v = row[agg_cols[i]];
      if (v.is_any_null()) continue;
      ++acc.non_null[i];
      double d = 0.0;
      if (numeric(v, &d)) acc.sum[i] += d;
      if (acc.min[i].is_null() || v < acc.min[i]) acc.min[i] = v;
      if (acc.max[i].is_null() || acc.max[i] < v) acc.max[i] = v;
    }
  }
  // SQL semantics: an empty input with no GROUP BY still yields one row.
  if (groups.empty() && group_cols.empty()) {
    groups[{}] = Accumulator{};
    Accumulator& acc = groups[{}];
    acc.non_null.assign(expr.aggregates().size(), 0);
    acc.sum.assign(expr.aggregates().size(), 0.0);
    acc.min.assign(expr.aggregates().size(), Value::Null());
    acc.max.assign(expr.aggregates().size(), Value::Null());
  }

  Table out;
  out.columns = expr.group_by();
  for (const Expr::AggSpec& a : expr.aggregates()) {
    out.columns.push_back(a.name);
  }
  for (const auto& [key, acc] : groups) {
    Tuple row = key;
    for (std::size_t i = 0; i < expr.aggregates().size(); ++i) {
      const Expr::AggSpec& a = expr.aggregates()[i];
      switch (a.op) {
        case Expr::AggOp::kCount:
          row.push_back(Value::Int64(static_cast<std::int64_t>(
              agg_cols[i] == Table::kNpos ? acc.count : acc.non_null[i])));
          break;
        case Expr::AggOp::kSum:
          row.push_back(acc.non_null[i] == 0 ? Value::Null()
                                             : Value::Double(acc.sum[i]));
          break;
        case Expr::AggOp::kMin:
          row.push_back(acc.min[i]);
          break;
        case Expr::AggOp::kMax:
          row.push_back(acc.max[i]);
          break;
        case Expr::AggOp::kAvg:
          row.push_back(acc.non_null[i] == 0
                            ? Value::Null()
                            : Value::Double(acc.sum[i] /
                                            static_cast<double>(
                                                acc.non_null[i])));
          break;
      }
    }
    out.rows.push_back(std::move(row));
  }
  return out;
}

}  // namespace

Result<Table> Evaluate(const Expr& expr, const Catalog& catalog,
                       const instance::Instance& database,
                       const EvalOptions& options) {
  EvalContext ctx(options);
  // When a context is already installed (a recursive call re-entering with
  // explicit options), the root's options win and this guard is a no-op.
  EvalContextGuard guard(&ctx);
  return Evaluate(expr, catalog, database);
}

Result<Table> Evaluate(const Expr& expr, const Catalog& catalog,
                       const instance::Instance& database) {
  if (g_eval_ctx == nullptr) {
    // Root call without explicit options: install defaults (which honor
    // MM2_THREADS) so the whole evaluation tree shares one context.
    return Evaluate(expr, catalog, database, EvalOptions{});
  }
  switch (expr.kind()) {
    case Expr::Kind::kScan: {
      MM2_ASSIGN_OR_RETURN(std::vector<std::string> columns,
                           catalog.ColumnsOf(expr.relation()));
      Table out;
      out.columns = std::move(columns);
      const instance::RelationInstance* rel = database.Find(expr.relation());
      if (rel != nullptr) {
        if (!rel->empty() && rel->arity() != out.columns.size()) {
          return Status::Internal("catalog/instance arity mismatch on '" +
                                  expr.relation() + "'");
        }
        out.rows.assign(rel->tuples().begin(), rel->tuples().end());
      }
      return out;
    }
    case Expr::Kind::kConst: {
      Table out;
      out.columns = expr.const_columns();
      out.rows = expr.const_rows();
      return out;
    }
    case Expr::Kind::kSelect: {
      if (expr.children()[0]->kind() == Expr::Kind::kScan) {
        MM2_ASSIGN_OR_RETURN(std::optional<Table> fast,
                             TrySelectScanProbe(expr, *expr.children()[0],
                                                catalog, database));
        if (fast.has_value()) return std::move(*fast);
      }
      MM2_ASSIGN_OR_RETURN(Table in,
                           Evaluate(*expr.children()[0], catalog, database));
      Table out;
      out.columns = in.columns;
      for (Tuple& row : in.rows) {
        MM2_ASSIGN_OR_RETURN(
            Value keep, EvaluateScalar(*expr.predicate(), in.columns, row));
        if (IsTruthy(keep)) out.rows.push_back(std::move(row));
      }
      return out;
    }
    case Expr::Kind::kProject: {
      MM2_ASSIGN_OR_RETURN(Table in,
                           Evaluate(*expr.children()[0], catalog, database));
      Table out;
      for (const NamedExpr& p : expr.projections()) {
        out.columns.push_back(p.name);
      }
      for (const Tuple& row : in.rows) {
        Tuple projected;
        projected.reserve(expr.projections().size());
        for (const NamedExpr& p : expr.projections()) {
          MM2_ASSIGN_OR_RETURN(Value v,
                               EvaluateScalar(*p.expr, in.columns, row));
          projected.push_back(std::move(v));
        }
        out.rows.push_back(std::move(projected));
      }
      return out;
    }
    case Expr::Kind::kJoin:
      return EvaluateJoin(expr, catalog, database);
    case Expr::Kind::kUnion: {
      if (expr.children().empty()) {
        return Status::InvalidArgument("union of zero inputs");
      }
      Table out;
      for (std::size_t i = 0; i < expr.children().size(); ++i) {
        MM2_ASSIGN_OR_RETURN(Table part,
                             Evaluate(*expr.children()[i], catalog, database));
        if (i == 0) {
          out.columns = part.columns;
        } else if (part.columns.size() != out.columns.size()) {
          return Status::InvalidArgument("union operands differ in arity");
        }
        for (Tuple& row : part.rows) out.rows.push_back(std::move(row));
      }
      return out;
    }
    case Expr::Kind::kDifference: {
      MM2_ASSIGN_OR_RETURN(Table left,
                           Evaluate(*expr.children()[0], catalog, database));
      MM2_ASSIGN_OR_RETURN(Table right,
                           Evaluate(*expr.children()[1], catalog, database));
      if (left.columns.size() != right.columns.size()) {
        return Status::InvalidArgument("difference operands differ in arity");
      }
      // Sorted anti-join: sort the right side once, keep the left side in
      // its original (bag) order, and resolve membership with binary
      // searches over the contiguous vector.
      std::vector<Tuple> exclude = std::move(right.rows);
      std::sort(exclude.begin(), exclude.end());
      Table out;
      out.columns = left.columns;
      for (Tuple& row : left.rows) {
        if (!std::binary_search(exclude.begin(), exclude.end(), row)) {
          out.rows.push_back(std::move(row));
        }
      }
      return out;
    }
    case Expr::Kind::kDistinct: {
      MM2_ASSIGN_OR_RETURN(Table in,
                           Evaluate(*expr.children()[0], catalog, database));
      // Sort-based dedup keeping each row's first occurrence, in input
      // order: order row indices by (row, position), keep each run's first
      // index, then emit in original position order.
      std::vector<std::size_t> order(in.rows.size());
      for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
      std::sort(order.begin(), order.end(),
                [&in](std::size_t a, std::size_t b) {
                  if (in.rows[a] < in.rows[b]) return true;
                  if (in.rows[b] < in.rows[a]) return false;
                  return a < b;
                });
      std::vector<char> keep(in.rows.size(), 0);
      for (std::size_t i = 0; i < order.size(); ++i) {
        if (i == 0 || in.rows[order[i]] != in.rows[order[i - 1]]) {
          keep[order[i]] = 1;
        }
      }
      Table out;
      out.columns = in.columns;
      for (std::size_t i = 0; i < in.rows.size(); ++i) {
        if (keep[i] != 0) out.rows.push_back(std::move(in.rows[i]));
      }
      return out;
    }
    case Expr::Kind::kAggregate: {
      MM2_ASSIGN_OR_RETURN(Table in,
                           Evaluate(*expr.children()[0], catalog, database));
      return EvaluateAggregate(expr, in);
    }
  }
  return Status::Internal("bad expression kind");
}

void Materialize(const Table& table, std::string relation,
                 instance::Instance* database) {
  database->DeclareRelation(relation, table.columns.size());
  for (const Tuple& row : table.rows) {
    database->InsertUnchecked(relation, row);
  }
}

}  // namespace mm2::algebra
