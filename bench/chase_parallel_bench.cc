// Parallel hash join scaling: the sharded-build/partitioned-probe join
// over Const inputs at 1, 2 and 4 threads. The chase itself is serial; this
// binary keeps its historical name so the `parallel_join.*` keys stay
// comparable across baselines.
//
// Each (t, rows) point records a `parallel_join.t<t>.rows<rows>.wall_us`
// histogram. Every JSON line carries the ambient `threads` +
// `hw_concurrency` (bench_report.h), and bench_compare.py refuses to diff
// across differing thread counts.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_report.h"

#include "algebra/eval.h"
#include "algebra/expr.h"
#include "instance/instance.h"

namespace {

using mm2::instance::Instance;
using mm2::instance::Value;

// Generic hash join, serial vs parallel: Const children on both sides keep
// the evaluator off the scan-probe fast path, so this times exactly the
// sharded-build + partitioned-probe code.
void BM_ParallelJoin(benchmark::State& state) {
  std::int64_t threads = state.range(0);
  std::int64_t rows = state.range(1);
  std::vector<mm2::instance::Tuple> left_rows, right_rows;
  for (std::int64_t i = 0; i < rows; ++i) {
    left_rows.push_back({Value::Int64(i % 97), Value::Int64(i)});
    right_rows.push_back({Value::Int64(i % 89), Value::Int64(-i)});
  }
  mm2::algebra::ExprRef left =
      mm2::algebra::Expr::Const({"k", "a"}, std::move(left_rows));
  mm2::algebra::ExprRef right =
      mm2::algebra::Expr::Const({"rk", "b"}, std::move(right_rows));
  mm2::algebra::ExprRef join = mm2::algebra::Expr::Join(
      left, right, mm2::algebra::Expr::JoinKind::kInner, {{"k", "rk"}});
  mm2::algebra::Catalog cat;
  Instance db;
  mm2::algebra::EvalOptions options;
  options.threads = static_cast<std::size_t>(threads);
  options.min_parallel_rows = 1;  // always exercise the parallel path

  std::string point = "parallel_join.t" + std::to_string(threads) + ".rows" +
                      std::to_string(rows);
  auto& wall = mm2::bench::Obs().metrics.GetHistogram(point + ".wall_us");

  std::size_t out_rows = 0;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    auto table = mm2::algebra::Evaluate(*join, cat, db, options);
    double us = std::chrono::duration_cast<
                    std::chrono::duration<double, std::micro>>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!table.ok()) {
      state.SkipWithError(table.status().ToString().c_str());
      return;
    }
    wall.Record(us);
    out_rows = table->rows.size();
    benchmark::DoNotOptimize(table);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * rows);
  state.counters["out_rows"] = static_cast<double>(out_rows);
}
BENCHMARK(BM_ParallelJoin)
    ->ArgNames({"threads", "rows"})
    ->ArgsProduct({{1, 2, 4}, {4096, 16384}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  auto start = std::chrono::steady_clock::now();
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  ::benchmark::Shutdown();
  double total_us = std::chrono::duration_cast<
                        std::chrono::duration<double, std::micro>>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  mm2::bench::Obs().metrics.GetHistogram("bench.total_runtime_us")
      .Record(total_us);
  mm2::bench::ReportRegistry("chase_parallel_bench");
  return 0;
}
