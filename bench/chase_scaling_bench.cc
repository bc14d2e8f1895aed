// Chase executor scaling: the naive rescan oracle vs the default executor
// (compiled plans with semi-naive delta matching), swept over a
// (tuples x rules x rounds) grid. The workload is a transitive-closure
// chain — R a path of n edges, each rule copy k closing its own T<k>:
//
//   R(x,y) -> T<k>(x,y)        T<k>(x,y), R(y,z) -> T<k>(x,z)
//
// so chain length n drives both the tuple count (|T| = n(n+1)/2) and the
// round count (~n), and `rules` multiplies the per-round matching work.
// This is the shape where rescanning is quadratically wasteful: after the
// first pass each round adds one path per chain suffix, yet the naive
// executor re-derives every prior assignment every round.
//
// Besides the google-benchmark numbers, each (mode, n, rules) point records
// a `chase_scaling.<mode>.n<n>.r<rules>.wall_us` histogram into the shared
// bench registry — those are the lines bench_all.sh collects into
// BENCH_<label>.json, which is how the naive/semi-naive gap is tracked
// across commits (see EXPERIMENTS.md).
#include <benchmark/benchmark.h>

#include <chrono>
#include <string>
#include <vector>

#include "bench_report.h"

#include "chase/chase.h"
#include "instance/instance.h"
#include "logic/formula.h"

namespace {

using mm2::instance::Instance;
using mm2::instance::Value;
using mm2::logic::Atom;
using mm2::logic::Term;
using mm2::logic::Tgd;

Term V(const std::string& name) { return Term::Var(name); }

// Metric names keep the executor's historical label for the default mode.
constexpr const char* kModeNames[] = {"naive", "semi_naive"};

mm2::chase::ChaseOptions ModeOptions(std::int64_t mode) {
  mm2::chase::ChaseOptions options;
  options.naive = (mode == 0);
  return options;
}

std::vector<Tgd> ClosureRules(std::int64_t copies) {
  std::vector<Tgd> tgds;
  for (std::int64_t k = 0; k < copies; ++k) {
    std::string t = "T" + std::to_string(k);
    Tgd copy;
    copy.body = {Atom{"R", {V("x"), V("y")}}};
    copy.head = {Atom{t, {V("x"), V("y")}}};
    Tgd step;
    step.body = {Atom{t, {V("x"), V("y")}}, Atom{"R", {V("y"), V("z")}}};
    step.head = {Atom{t, {V("x"), V("z")}}};
    tgds.push_back(std::move(copy));
    tgds.push_back(std::move(step));
  }
  return tgds;
}

Instance ChainInstance(std::int64_t n, std::int64_t copies) {
  Instance db;
  db.DeclareRelation("R", 2);
  for (std::int64_t k = 0; k < copies; ++k) {
    db.DeclareRelation("T" + std::to_string(k), 2);
  }
  for (std::int64_t i = 0; i < n; ++i) {
    db.InsertUnchecked("R", {Value::Int64(i), Value::Int64(i + 1)});
  }
  return db;
}

void BM_ChaseScaling(benchmark::State& state) {
  std::int64_t mode = state.range(0);
  std::int64_t n = state.range(1);
  std::int64_t copies = state.range(2);
  std::vector<Tgd> tgds = ClosureRules(copies);
  Instance db = ChainInstance(n, copies);
  mm2::chase::ChaseOptions options = ModeOptions(mode);

  std::string point = std::string("chase_scaling.") + kModeNames[mode] +
                      ".n" + std::to_string(n) + ".r" + std::to_string(copies);
  auto& wall = mm2::bench::Obs().metrics.GetHistogram(point + ".wall_us");

  std::size_t closure = 0;
  mm2::chase::ChaseStats stats;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    auto result = mm2::chase::ChaseInstance(tgds, {}, db, options);
    double us = std::chrono::duration_cast<
                    std::chrono::duration<double, std::micro>>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    wall.Record(us);
    closure = result->target.Find("T0")->size();
    stats = result->stats;
    benchmark::DoNotOptimize(result);
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * n * copies);
  state.counters["closure_edges"] = static_cast<double>(closure);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["assignments"] =
      static_cast<double>(stats.assignments_matched);
  state.counters["index_probes"] = static_cast<double>(stats.index_probes);
  state.counters["delta_tuples"] = static_cast<double>(stats.delta_tuples);
}
// mode: 0 = naive oracle, 1 = the default executor (semi-naive deltas).
BENCHMARK(BM_ChaseScaling)
    ->ArgNames({"mode", "n", "rules"})
    ->ArgsProduct({{0, 1}, {8, 16, 32, 64}, {1, 4}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

MM2_BENCH_MAIN("chase_scaling_bench");
