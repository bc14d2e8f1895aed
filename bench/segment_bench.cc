// The sealed run (EXPERIMENTS.md section C22). The chase works on the set
// and the insert log only and seals its finished target once on publish;
// readers of the result then get the run's sorted columns. Three cases:
//
//   1. BM_SegmentChase — the transitive-closure chase grid from
//      chase_scaling_bench through ChaseInstance. Records wall time, the
//      seals (one per non-empty relation, on publish) and the rounds.
//
//   2. BM_SealMicro — the publish seal in isolation: PrepareSegments over
//      an n-row relation, a column-major copy of the set (no compares).
//
//   3. BM_ProbeMicro — n leading-column prefix probes over an n-row
//      relation, served by the sealed run's binary searches (mode 1) or by
//      ordered ranges over the set (mode 0), the two read paths a chase
//      result offers before and after its first mutation.
//
// Each point records `segment.<case>[.<mode>].n<n>.wall_us` histograms
// (plus `.seals` / `.rounds` gauges for the chase) into the shared bench
// registry for BENCH_<label>.json trajectories.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "bench_report.h"

#include "chase/chase.h"
#include "instance/instance.h"
#include "instance/segment.h"
#include "instance/value.h"
#include "logic/formula.h"

namespace {

using mm2::instance::Instance;
using mm2::instance::RelationInstance;
using mm2::instance::Tuple;
using mm2::instance::Value;
using mm2::logic::Atom;
using mm2::logic::Term;
using mm2::logic::Tgd;

Term V(const std::string& name) { return Term::Var(name); }

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// The closure workload from chase_scaling_bench: chain R of n edges,
// copy + step rules closing T.
std::vector<Tgd> ClosureRules() {
  Tgd copy;
  copy.body = {Atom{"R", {V("x"), V("y")}}};
  copy.head = {Atom{"T", {V("x"), V("y")}}};
  Tgd step;
  step.body = {Atom{"T", {V("x"), V("y")}}, Atom{"R", {V("y"), V("z")}}};
  step.head = {Atom{"T", {V("x"), V("z")}}};
  return {copy, step};
}

Instance ChainInstance(std::int64_t n) {
  Instance db;
  db.DeclareRelation("R", 2);
  db.DeclareRelation("T", 2);
  for (std::int64_t i = 0; i < n; ++i) {
    db.InsertUnchecked("R", {Value::Int64(i), Value::Int64(i + 1)});
  }
  return db;
}

void BM_SegmentChase(benchmark::State& state) {
  std::int64_t n = state.range(0);
  std::vector<Tgd> tgds = ClosureRules();
  Instance db = ChainInstance(n);

  std::string point = "segment.chase.n" + std::to_string(n);
  auto& wall = mm2::bench::Obs().metrics.GetHistogram(point + ".wall_us");

  mm2::chase::ChaseStats stats;
  std::size_t closure = 0;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    auto result = mm2::chase::ChaseInstance(tgds, {}, db);
    double us = MicrosSince(start);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      return;
    }
    wall.Record(us);
    stats = result->stats;
    closure = result->target.Find("T")->size();
    benchmark::DoNotOptimize(result);
  }
  mm2::bench::Obs().metrics.GetGauge(point + ".seals").Set(
      static_cast<std::int64_t>(stats.segment.seals));
  mm2::bench::Obs().metrics.GetGauge(point + ".rounds").Set(
      static_cast<std::int64_t>(stats.rounds));
  state.counters["closure_edges"] = static_cast<double>(closure);
  state.counters["rounds"] = static_cast<double>(stats.rounds);
  state.counters["seals"] = static_cast<double>(stats.segment.seals);
  state.counters["index_probes"] = static_cast<double>(stats.index_probes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SegmentChase)
    ->ArgNames({"n"})
    ->ArgsProduct({{8, 16, 32, 64}})
    ->Unit(benchmark::kMillisecond);

// n rows over n/8 leading values, eight rows per prefix.
RelationInstance PrefixRelation(std::int64_t n) {
  RelationInstance rel(2);
  for (std::int64_t i = 0; i < n; ++i) {
    rel.Insert({Value::Int64(i / 8), Value::Int64(i)});
  }
  return rel;
}

void BM_SealMicro(benchmark::State& state) {
  std::int64_t n = state.range(0);
  const RelationInstance rel = PrefixRelation(n);
  std::string point = "segment.seal.n" + std::to_string(n);
  auto& wall = mm2::bench::Obs().metrics.GetHistogram(point + ".wall_us");
  for (auto _ : state) {
    RelationInstance copy = rel;  // copies share a run; rel holds none
    auto start = std::chrono::steady_clock::now();
    copy.PrepareSegments();
    wall.Record(MicrosSince(start));
    benchmark::DoNotOptimize(copy.sealed_rows());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SealMicro)
    ->ArgNames({"n"})
    ->ArgsProduct({{1024, 8192, 65536}})
    ->Unit(benchmark::kMicrosecond);

void BM_ProbeMicro(benchmark::State& state) {
  const std::int64_t mode = state.range(0);
  const std::int64_t n = state.range(1);
  const RelationInstance rel = PrefixRelation(n);
  if (mode == 1) rel.PrepareSegments();
  std::string point = std::string("segment.probe.") +
                      (mode == 1 ? "run" : "set") + ".n" + std::to_string(n);
  auto& wall = mm2::bench::Obs().metrics.GetHistogram(point + ".wall_us");
  Tuple key(1);
  for (auto _ : state) {
    std::uint64_t rows = 0;
    auto start = std::chrono::steady_clock::now();
    for (std::int64_t i = 0; i < n; ++i) {
      key[0] = Value::Int64((i * 7919) % (n / 8));
      if (mode == 1) {
        rows += rel.SegmentProbePrefix(key)->size();
      } else {
        for (auto it = rel.tuples().lower_bound(key);
             it != rel.tuples().end() && (*it)[0] == key[0]; ++it) {
          ++rows;
        }
      }
    }
    wall.Record(MicrosSince(start));
    benchmark::DoNotOptimize(rows);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
// mode: 0 = ordered range over the set, 1 = the sealed run's prefix range.
BENCHMARK(BM_ProbeMicro)
    ->ArgNames({"mode", "n"})
    ->ArgsProduct({{0, 1}, {1024, 8192}})
    ->Unit(benchmark::kMicrosecond);

}  // namespace

MM2_BENCH_MAIN("segment_bench");
