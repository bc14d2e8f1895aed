// Value-layer micro-ops: the hash / equality / copy primitives every chase
// probe, hash-join build, and set insertion bottoms out in, plus a
// string-heavy transitive-closure chase where those primitives dominate.
// Each point records a `value.<op>.wall_us` (micro-ops, per batch of
// kBatch values) or `chase_scaling.strings.<mode>.n<n>.wall_us` histogram
// into the shared bench registry, which is how the compact-Value /
// intern-pool representation is tracked against the PR 4 baseline
// (EXPERIMENTS.md section C14).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "bench_report.h"

#include "chase/chase.h"
#include "instance/instance.h"
#include "instance/value.h"
#include "logic/formula.h"

namespace {

using mm2::instance::Instance;
using mm2::instance::Tuple;
using mm2::instance::TupleHash;
using mm2::instance::Value;
using mm2::logic::Atom;
using mm2::logic::Term;
using mm2::logic::Tgd;

constexpr std::size_t kBatch = 4096;

double MicrosSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration_cast<
             std::chrono::duration<double, std::micro>>(
             std::chrono::steady_clock::now() - start)
      .count();
}

// A deterministic mixed pool of distinct strings with realistic lengths
// (identifier-ish short ones plus a tail long enough to defeat SSO).
std::vector<Value> StringValues(std::size_t n) {
  std::vector<Value> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::string s = "entity_" + std::to_string(i % (n / 2 + 1));
    if (i % 7 == 0) s += "_with_a_long_disambiguating_suffix";
    out.push_back(Value::String(s));
  }
  return out;
}

std::vector<Value> IntValues(std::size_t n) {
  std::vector<Value> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(Value::Int64(static_cast<std::int64_t>(i * 2654435761u)));
  }
  return out;
}

void BM_ValueHash(benchmark::State& state, const char* label,
                  std::vector<Value> (*make)(std::size_t)) {
  std::vector<Value> values = make(kBatch);
  auto& wall = mm2::bench::Obs().metrics.GetHistogram(
      std::string("value.hash_") + label + ".wall_us");
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    std::size_t acc = 0;
    for (const Value& v : values) acc ^= v.Hash();
    benchmark::DoNotOptimize(acc);
    wall.Record(MicrosSince(start));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * kBatch);
}

void BM_ValueCompare(benchmark::State& state, const char* label,
                     std::vector<Value> (*make)(std::size_t)) {
  std::vector<Value> values = make(kBatch);
  // Half the probes hit an equal value, half a different one — the mix a
  // set lookup or join probe sees.
  std::vector<Value> probes = values;
  for (std::size_t i = 0; i + 1 < probes.size(); i += 2) {
    probes[i] = probes[i + 1];
  }
  auto& wall = mm2::bench::Obs().metrics.GetHistogram(
      std::string("value.compare_") + label + ".wall_us");
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    std::size_t eq = 0;
    std::size_t lt = 0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      if (values[i] == probes[i]) ++eq;
      if (values[i] < probes[i]) ++lt;
    }
    benchmark::DoNotOptimize(eq);
    benchmark::DoNotOptimize(lt);
    wall.Record(MicrosSince(start));
  }
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * kBatch * 2);
}

void BM_TupleCopy(benchmark::State& state, const char* label,
                  std::vector<Value> (*make)(std::size_t)) {
  std::vector<Value> values = make(kBatch);
  constexpr std::size_t kArity = 4;
  std::vector<Tuple> rows;
  rows.reserve(kBatch / kArity);
  for (std::size_t i = 0; i + kArity <= values.size(); i += kArity) {
    rows.emplace_back(values.begin() + static_cast<std::ptrdiff_t>(i),
                      values.begin() + static_cast<std::ptrdiff_t>(i + kArity));
  }
  auto& wall = mm2::bench::Obs().metrics.GetHistogram(
      std::string("value.tuple_copy_") + label + ".wall_us");
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    std::vector<Tuple> copy = rows;
    benchmark::DoNotOptimize(copy.data());
    wall.Record(MicrosSince(start));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(rows.size()));
}

void BM_TupleHashProbe(benchmark::State& state, const char* label,
                       std::vector<Value> (*make)(std::size_t)) {
  std::vector<Value> values = make(kBatch);
  constexpr std::size_t kArity = 3;
  std::unordered_map<Tuple, std::size_t, TupleHash> table;
  std::vector<Tuple> probes;
  for (std::size_t i = 0; i + kArity <= values.size(); i += kArity) {
    Tuple t(values.begin() + static_cast<std::ptrdiff_t>(i),
            values.begin() + static_cast<std::ptrdiff_t>(i + kArity));
    table.emplace(t, i);
    probes.push_back(std::move(t));
  }
  auto& wall = mm2::bench::Obs().metrics.GetHistogram(
      std::string("value.tuple_probe_") + label + ".wall_us");
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    std::size_t hits = 0;
    for (const Tuple& t : probes) hits += table.count(t);
    benchmark::DoNotOptimize(hits);
    wall.Record(MicrosSince(start));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(probes.size()));
}

BENCHMARK_CAPTURE(BM_ValueHash, str, "str", StringValues);
BENCHMARK_CAPTURE(BM_ValueHash, int, "int", IntValues);
BENCHMARK_CAPTURE(BM_ValueCompare, str, "str", StringValues);
BENCHMARK_CAPTURE(BM_ValueCompare, int, "int", IntValues);
BENCHMARK_CAPTURE(BM_TupleCopy, str, "str", StringValues);
BENCHMARK_CAPTURE(BM_TupleCopy, int, "int", IntValues);
BENCHMARK_CAPTURE(BM_TupleHashProbe, str, "str", StringValues);
BENCHMARK_CAPTURE(BM_TupleHashProbe, int, "int", IntValues);

// Resident footprint: builds an Instance holding 100k arity-4 tuples whose
// string columns draw from a 1k-string domain — the duplication profile of a
// real fact table. The interesting output is `mem.peak_rss_kb` from the
// shared bench report (process high-water mark), which this workload
// dominates; wall time is recorded as a secondary point.
void BM_InstanceFootprint(benchmark::State& state) {
  constexpr std::int64_t kRows = 100000;
  constexpr std::int64_t kDomain = 1000;
  auto& wall = mm2::bench::Obs().metrics.GetHistogram(
      "value.instance_footprint.wall_us");
  std::size_t held = 0;
  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    Instance db;
    db.DeclareRelation("F", 4);
    for (std::int64_t i = 0; i < kRows; ++i) {
      std::string a =
          "warehouse_item_" + std::to_string(i % kDomain) +
          "_with_a_long_disambiguating_suffix";
      std::string b = "supplier_" + std::to_string((i * 7) % kDomain);
      std::string c = "region_" + std::to_string((i * 13) % kDomain);
      db.InsertUnchecked("F", {Value::Int64(i), Value::String(a),
                               Value::String(b), Value::String(c)});
    }
    held = db.Find("F")->size();
    benchmark::DoNotOptimize(held);
    wall.Record(MicrosSince(start));
  }
  state.counters["rows_held"] = static_cast<double>(held);
  state.SetItemsProcessed(
      static_cast<std::int64_t>(state.iterations()) * kRows);
}
BENCHMARK(BM_InstanceFootprint)->Unit(benchmark::kMillisecond);

// String-heavy transitive closure: the chase_scaling chain with
// string-typed node ids, so every probe key, set insertion, and delta tuple
// hashes and compares strings. Runs the default executor under the metric
// label it has always carried.
void BM_ChaseStrings(benchmark::State& state) {
  std::int64_t n = state.range(0);

  Tgd copy;
  copy.body = {Atom{"R", {Term::Var("x"), Term::Var("y")}}};
  copy.head = {Atom{"T", {Term::Var("x"), Term::Var("y")}}};
  Tgd step;
  step.body = {Atom{"T", {Term::Var("x"), Term::Var("y")}},
               Atom{"R", {Term::Var("y"), Term::Var("z")}}};
  step.head = {Atom{"T", {Term::Var("x"), Term::Var("z")}}};
  std::vector<Tgd> tgds{copy, step};

  Instance db;
  db.DeclareRelation("R", 2);
  db.DeclareRelation("T", 2);
  auto node = [](std::int64_t i) {
    return Value::String("warehouse_node_" + std::to_string(i));
  };
  for (std::int64_t i = 0; i < n; ++i) {
    db.InsertUnchecked("R", {node(i), node(i + 1)});
  }

  std::string point =
      "chase_scaling.strings.semi_naive.n" + std::to_string(n);
  auto& wall = mm2::bench::Obs().metrics.GetHistogram(point + ".wall_us");

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
    closure = result->target.Find("T")->size();
    benchmark::DoNotOptimize(result);
  }
  state.counters["closure_edges"] = static_cast<double>(closure);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_ChaseStrings)
    ->ArgNames({"n"})
    ->ArgsProduct({{16, 32, 64}})
    ->Unit(benchmark::kMillisecond);

}  // namespace

MM2_BENCH_MAIN("value_bench");
