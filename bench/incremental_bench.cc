// Experiment C19: incremental exchange maintenance vs full re-chase.
//
// Grid: instance size (rows) x delta fraction (permille of rows, applied
// as half insertions / half deletions per maintain). Each point records a
// per-call `incremental.r<rows>.f<permille>.maintain_us` histogram; one
// `incremental.r<rows>.rechase_us` histogram per size records the full
// Exchange of an equally-sized source. Every call's time is also kept raw,
// and the custom main derives `incremental.r<rows>.f<permille>.speedup` =
// rechase median / maintain median from those samples: the histograms'
// percentiles interpolate inside exponential buckets, which quantizes the
// ratio.
//
// The acceptance bar rides the largest size at the 1% fraction: the median
// maintain over >=8 calls must beat the full re-chase by >=10x — update
// latency tracks |delta| (plus a provenance sweep), not |instance|. It
// clears the bar: four Release runs on 4 cores read 18.4x, 21.2x, 21.6x
// and 26.2x (EXPERIMENTS.md section C19).
//
// The mapping exercises all three trigger shapes the maintain path has to
// re-match: a projection copy, a two-relation key join, and an existential
// head riding the Skolem memo. Heads are disjoint and there are no egds,
// so no maintain ever needs the journal fallback (the chase-identical
// shape the 100-seed differential sweep validates).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <algorithm>
#include <deque>
#include <map>
#include <string>
#include <vector>

#include "bench_report.h"

#include "instance/instance.h"
#include "logic/formula.h"
#include "logic/mapping.h"
#include "model/schema.h"
#include "runtime/runtime.h"

namespace {

using mm2::instance::Instance;
using mm2::instance::Tuple;
using mm2::instance::Value;
using mm2::logic::Atom;
using mm2::logic::Mapping;
using mm2::logic::Term;
using mm2::logic::Tgd;

Term V(const std::string& name) { return Term::Var(name); }

constexpr std::int64_t kSizes[] = {1000, 8000, 32000};
constexpr std::int64_t kPermille[] = {1, 10, 100};

// Raw per-call times, by histogram name: the speedups divide exact medians.
std::map<std::string, std::vector<double>>& Samples() {
  static std::map<std::string, std::vector<double>> samples;
  return samples;
}

// Records one call in its histogram and its raw samples.
void RecordCall(const std::string& name, double us) {
  mm2::bench::Obs().metrics.GetHistogram(name).Record(us);
  Samples()[name].push_back(us);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double upper = v[mid];
  if (v.size() % 2 == 1) return upper;
  return (*std::max_element(v.begin(), v.begin() + mid) + upper) / 2;
}

// R(k,a) -> T0(k,a);  R(k,a),S(k,b) -> T1(a,b);  S(k,b) -> exists n T2(b,n).
Mapping BenchMapping() {
  mm2::model::Schema src("Src", mm2::model::Metamodel::kRelational);
  auto attr = [](const char* n) {
    return mm2::model::Attribute{n, mm2::model::DataType::Int64(), false};
  };
  src.AddRelation(mm2::model::Relation("R", {attr("k"), attr("a")}, {}));
  src.AddRelation(mm2::model::Relation("S", {attr("k"), attr("b")}, {}));
  mm2::model::Schema tgt("Tgt", mm2::model::Metamodel::kRelational);
  tgt.AddRelation(mm2::model::Relation("T0", {attr("k"), attr("a")}, {}));
  tgt.AddRelation(mm2::model::Relation("T1", {attr("a"), attr("b")}, {}));
  tgt.AddRelation(mm2::model::Relation("T2", {attr("b"), attr("n")}, {}));
  Tgd copy;
  copy.body = {Atom{"R", {V("k"), V("a")}}};
  copy.head = {Atom{"T0", {V("k"), V("a")}}};
  Tgd join;
  join.body = {Atom{"R", {V("k"), V("a")}}, Atom{"S", {V("k"), V("b")}}};
  join.head = {Atom{"T1", {V("a"), V("b")}}};
  Tgd exist;
  exist.body = {Atom{"S", {V("k"), V("b")}}};
  exist.head = {Atom{"T2", {V("b"), V("n")}}};  // n existential
  return Mapping::FromTgds("bench", src, tgt, {copy, join, exist});
}

Tuple Row(std::int64_t k, std::int64_t v) {
  return {Value::Int64(k), Value::Int64(v)};
}

Instance SeedSource(std::int64_t rows) {
  Instance source;
  source.DeclareRelation("R", 2);
  source.DeclareRelation("S", 2);
  for (std::int64_t k = 0; k < rows; ++k) {
    source.InsertUnchecked("R", Row(k, k % 97));
    source.InsertUnchecked("S", Row(k, k % 89));
  }
  return source;
}

// Rolling delta: insert `half` fresh keys, delete the `half` oldest live
// keys (both relations), so the instance holds `rows` keys throughout and
// every maintain does insertion AND DRed-deletion work.
mm2::runtime::Delta NextDelta(std::int64_t half, std::int64_t* next_key,
                              std::deque<std::int64_t>* live) {
  mm2::runtime::Delta delta;
  delta.inserts.DeclareRelation("R", 2);
  delta.inserts.DeclareRelation("S", 2);
  delta.deletes.DeclareRelation("R", 2);
  delta.deletes.DeclareRelation("S", 2);
  for (std::int64_t i = 0; i < half; ++i) {
    std::int64_t k = (*next_key)++;
    delta.inserts.InsertUnchecked("R", Row(k, k % 97));
    delta.inserts.InsertUnchecked("S", Row(k, k % 89));
    live->push_back(k);
  }
  for (std::int64_t i = 0; i < half && !live->empty(); ++i) {
    std::int64_t k = live->front();
    live->pop_front();
    delta.deletes.InsertUnchecked("R", Row(k, k % 97));
    delta.deletes.InsertUnchecked("S", Row(k, k % 89));
  }
  return delta;
}

void BM_Maintain(benchmark::State& state) {
  std::int64_t rows = state.range(0);
  std::int64_t permille = state.range(1);
  std::int64_t half =
      std::max<std::int64_t>(1, rows * permille / 1000 / 2);

  Mapping m = BenchMapping();
  auto begun =
      mm2::runtime::BeginExchangeSession(m, SeedSource(rows), {});
  if (!begun.ok()) {
    state.SkipWithError(begun.status().ToString().c_str());
    return;
  }
  mm2::runtime::ExchangeSession session = std::move(begun.value());
  std::int64_t next_key = rows;
  std::deque<std::int64_t> live;
  for (std::int64_t k = 0; k < rows; ++k) live.push_back(k);

  const std::string name = "incremental.r" + std::to_string(rows) + ".f" +
                           std::to_string(permille) + ".maintain_us";

  std::size_t touched = 0;
  for (auto _ : state) {
    state.PauseTiming();
    mm2::runtime::Delta delta = NextDelta(half, &next_key, &live);
    state.ResumeTiming();
    auto start = std::chrono::steady_clock::now();
    auto out = mm2::runtime::MaintainExchange(session, delta);
    double us = std::chrono::duration_cast<
                    std::chrono::duration<double, std::micro>>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    RecordCall(name, us);
    touched += out.value().inserts.TotalTuples() +
               out.value().deletes.TotalTuples();
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          2 * half);
  state.counters["delta_rows"] = static_cast<double>(2 * half);
  state.counters["target_touched"] =
      state.iterations() == 0
          ? 0
          : static_cast<double>(touched) /
                static_cast<double>(state.iterations());
  state.counters["fallbacks"] = static_cast<double>(session.fallbacks);
}
BENCHMARK(BM_Maintain)
    ->ArgNames({"rows", "permille"})
    ->ArgsProduct({{kSizes[0], kSizes[1], kSizes[2]},
                   {kPermille[0], kPermille[1], kPermille[2]}})
    ->Iterations(8)
    ->Unit(benchmark::kMicrosecond);

void BM_Rechase(benchmark::State& state) {
  std::int64_t rows = state.range(0);
  Mapping m = BenchMapping();
  Instance source = SeedSource(rows);

  const std::string name =
      "incremental.r" + std::to_string(rows) + ".rechase_us";

  for (auto _ : state) {
    auto start = std::chrono::steady_clock::now();
    auto out = mm2::runtime::Exchange(m, source, {});
    double us = std::chrono::duration_cast<
                    std::chrono::duration<double, std::micro>>(
                    std::chrono::steady_clock::now() - start)
                    .count();
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    RecordCall(name, us);
    benchmark::DoNotOptimize(out);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rows);
}
BENCHMARK(BM_Rechase)
    ->ArgNames({"rows"})
    ->Args({kSizes[0]})
    ->Args({kSizes[1]})
    ->Args({kSizes[2]})
    ->Iterations(8)
    ->Unit(benchmark::kMicrosecond);

// Derives re-chase median / maintain median per grid point from the raw
// samples and prints the ratios as extra JSON lines before the registry
// dump.
void ReportSpeedups() {
  auto median = [](const std::string& name) -> double {
    auto it = Samples().find(name);
    return it == Samples().end() ? 0.0 : Median(it->second);
  };
  for (std::int64_t rows : kSizes) {
    std::string size = "incremental.r" + std::to_string(rows);
    double rechase = median(size + ".rechase_us");
    if (rechase <= 0) continue;
    for (std::int64_t f : kPermille) {
      std::string point = size + ".f" + std::to_string(f);
      double maintain = median(point + ".maintain_us");
      if (maintain <= 0) continue;
      mm2::bench::PrintJsonLine("incremental_bench", point + ".speedup",
                                rechase / maintain, "x");
    }
  }
}

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
  ReportSpeedups();
  mm2::bench::ReportRegistry("incremental_bench");
  return 0;
}
