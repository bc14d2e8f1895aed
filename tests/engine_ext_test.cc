// Tests for the extended engine script commands: batchload, oogen,
// nestedgen — the newer operators reachable from the Rondo-style DSL.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "logic/formula.h"
#include "model/schema.h"
#include "text/sexpr.h"

namespace mm2::engine {
namespace {

using instance::Instance;
using instance::Value;
using logic::Atom;
using logic::Mapping;
using logic::Term;
using logic::Tgd;
using model::DataType;
using model::Metamodel;
using model::SchemaBuilder;

Term V(const char* name) { return Term::Var(name); }

class EngineExtTest : public ::testing::Test {
 protected:
  void SetUp() override {
    model::Schema s =
        SchemaBuilder("S", Metamodel::kRelational)
            .Relation("Orders", {{"OrderId", DataType::Int64()},
                                 {"Item", DataType::String()}},
                      {"OrderId"})
            .Relation("Lines", {{"OrderId", DataType::Int64()},
                                {"Qty", DataType::Int64()}},
                      {"OrderId"})
            .ForeignKey("Lines", {"OrderId"}, "Orders", {"OrderId"})
            .Build();
    model::Schema t =
        SchemaBuilder("T", Metamodel::kRelational)
            .Relation("Flat", {{"OrderId", DataType::Int64()},
                               {"Item", DataType::String()},
                               {"Qty", DataType::Int64()}},
                      {"OrderId"})
            .Build();
    Tgd join;
    join.body = {Atom{"Orders", {V("o"), V("i")}},
                 Atom{"Lines", {V("o"), V("q")}}};
    join.head = {Atom{"Flat", {V("o"), V("i"), V("q")}}};
    ASSERT_TRUE(engine_.repo().PutSchema(s).ok());
    ASSERT_TRUE(engine_.repo().PutSchema(t).ok());
    ASSERT_TRUE(
        engine_.repo().PutMapping(Mapping::FromTgds("flatten", s, t, {join}))
            .ok());
    Instance db = Instance::EmptyFor(s);
    ASSERT_TRUE(db.Insert("Orders", {Value::Int64(1),
                                     Value::String("widget")})
                    .ok());
    ASSERT_TRUE(db.Insert("Lines", {Value::Int64(1), Value::Int64(3)}).ok());
    ASSERT_TRUE(engine_.repo().PutInstance("D", std::move(db)).ok());
  }

  Engine engine_;
};

TEST_F(EngineExtTest, BatchLoadMatchesExchange) {
  auto log = engine_.RunScript(R"(
exchange Dchase flatten D
batchload Dfast flatten D
)");
  ASSERT_TRUE(log.ok()) << log.status();
  auto chase = engine_.repo().GetInstance("Dchase");
  auto fast = engine_.repo().GetInstance("Dfast");
  ASSERT_TRUE(chase.ok() && fast.ok());
  EXPECT_TRUE(fast->Equals(*chase));
  EXPECT_EQ(fast->Find("Flat")->size(), 1u);
}

// batchload runs the chase's match plans, so it compares values as
// exchange does: NULL joins NULL, and the constant 1 selects the int 1 but
// not the double 1.0. On an existential-free mapping the targets are equal.
TEST_F(EngineExtTest, BatchLoadComparesValuesAsTheChaseDoes) {
  auto mapping = text::ParseMapping(R"(
(mapping probe
  (source (schema PS relational
    (relation R (attr a int64) (attr b int64))
    (relation Q (attr b int64) (attr c int64))))
  (target (schema PT relational
    (relation J (attr a int64) (attr c int64))
    (relation K (attr a int64))))
  (tgd (body (R x y) (Q y z)) (head (J x z)))
  (tgd (body (R x 1)) (head (K x)))))");
  ASSERT_TRUE(mapping.ok()) << mapping.status();
  auto source = text::ParseInstance(R"(
(instance
  (R (1 null) (2 5) (3 1.0) (4 1))
  (Q (null 7) (5 8))))");
  ASSERT_TRUE(source.ok()) << source.status();
  ASSERT_TRUE(engine_.repo().PutMapping(*mapping).ok());
  ASSERT_TRUE(engine_.repo().PutInstance("P", *source).ok());

  auto log = engine_.RunScript("exchange T probe P\nbatchload L probe P");
  ASSERT_TRUE(log.ok()) << log.status();
  auto chased = engine_.repo().GetInstance("T");
  auto loaded = engine_.repo().GetInstance("L");
  ASSERT_TRUE(chased.ok() && loaded.ok());
  EXPECT_TRUE(loaded->Equals(*chased))
      << "batchload:\n" << loaded->ToString() << "exchange:\n"
      << chased->ToString();
  EXPECT_TRUE(loaded->Find("J")->Contains({Value::Int64(1), Value::Int64(7)}));
  EXPECT_FALSE(loaded->Find("K")->Contains({Value::Int64(3)}));
  EXPECT_EQ(engine_.EqCheck("T", "L").value(), "equal");
}

TEST_F(EngineExtTest, OoGenRegistersWrapper) {
  auto log = engine_.RunScript("oogen Soo wrapS S");
  ASSERT_TRUE(log.ok()) << log.status();
  auto oo = engine_.repo().GetSchema("Soo");
  ASSERT_TRUE(oo.ok());
  EXPECT_EQ(oo->metamodel(), Metamodel::kObjectOriented);
  EXPECT_EQ(oo->entity_types().size(), 2u);
  EXPECT_TRUE(engine_.repo().HasMapping("wrapS"));
  auto wrap = engine_.repo().GetMapping("wrapS");
  EXPECT_EQ(wrap->source().name(), "Soo");
}

TEST_F(EngineExtTest, NestedGenRegistersDocumentSchema) {
  auto log = engine_.RunScript("nestedgen Sdoc docMap S");
  ASSERT_TRUE(log.ok()) << log.status();
  auto nested = engine_.repo().GetSchema("Sdoc");
  ASSERT_TRUE(nested.ok());
  EXPECT_EQ(nested->metamodel(), Metamodel::kNested);
  // Lines folds into Orders_doc.
  ASSERT_EQ(nested->relations().size(), 1u);
  EXPECT_EQ(nested->relations()[0].name(), "Orders_doc");
}

TEST_F(EngineExtTest, BatchLoadRefusesUncompilableMapping) {
  // A mapping with a target egd needs the chase.
  auto m = engine_.repo().GetMapping("flatten");
  ASSERT_TRUE(m.ok());
  logic::Egd key;
  key.body = {Atom{"Flat", {V("o"), V("i1"), V("q1")}},
              Atom{"Flat", {V("o"), V("i2"), V("q2")}}};
  key.left = "i1";
  key.right = "i2";
  logic::Mapping keyed = *m;
  keyed.set_name("keyed");
  keyed.AddTargetEgd(key);
  ASSERT_TRUE(engine_.repo().PutMapping(keyed).ok());
  auto log = engine_.RunScript("batchload Dx keyed D");
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kUnsupported);
}

TEST_F(EngineExtTest, ScriptArgumentErrors) {
  EXPECT_FALSE(engine_.RunScript("batchload onlyone").ok());
  EXPECT_FALSE(engine_.RunScript("oogen a b Missing").ok());
  EXPECT_FALSE(engine_.RunScript("nestedgen a b Missing").ok());
}

TEST_F(EngineExtTest, ExplainReportsOperatorAndRuleAttribution) {
  auto log = engine_.RunScript(R"(
exchange Dout flatten D
explain
)");
  ASSERT_TRUE(log.ok()) << log.status();
  std::string joined;
  for (const std::string& line : *log) joined += line + "\n";
  // The exchange operator shows up ranked, and the chase rule behind it is
  // attributed by label with its share of chase wall time.
  EXPECT_NE(joined.find("explain: "), std::string::npos);
  EXPECT_NE(joined.find("exchange"), std::string::npos);
  EXPECT_NE(joined.find("tgd0:Orders+Lines->Flat"), std::string::npos);
  EXPECT_NE(joined.find("dominant rule: tgd0:Orders+Lines->Flat"),
            std::string::npos);
}

TEST_F(EngineExtTest, ExplainReportsStorageTelemetry) {
  auto log = engine_.RunScript(R"(
exchange Dout flatten D
explain
)");
  ASSERT_TRUE(log.ok()) << log.status();
  std::string joined;
  for (const std::string& line : *log) joined += line + "\n";
  // The storage section attributes the executor's work.
  EXPECT_NE(joined.find("storage:"), std::string::npos) << joined;
  EXPECT_NE(joined.find("index.probes"), std::string::npos);
  EXPECT_NE(joined.find("chase.delta.tuples"), std::string::npos);

  // The chase mirrored its seal on publish and its delta traffic into the
  // registry: the target is sealed once, and round 1 counts the whole
  // extension as delta.
  EXPECT_NE(joined.find("segment.seals"), std::string::npos);
  obs::MetricsSnapshot snap = engine_.observability().metrics.Snapshot();
  ASSERT_NE(snap.FindCounter("storage.segment.seals"), nullptr);
  EXPECT_GT(snap.FindCounter("storage.segment.seals")->value, 0u);
  ASSERT_NE(snap.FindCounter("chase.delta.tuples"), nullptr);
  EXPECT_GT(snap.FindCounter("chase.delta.tuples")->value, 0u);
}

TEST_F(EngineExtTest, ExplainJsonIsOneMachineReadableLine) {
  auto log = engine_.RunScript(R"(
exchange Dout flatten D
explain --json
)");
  ASSERT_TRUE(log.ok()) << log.status();
  ASSERT_GE(log->size(), 2u);
  const std::string& json = log->back();
  EXPECT_EQ(json.front(), '{');
  EXPECT_NE(json.find("\"operators\": ["), std::string::npos);
  EXPECT_NE(json.find("\"label\": \"tgd0:Orders+Lines->Flat\""),
            std::string::npos);
  EXPECT_NE(json.find("\"totals\""), std::string::npos);
  EXPECT_FALSE(engine_.RunScript("explain --verbose").ok());
}

TEST_F(EngineExtTest, StatsOutputIsDeterministic) {
  ASSERT_TRUE(engine_.RunScript("exchange D1 flatten D").ok());
  auto first = engine_.RunScript("stats");
  auto second = engine_.RunScript("stats");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  // Metric *names* appear in the same sorted order on every dump (values
  // may differ — each RunScript snapshots the same live registry).
  auto names_of = [](const std::vector<std::string>& lines) {
    std::vector<std::string> names;
    for (const std::string& line : lines) {
      std::istringstream words(line);
      std::string kind, name;
      if (words >> kind >> name &&
          (kind == "counter" || kind == "gauge" || kind == "histogram")) {
        names.push_back(kind + " " + name);
      }
    }
    return names;
  };
  std::vector<std::string> first_names = names_of(*first);
  EXPECT_FALSE(first_names.empty());
  EXPECT_EQ(first_names, names_of(*second));
  std::vector<std::string> sorted = first_names;
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(first_names, sorted);
}

TEST_F(EngineExtTest, ExplainMappingReportsStaticAnalysis) {
  auto log = engine_.RunScript("explain mapping flatten");
  ASSERT_TRUE(log.ok()) << log.status();
  std::string joined;
  for (const std::string& line : *log) joined += line + "\n";
  EXPECT_NE(joined.find("termination: terminating (weakly acyclic)"),
            std::string::npos);
  EXPECT_NE(joined.find("tgd0:Orders+Lines->Flat"), std::string::npos);
  EXPECT_NE(joined.find("predicted"), std::string::npos);

  auto json = engine_.RunScript("explain mapping flatten --json");
  ASSERT_TRUE(json.ok()) << json.status();
  ASSERT_EQ(json->size(), 1u);
  EXPECT_EQ(json->front().front(), '{');
  EXPECT_NE(json->front().find("\"termination\": \"terminating\""),
            std::string::npos);
  EXPECT_NE(json->front().find("\"strata\": [[0]]"), std::string::npos);
  EXPECT_EQ(json->front().find('\n'), std::string::npos);

  auto dot = engine_.RunScript("explain mapping flatten --dot");
  ASSERT_TRUE(dot.ok()) << dot.status();
  ASSERT_EQ(dot->size(), 1u);
  EXPECT_EQ(dot->front().rfind("digraph mapping_analysis {", 0), 0u);
  EXPECT_NE(dot->front().find("cluster_stratum_0"), std::string::npos);

  EXPECT_FALSE(engine_.RunScript("explain mapping").ok());
  EXPECT_FALSE(engine_.RunScript("explain mapping nosuch").ok());
  EXPECT_FALSE(engine_.RunScript("explain mapping flatten --png").ok());
}

TEST_F(EngineExtTest, StatsJsonSharesMetricNamesWithTextForm) {
  ASSERT_TRUE(engine_.RunScript("exchange Dout flatten D").ok());
  auto json = engine_.RunScript("stats --json");
  ASSERT_TRUE(json.ok()) << json.status();
  ASSERT_EQ(json->size(), 1u);
  const std::string& line = json->front();
  EXPECT_EQ(line.front(), '{');
  EXPECT_EQ(line.find('\n'), std::string::npos);
  EXPECT_NE(line.find("\"counters\": {"), std::string::npos);
  EXPECT_NE(line.find("\"histograms\": {"), std::string::npos);
  // Every metric name from the text dump appears verbatim in the JSON —
  // the shared-serializer contract of the two surfaces.
  auto text = engine_.RunScript("stats");
  ASSERT_TRUE(text.ok());
  for (const std::string& text_line : *text) {
    std::istringstream words(text_line);
    std::string kind, name;
    if (words >> kind >> name &&
        (kind == "counter" || kind == "gauge" || kind == "histogram")) {
      EXPECT_NE(line.find("\"" + name + "\":"), std::string::npos)
          << "metric " << name << " missing from stats --json";
    }
  }
  EXPECT_FALSE(engine_.RunScript("stats --verbose").ok());
}

TEST_F(EngineExtTest, ExchangeAndMaintainStampForesight) {
  // The engine's session analyzes the mapping once and attaches it to
  // every pass, so `explain` shows the foresight section after the
  // exchange and after a maintain, and no stratum table anywhere.
  auto expect_foresight = [this](const char* after) {
    auto log = engine_.RunScript("explain --json");
    ASSERT_TRUE(log.ok()) << log.status();
    const std::string& json = log->back();
    EXPECT_NE(json.find("\"foresight\": {\"analyzed\": true, "
                        "\"terminating\": true"),
              std::string::npos)
        << after << ": " << json;
    EXPECT_EQ(json.find("\"strata\""), std::string::npos) << after;
    EXPECT_EQ(json.find("\"stratum\""), std::string::npos) << after;
  };
  ASSERT_TRUE(engine_.RunScript("exchange Dout flatten D").ok());
  expect_foresight("exchange");
  // A fresh collector for the maintain: the gauges it reports can only
  // come from the maintain's own chase pass.
  obs::Context maintain_obs;
  engine_.SetObservability(&maintain_obs);
  ASSERT_TRUE(engine_.RunScript("apply +Orders(2,\"gizmo\")\n"
                                "apply +Lines(2,5)\n"
                                "maintain flatten")
                  .ok());
  expect_foresight("maintain");
  engine_.SetObservability(nullptr);
}

TEST_F(EngineExtTest, LogLevelCommandSetsThreshold) {
  auto log = engine_.RunScript("log level warn");
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(engine_.observability().events.min_level(),
            obs::EventLevel::kWarn);
  EXPECT_FALSE(engine_.RunScript("log level chatty").ok());
  EXPECT_FALSE(engine_.RunScript("log level").ok());
  ASSERT_TRUE(engine_.RunScript("log level debug").ok());
  EXPECT_EQ(engine_.observability().events.min_level(),
            obs::EventLevel::kDebug);
}

TEST_F(EngineExtTest, WhyExplainsTargetFactAfterExchange) {
  auto log = engine_.RunScript(R"(
exchange Dout flatten D
why Flat(1,"widget",3)
)");
  ASSERT_TRUE(log.ok()) << log.status();
  std::string joined;
  for (const std::string& line : *log) joined += line + "\n";
  EXPECT_NE(joined.find("because:"), std::string::npos) << joined;
  EXPECT_NE(joined.find("Orders(1, \"widget\")"), std::string::npos)
      << joined;
  EXPECT_NE(joined.find("Lines(1, 3)"), std::string::npos) << joined;
  EXPECT_NE(joined.find("sources:"), std::string::npos) << joined;
}

TEST_F(EngineExtTest, WhyReportsUnderivedFactAndBadInput) {
  ASSERT_TRUE(engine_.RunScript("exchange Dout flatten D").ok());
  // A fact the exchange never derived: answered, not an error.
  auto log = engine_.RunScript("why Flat(99,\"nope\",0)");
  ASSERT_TRUE(log.ok()) << log.status();
  std::string joined;
  for (const std::string& line : *log) joined += line + "\n";
  EXPECT_NE(joined.find("no recorded derivation"), std::string::npos);
  // Malformed fact literals fail with a parse diagnostic.
  EXPECT_FALSE(engine_.RunScript("why notafact").ok());
  EXPECT_FALSE(engine_.RunScript("why Flat(oops)").ok());
}

TEST_F(EngineExtTest, WhyRequiresAPriorExchange) {
  auto log = engine_.RunScript("why Flat(1,\"widget\",3)");
  ASSERT_FALSE(log.ok());
  EXPECT_NE(log.status().message().find("prior exchange"),
            std::string::npos);
}

TEST_F(EngineExtTest, LogCommandWritesJsonLinesToFile) {
  std::string path = ::testing::TempDir() + "/engine_ext_events.jsonl";
  auto log = engine_.RunScript("log json " + path +
                               "\nexchange Dout flatten D\nlog off\n");
  ASSERT_TRUE(log.ok()) << log.status();
  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  bool saw_heartbeat = false;
  while (std::getline(in, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    if (line.find("\"event\": \"chase.heartbeat\"") != std::string::npos) {
      saw_heartbeat = true;
    }
  }
  EXPECT_TRUE(saw_heartbeat);
  EXPECT_FALSE(engine_.RunScript("log loud").ok());
}

TEST_F(EngineExtTest, BudgetBreachRegistersPartialInstanceAndFails) {
  // Load a source big enough to blow a 1-tuple budget in round one.
  instance::Instance big = instance::Instance::EmptyFor(
      engine_.repo().GetSchema("S").value());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(big.Insert("Orders", {Value::Int64(i),
                                      Value::String("x")}).ok());
    ASSERT_TRUE(big.Insert("Lines", {Value::Int64(i), Value::Int64(i)}).ok());
  }
  ASSERT_TRUE(engine_.repo().PutInstance("Big", std::move(big)).ok());
  auto log = engine_.RunScript(R"(
log text
budget tuples 1
exchange Dpartial flatten Big
)");
  ASSERT_FALSE(log.ok());
  EXPECT_EQ(log.status().code(), StatusCode::kResourceExhausted);
  // The diagnostic names the breach, the dominant rule, and carries the
  // flight-recorder dump.
  EXPECT_NE(log.status().message().find("tuples budget breached"),
            std::string::npos)
      << log.status();
  EXPECT_NE(log.status().message().find("tgd0:Orders+Lines->Flat"),
            std::string::npos);
  EXPECT_NE(log.status().message().find("-- flight recorder"),
            std::string::npos);
  // The partial instance was still registered, with partial data intact.
  auto partial = engine_.repo().GetInstance("Dpartial");
  ASSERT_TRUE(partial.ok());
  EXPECT_GT(partial->TotalTuples(), 0u);
  // `budget off` clears the limits; the same exchange then completes.
  auto cleared = engine_.RunScript(R"(
budget off
exchange Dfull flatten Big
)");
  ASSERT_TRUE(cleared.ok()) << cleared.status();
  EXPECT_EQ(engine_.repo().GetInstance("Dfull")->Find("Flat")->size(), 8u);
}

TEST_F(EngineExtTest, BudgetCommandRejectsBadArguments) {
  EXPECT_FALSE(engine_.RunScript("budget").ok());
  EXPECT_FALSE(engine_.RunScript("budget tuples").ok());
  EXPECT_FALSE(engine_.RunScript("budget tuples many").ok());
  EXPECT_FALSE(engine_.RunScript("budget tuples -1").ok());
  EXPECT_FALSE(engine_.RunScript("budget watts 5").ok());
  EXPECT_TRUE(engine_.RunScript("budget wall_us 1000000").ok());
  EXPECT_TRUE(engine_.RunScript("budget off").ok());
}

TEST_F(EngineExtTest, StatsReportsPeakRss) {
  auto log = engine_.RunScript("stats");
  ASSERT_TRUE(log.ok()) << log.status();
  std::string joined;
  for (const std::string& line : *log) joined += line + "\n";
  EXPECT_NE(joined.find("mem.peak_rss_kb"), std::string::npos) << joined;
  obs::MetricsSnapshot snap = engine_.observability().metrics.Snapshot();
  const obs::GaugeSnapshot* gauge = snap.FindGauge("mem.peak_rss_kb");
  ASSERT_NE(gauge, nullptr);
  EXPECT_GT(gauge->value, 0);
}

// --- Incremental maintenance through the engine ----------------------------

std::string Joined(const std::vector<std::string>& lines) {
  std::string joined;
  for (const std::string& line : lines) joined += line + "\n";
  return joined;
}

// Adds order 2 and drops order 1's line: Flat(2,"gizmo",5) is derived,
// Flat(1,"widget",3) loses its only derivation.
constexpr const char* kOrderDelta = R"(
apply +Orders(2,"gizmo")
apply +Lines(2,5)
apply -Lines(1,3)
)";

TEST_F(EngineExtTest, MaintainedOutputMatchesFreshExchange) {
  auto log = engine_.RunScript("exchange Dout flatten D\n" +
                               std::string(kOrderDelta) + "maintain flatten");
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_NE(Joined(*log).find("maintained flatten -> Dout: +1 -1 tuples"),
            std::string::npos)
      << Joined(*log);

  Instance after = engine_.repo().GetInstance("D").value();
  ASSERT_TRUE(after.Insert("Orders", {Value::Int64(2),
                                      Value::String("gizmo")}).ok());
  ASSERT_TRUE(after.Insert("Lines", {Value::Int64(2), Value::Int64(5)}).ok());
  ASSERT_TRUE(after.Erase("Lines", {Value::Int64(1), Value::Int64(3)}).ok());
  auto fresh = runtime::Exchange(engine_.repo().GetMapping("flatten").value(),
                                 after);
  ASSERT_TRUE(fresh.ok()) << fresh.status();
  auto maintained = engine_.repo().GetInstance("Dout");
  ASSERT_TRUE(maintained.ok());
  EXPECT_TRUE(instance::InstanceEqualsUpToNulls(*maintained, fresh->target));
  EXPECT_EQ(maintained->Find("Flat")->size(), 1u);
}

TEST_F(EngineExtTest, WhyAfterMaintainReadsTheMaintainedProvenance) {
  ASSERT_TRUE(engine_.RunScript("exchange Dout flatten D\n" +
                                std::string(kOrderDelta) + "maintain flatten")
                  .ok());
  auto derived = engine_.RunScript("why Flat(2,\"gizmo\",5)");
  ASSERT_TRUE(derived.ok()) << derived.status();
  std::string joined = Joined(*derived);
  EXPECT_NE(joined.find("because:"), std::string::npos) << joined;
  EXPECT_NE(joined.find("Orders(2, \"gizmo\")"), std::string::npos) << joined;
  EXPECT_NE(joined.find("Lines(2, 5)"), std::string::npos) << joined;

  auto deleted = engine_.RunScript("why Flat(1,\"widget\",3)");
  ASSERT_TRUE(deleted.ok()) << deleted.status();
  EXPECT_NE(Joined(*deleted).find("no recorded derivation"),
            std::string::npos)
      << Joined(*deleted);
}

// The explain report carries the session's provenance footprint, in text
// and in JSON, as of the last session pass.
TEST_F(EngineExtTest, ExplainReportsTheProvenanceFootprint) {
  auto explain_json = [this]() -> std::string {
    auto log = engine_.RunScript("explain --json");
    return log.ok() && !log->empty() ? log->back() : "";
  };
  auto bytes_of = [](const std::string& json) -> long long {
    const std::string key = "\"provenance_bytes\": ";
    const std::size_t at = json.find(key);
    return at == std::string::npos ? -1
                                   : std::stoll(json.substr(at + key.size()));
  };
  ASSERT_TRUE(engine_.RunScript("exchange Dout flatten D").ok());
  // Flat(1,"widget",3) has one witness reading Orders(1,"widget") and
  // Lines(1,3): one support-index entry each.
  std::string json = explain_json();
  EXPECT_NE(json.find("\"provenance_facts\": 1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"provenance_witnesses\": 1,"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"provenance_support_edges\": 2,"), std::string::npos)
      << json;
  EXPECT_GT(bytes_of(json), 0) << json;
  auto text = engine_.RunScript("explain");
  ASSERT_TRUE(text.ok()) << text.status();
  EXPECT_NE(Joined(*text).find("provenance.bytes"), std::string::npos)
      << Joined(*text);

  // The maintain deletes Lines(1,3): its entry leaves the index and
  // Flat(1,"widget",3) its only witness. Flat(2,"gizmo",5) books a witness
  // reading two facts; Orders(1,"widget") keeps its entry for the erased
  // fact until it is deleted itself.
  ASSERT_TRUE(engine_.RunScript(std::string(kOrderDelta) + "maintain flatten")
                  .ok());
  json = explain_json();
  EXPECT_NE(json.find("\"provenance_facts\": 1,"), std::string::npos) << json;
  EXPECT_NE(json.find("\"provenance_witnesses\": 1,"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"provenance_support_edges\": 3,"), std::string::npos)
      << json;
  EXPECT_GT(bytes_of(json), 0) << json;
  EXPECT_NE(json.find("\"maintains\": 1,"), std::string::npos) << json;
}

TEST_F(EngineExtTest, MaintainRestoresAnOverwrittenOutput) {
  ASSERT_TRUE(engine_.RunScript("exchange Dout flatten D").ok());
  ASSERT_TRUE(engine_.repo().PutInstance("Dout", Instance{}).ok());
  ASSERT_TRUE(engine_.RunScript(R"(
apply +Orders(2,"gizmo")
apply +Lines(2,5)
maintain flatten
)").ok());
  auto restored = engine_.repo().GetInstance("Dout");
  ASSERT_TRUE(restored.ok());
  ASSERT_NE(restored->Find("Flat"), nullptr);
  EXPECT_EQ(restored->Find("Flat")->size(), 2u);
}

TEST_F(EngineExtTest, MaintainMakesWhyAnswerFromItsSession) {
  Mapping second = engine_.repo().GetMapping("flatten").value();
  second.set_name("flatten2");
  ASSERT_TRUE(engine_.repo().PutMapping(second).ok());
  Instance other = engine_.repo().GetInstance("D").value();
  ASSERT_TRUE(other.Insert("Orders", {Value::Int64(5),
                                      Value::String("bolt")}).ok());
  ASSERT_TRUE(other.Insert("Lines", {Value::Int64(5), Value::Int64(1)}).ok());
  ASSERT_TRUE(engine_.repo().PutInstance("D2", std::move(other)).ok());

  ASSERT_TRUE(engine_.RunScript(R"(
exchange Dout flatten D
exchange Dother flatten2 D2
)").ok());
  // `why` follows the last exchange: only the second session knows order 5.
  auto before = engine_.RunScript("why Flat(5,\"bolt\",1)");
  ASSERT_TRUE(before.ok()) << before.status();
  EXPECT_NE(Joined(*before).find("because:"), std::string::npos);

  // Maintaining the first session makes `why` answer from it again.
  ASSERT_TRUE(engine_.RunScript(std::string(kOrderDelta) + "maintain flatten")
                  .ok());
  auto second_only = engine_.RunScript("why Flat(5,\"bolt\",1)");
  ASSERT_TRUE(second_only.ok()) << second_only.status();
  EXPECT_NE(Joined(*second_only).find("no recorded derivation"),
            std::string::npos);
  auto first = engine_.RunScript("why Flat(2,\"gizmo\",5)");
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_NE(Joined(*first).find("because:"), std::string::npos);
}

TEST_F(EngineExtTest, FailedMaintainKeepsOutputAndWhyConsistent) {
  // Flat keyed on OrderId: a second item for order 1 equates two constants.
  Mapping keyed = engine_.repo().GetMapping("flatten").value();
  keyed.set_name("keyed");
  logic::Egd key;
  key.body = {Atom{"Flat", {V("o"), V("i1"), V("q1")}},
              Atom{"Flat", {V("o"), V("i2"), V("q2")}}};
  key.left = "i1";
  key.right = "i2";
  keyed.AddTargetEgd(key);
  ASSERT_TRUE(engine_.repo().PutMapping(keyed).ok());
  ASSERT_TRUE(engine_.RunScript("exchange Dk keyed D").ok());

  auto failed = engine_.RunScript(R"(
apply +Orders(1,"gadget")
maintain keyed
)");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kInconsistent);

  // The stored output no longer holds the old fact, and `why` agrees.
  auto stored = engine_.repo().GetInstance("Dk");
  ASSERT_TRUE(stored.ok());
  const instance::RelationInstance* flat = stored->Find("Flat");
  EXPECT_TRUE(flat == nullptr ||
              !flat->Contains({Value::Int64(1), Value::String("widget"),
                               Value::Int64(3)}));
  auto why = engine_.RunScript("why Flat(1,\"widget\",3)");
  ASSERT_TRUE(why.ok()) << why.status();
  EXPECT_NE(Joined(*why).find("no recorded derivation"), std::string::npos)
      << Joined(*why);

  // Retracting the clash rebuilds the session from scratch.
  auto repaired = engine_.RunScript(R"(
apply -Orders(1,"gadget")
maintain keyed
why Flat(1,"widget",3)
)");
  ASSERT_TRUE(repaired.ok()) << repaired.status();
  EXPECT_NE(Joined(*repaired).find("because:"), std::string::npos)
      << Joined(*repaired);
  EXPECT_EQ(engine_.repo().GetInstance("Dk")->Find("Flat")->size(), 1u);
}

TEST_F(EngineExtTest, ApplyRejectsValuesOutsideTheInstanceGrammar) {
  auto queued = engine_.RunScript("apply +Orders(1.5, \"Same\")");
  ASSERT_TRUE(queued.ok()) << queued.status();
  EXPECT_EQ(queued->back(), "queued +Orders(1.5, \"Same\") (pending 1)");
  for (const char* bad : {"nan", "inf", "-inf", "0x10", "1e999", "N-3"}) {
    const std::string literal = "+Orders(" + std::string(bad) + ", \"Same\")";
    EXPECT_EQ(engine_.ApplyDeltaFact(literal).code(),
              StatusCode::kInvalidArgument)
        << literal;
    auto log = engine_.RunScript("apply " + literal);
    ASSERT_FALSE(log.ok()) << literal;
    EXPECT_EQ(log.status().code(), StatusCode::kInvalidArgument) << literal;
  }
  // Nothing was queued, and a NaN never broke the queue's order: the next
  // fact is still counted.
  auto next = engine_.RunScript("apply +Orders(2.5, \"Same\")");
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(next->back(), "queued +Orders(2.5, \"Same\") (pending 2)");
}

TEST_F(EngineExtTest, WhyAndApplyKeepRunsOfSpacesInStrings) {
  Instance db = *engine_.repo().GetInstance("D");
  ASSERT_TRUE(
      db.Insert("Orders", {Value::Int64(2), Value::String("Ada  Lovelace")})
          .ok());
  ASSERT_TRUE(db.Insert("Lines", {Value::Int64(2), Value::Int64(4)}).ok());
  ASSERT_TRUE(engine_.repo().PutInstance("D2", std::move(db)).ok());
  auto why = engine_.RunScript(
      "exchange Dout flatten D2\n"
      "why   Flat(2, \"Ada  Lovelace\", 4)  ");
  ASSERT_TRUE(why.ok()) << why.status();
  EXPECT_NE(Joined(*why).find("because:"), std::string::npos) << Joined(*why);

  auto applied = engine_.RunScript(
      "apply +Orders(3, \"Cy  Young\")\n"
      "apply +Lines(3, 1)\n"
      "maintain flatten");
  ASSERT_TRUE(applied.ok()) << applied.status();
  EXPECT_EQ(applied->front(), "queued +Orders(3, \"Cy  Young\") (pending 1)");
  EXPECT_TRUE(engine_.repo().GetInstance("Dout")->Find("Flat")->Contains(
      {Value::Int64(3), Value::String("Cy  Young"), Value::Int64(1)}));
}

}  // namespace
}  // namespace mm2::engine
