#include "inputs.h"

#include <algorithm>
#include <cmath>
#include <set>

#include "instance/instance.h"
#include "logic/mapping.h"
#include "match/correspondence.h"
#include "model/schema.h"
#include "text/sexpr.h"

namespace mm2bench {

using mm2::instance::Instance;
using mm2::instance::Tuple;
using mm2::instance::Value;
using mm2::logic::Atom;
using mm2::logic::Mapping;
using mm2::logic::Term;
using mm2::logic::Tgd;
using mm2::model::Attribute;
using mm2::model::DataType;
using mm2::model::Relation;
using mm2::model::Schema;
using mm2::workload::Rng;

namespace {

constexpr std::size_t kBulkDims = 3;
constexpr std::size_t kBulkAttrs = 2;
constexpr std::size_t kBulkFacts = 600;
constexpr std::size_t kQueriesPerTemplate = 8;

Term V(const std::string& name) { return Term::Var(name); }

std::string Quote(const Value& v) {
  return v.kind() == Value::Kind::kString ? "\"" + v.str() + "\""
                                          : v.ToString();
}

std::string Vars(const std::string& prefix, std::size_t n) {
  std::string out;
  for (std::size_t i = 0; i < n; ++i) {
    out += (i == 0 ? "" : ", ") + prefix + std::to_string(i);
  }
  return out;
}

}  // namespace

std::vector<std::string> BulkExistentialFreeRelations() {
  std::vector<std::string> rels = {"FactDims"};
  for (std::size_t d = 0; d < kBulkDims; ++d) {
    rels.push_back("DimKey" + std::to_string(d));
  }
  return rels;
}

BulkInputs MakeBulkInputs(std::uint64_t seed) {
  Rng rng(seed);
  mm2::workload::SnowflakePair pair =
      mm2::workload::MakeSnowflakePair(kBulkDims, kBulkAttrs);
  auto constraints = mm2::match::InterpretCorrespondences(
      pair.source, pair.source_root, pair.target, pair.target_root,
      pair.correspondences);
  auto snow = mm2::match::MappingFromConstraints("snow", pair.source,
                                                 pair.target, *constraints);

  Schema target = pair.target;
  std::vector<Tgd> tgds = snow->tgds();
  auto string_attr = [](std::string name) {
    return Attribute{std::move(name), DataType::String(), false};
  };
  auto int_attr = [](std::string name) {
    return Attribute{std::move(name), DataType::Int64(), false};
  };

  // FactDims(f, a0, a1, a2): every fact joined with the first attribute of
  // each of its dimensions.
  std::vector<Attribute> dims_attrs = {int_attr("RowId")};
  Tgd join;
  Atom fact{pair.source_root, {V("f")}};
  Atom joined{"FactDims", {V("f")}};
  for (std::size_t d = 0; d < kBulkDims; ++d) {
    const std::string ds = std::to_string(d);
    fact.terms.push_back(V("r" + ds));
    Atom dim{"Dim" + ds, {V("r" + ds)}};
    for (std::size_t a = 0; a < kBulkAttrs; ++a) {
      dim.terms.push_back(V("a" + ds + "_" + std::to_string(a)));
    }
    join.body.push_back(dim);
    joined.terms.push_back(V("a" + ds + "_0"));
    dims_attrs.push_back(string_attr("D" + ds + "First"));

    // DimKey<d>(id, last attribute): a projection of one dimension.
    Tgd project;
    project.body = {dim};
    project.head = {Atom{"DimKey" + ds,
                         {V("r" + ds),
                          V("a" + ds + "_" + std::to_string(kBulkAttrs - 1))}}};
    tgds.push_back(project);
    target.AddRelation(Relation("DimKey" + ds,
                                {int_attr("DimId"), string_attr("Last")}, {0}));
  }
  join.body.insert(join.body.begin(), fact);
  join.head = {joined};
  tgds.push_back(join);
  target.AddRelation(Relation("FactDims", dims_attrs, {0}));

  // Audit(f, n): one invented note per fact.
  Tgd audit;
  audit.body = {fact};
  audit.head = {Atom{"Audit", {V("f"), V("note")}}};
  tgds.push_back(audit);
  target.AddRelation(
      Relation("Audit", {int_attr("RowId"), string_attr("Note")}, {0}));

  Mapping mapping =
      Mapping::FromTgds("bulk", pair.source, target, std::move(tgds));
  Instance source =
      mm2::workload::MakeSnowflakeInstance(pair, kBulkFacts, &rng);

  BulkInputs in;
  in.mapping_text = mm2::text::MappingToText(mapping);
  in.source_text = mm2::text::InstanceToText(source);

  // Queries draw their constants from the source so most have answers.
  std::vector<Tuple> facts(source.Find(pair.source_root)->tuples().begin(),
                           source.Find(pair.source_root)->tuples().end());
  std::vector<Tuple> dim0(source.Find("Dim0")->tuples().begin(),
                          source.Find("Dim0")->tuples().end());
  const std::size_t width = 1 + kBulkDims * kBulkAttrs;  // FactT arity
  for (std::size_t i = 0; i < kQueriesPerTemplate; ++i) {
    const Tuple& f = facts[rng.Uniform(facts.size())];
    const Tuple& dim = dim0[rng.Uniform(dim0.size())];
    const std::string key = Quote(f[0]);
    const std::size_t d = rng.Uniform(kBulkDims);
    // Point lookup on the key.
    in.queries.push_back("Q(a, b, c) :- FactDims(" + key + ", a, b, c)");
    // Point lookup on a projected dimension.
    in.queries.push_back("Q(y) :- DimKey" + std::to_string(d) + "(" +
                         Quote(f[1 + d]) + ", y)");
    // A bound string in a non-key column.
    in.queries.push_back("Q(f, b) :- FactDims(f, " + Quote(dim[1]) +
                         ", b, c)");
    // Two atoms: facts sharing this fact's first dimension value.
    in.queries.push_back("Q(g) :- FactDims(" + key +
                         ", a, b, c), FactDims(g, a, b2, c2)");
    // Three atoms, one of them over a labeled-null position.
    in.queries.push_back("Q(g, b2) :- FactDims(" + key +
                         ", a, b, c), FactDims(g, a, b2, c2), Audit(g, n)");
    // The flat root: one row per correspondence, all but one column null,
    // so only the row that fills column 1 yields a certain answer.
    in.queries.push_back("Q(y) :- FactT(" + key + ", y, " +
                         Vars("x", width - 2) + ")");
    // Only nulls: no certain answers, every row is a possible one.
    in.queries.push_back("Q(n) :- Audit(" + key + ", n)");
  }
  return in;
}

DeltaStream::DeltaStream(std::uint64_t seed) : rng_(seed) {
  std::set<std::int64_t> drawn;
  while (hot_.size() < kStreamHot) {
    const auto b = static_cast<std::int64_t>(rng_.Uniform(1000000));
    if (drawn.insert(b).second) hot_.push_back(b);
  }
  for (std::int64_t k = 0; k < kStreamKeys; ++k) AddKey();
}

void DeltaStream::AddKey() {
  const std::int64_t a = static_cast<std::int64_t>(rng_.Uniform(kStreamA));
  const std::int64_t b = hot_[static_cast<std::size_t>(next_key_ % kStreamHot)];
  values_.emplace_back(a, b);
  live_.push_back(next_key_++);
}

std::int64_t DeltaStream::A(std::int64_t key) const {
  return values_[static_cast<std::size_t>(key)].first;
}
std::int64_t DeltaStream::B(std::int64_t key) const {
  return values_[static_cast<std::size_t>(key)].second;
}

std::int64_t DeltaStream::RandomLiveKey() {
  return live_[rng_.Uniform(live_.size())];
}

std::string DeltaStream::MappingText() const {
  return "(mapping stream\n"
         "  (source (schema Src relational\n"
         "    (relation R (attr k int64) (attr a int64))\n"
         "    (relation S (attr k int64) (attr b int64))))\n"
         "  (target (schema Tgt relational\n"
         "    (relation T0 (attr k int64) (attr a int64))\n"
         "    (relation T1 (attr a int64) (attr b int64))\n"
         "    (relation T2 (attr b int64) (attr n int64))))\n"
         "  (tgd (body (R k a)) (head (T0 k a)))\n"
         "  (tgd (body (R k a) (S k b)) (head (T1 a b)))\n"
         "  (tgd (body (S k b)) (head (T2 b n))))\n";
}

std::string DeltaStream::SourceText() const {
  std::string r = "  (R";
  std::string s = "  (S";
  for (std::int64_t k : live_) {
    const std::string ks = std::to_string(k);
    r += " (" + ks + " " + std::to_string(A(k)) + ")";
    s += " (" + ks + " " + std::to_string(B(k)) + ")";
  }
  return "(instance\n" + r + ")\n" + s + "))\n";
}

DeltaStream::Write DeltaStream::Next() {
  Write w;
  for (std::int64_t i = 0; i < kHalfDelta; ++i) {
    AddKey();
    const std::int64_t k = live_.back();
    w.inserted.push_back(k);
  }
  for (std::int64_t i = 0; i < kHalfDelta; ++i) {
    // Recency skew: u^4 puts ~56% of deletes in the oldest tenth of the
    // live keys, yet reaches the newest ones now and then.
    const double u = rng_.UniformDouble();
    std::size_t index = static_cast<std::size_t>(
        std::pow(u, 4.0) * static_cast<double>(live_.size()));
    // Keep this write's own inserts alive so reads about them stay valid.
    index = std::min(index, live_.size() - 1 - w.inserted.size());
    w.deleted.push_back(live_[index]);
    live_.erase(live_.begin() + static_cast<std::ptrdiff_t>(index));
  }
  for (std::int64_t k : w.inserted) {
    const std::string ks = std::to_string(k);
    w.literals.push_back("+R(" + ks + ", " + std::to_string(A(k)) + ")");
    w.literals.push_back("+S(" + ks + ", " + std::to_string(B(k)) + ")");
  }
  for (std::int64_t k : w.deleted) {
    const std::string ks = std::to_string(k);
    w.literals.push_back("-R(" + ks + ", " + std::to_string(A(k)) + ")");
    w.literals.push_back("-S(" + ks + ", " + std::to_string(B(k)) + ")");
  }
  return w;
}

ClosureInputs MakeClosureInputs(std::uint64_t seed) {
  Rng rng(seed);
  std::set<std::int64_t> used;
  std::vector<std::int64_t> nodes;
  while (nodes.size() < ClosureInputs::kClosureEdges + 1) {
    const auto id = static_cast<std::int64_t>(rng.Uniform(1000000000));
    if (used.insert(id).second) nodes.push_back(id);
  }
  ClosureInputs in;
  in.instance_text = "(instance\n  (R";
  for (std::size_t i = 0; i < ClosureInputs::kClosureEdges; ++i) {
    in.instance_text += " (" + std::to_string(nodes[i]) + " " +
                        std::to_string(nodes[i + 1]) + ")";
  }
  in.instance_text += "))\n";
  in.rules = {"T(x, y) :- R(x, y)", "T(x, z) :- T(x, y), R(y, z)"};
  // Three forward reads (bound first column: a sorted-prefix probe) per
  // backward one (bound second column: served by a hash index the first
  // such read of every fixpoint builds), so the median is a forward read.
  // The nodes sit at fixed chain positions, so every seed reads the same
  // number of answers.
  for (std::size_t i = 0; i < 16; ++i) {
    const std::string node = std::to_string(nodes[i * 16 + 7]);
    in.queries.push_back(i % 4 == 3 ? "Q(x) :- T(x, " + node + ")"
                                    : "Q(y) :- T(" + node + ", y)");
  }
  return in;
}

namespace {

const char* const kWords[] = {
    "customer", "order",   "invoice", "product", "shipment", "account",
    "region",   "employee", "supplier", "payment", "address", "contact",
    "category", "price",   "status",  "balance", "ledger",  "warehouse"};

std::string RandomWord(Rng* rng) {
  std::string word = kWords[rng->Uniform(sizeof(kWords) / sizeof(kWords[0]))];
  word[0] = static_cast<char>(word[0] - 'a' + 'A');
  return word;
}

// A relational schema of fixed shape -- kRelations relations of kAttrs
// attributes, an int key first and a fixed type pattern after it -- whose
// relation and attribute names the seed draws from a word list.
Schema NamedSchema(const std::string& name, Rng* rng) {
  constexpr std::size_t kRelations = 6;
  constexpr std::size_t kAttrs = 6;
  const mm2::model::DataTypeRef types[] = {
      DataType::String(), DataType::Int64(), DataType::Double(),
      DataType::Date()};
  Schema schema(name, mm2::model::Metamodel::kRelational);
  for (std::size_t r = 0; r < kRelations; ++r) {
    std::vector<Attribute> attrs = {{"Id", DataType::Int64(), false}};
    for (std::size_t a = 1; a < kAttrs; ++a) {
      attrs.push_back({RandomWord(rng) + RandomWord(rng) + std::to_string(a),
                       types[a % 4], false});
    }
    schema.AddRelation(Relation(RandomWord(rng) + RandomWord(rng) +
                                    std::to_string(r) + "_R",
                                std::move(attrs), {0}));
  }
  return schema;
}

}  // namespace

ScriptInputs MakeScriptInputs(std::uint64_t seed) {
  Rng rng(seed);
  ScriptInputs in;
  auto add_schema = [&in](const Schema& s) {
    in.schema_texts.push_back(mm2::text::SchemaToText(s));
  };
  auto add_mapping = [&in](const Mapping& m) {
    in.mapping_texts.push_back(mm2::text::MappingToText(m));
  };

  Schema rel = NamedSchema("Rel", &rng);
  mm2::workload::PerturbedSchema perturbed =
      mm2::workload::PerturbNames(rel, &rng);
  add_schema(rel);
  add_schema(perturbed.schema);
  in.reference = perturbed.reference;

  mm2::workload::SnowflakePair pair = mm2::workload::MakeSnowflakePair(3, 3);
  add_schema(pair.source);
  add_schema(pair.target);
  auto constraints = mm2::match::InterpretCorrespondences(
      pair.source, pair.source_root, pair.target, pair.target_root,
      pair.correspondences);
  add_mapping(*mm2::match::MappingFromConstraints("snow", pair.source,
                                                  pair.target, *constraints));

  constexpr std::size_t kChain = 6;
  mm2::workload::EvolutionChain chain =
      mm2::workload::MakeEvolutionChain(kChain, 8);
  for (const Mapping& step : chain.steps) add_mapping(step);
  auto [m12, m23] = mm2::workload::MakeComposeBlowup(4, 4);
  add_mapping(m12);
  add_mapping(m23);
  add_schema(mm2::workload::MakeHierarchy(2, 2, 3));

  std::string& s = in.script;
  s += "match SnowSrc SnowTgt\n";
  s += "compose c1 step0 step1\n";
  for (std::size_t i = 2; i < kChain; ++i) {
    s += "compose c" + std::to_string(i) + " c" + std::to_string(i - 1) +
         " step" + std::to_string(i) + "\n";
  }
  const std::string chain_out = "c" + std::to_string(kChain - 1);
  s += "compose blow blowup12 blowup23\n";
  s += "invert step0_inv step0\n";
  s += "inverse step0_qinv step0\n";
  s += "extract snow_ext snow_ext_m snow\n";
  s += "diff snow_diff snow_diff_m snow\n";
  s += "merge RelM RelM_l RelM_r Rel Rel_p";
  for (const mm2::match::Correspondence& c : perturbed.reference) {
    s += " " + c.source.ToString() + "=" + c.target.ToString();
  }
  s += "\n";
  for (const char* strategy : {"tph", "tpt", "tpc"}) {
    s += std::string("modelgen Hier_") + strategy + " Hier_" + strategy +
         "_m Hier " + strategy + "\n";
  }
  s += "oogen Rel_oo Rel_oo_m Rel\n";
  s += "nestedgen Rel_nest Rel_nest_m Rel\n";
  s += "explain mapping " + chain_out + "\n";

  // The composed chain is explained most, so the read median is one of
  // its reads rather than the boundary between two mappings' costs.
  in.explained = {chain_out, "blow", chain_out, "snow", chain_out};
  in.digested = {chain_out,   "blow",       "step0_inv", "step0_qinv",
                 "snow_ext_m", "snow_diff_m", "RelM_l",    "RelM_r",
                 "Hier_tph_m", "Hier_tpt_m",  "Hier_tpc_m", "Rel_oo_m",
                 "Rel_nest_m"};
  return in;
}

}  // namespace mm2bench
