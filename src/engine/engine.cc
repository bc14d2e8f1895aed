#include "engine/engine.h"

#include <cstdlib>
#include <iostream>
#include <sstream>
#include <utility>

#include "analysis/analysis.h"
#include "chase/chase.h"
#include "common/strings.h"
#include "obs/profile.h"
#include "transgen/relational.h"

namespace mm2::engine {

Status Repository::PutSchema(model::Schema schema) {
  MM2_RETURN_IF_ERROR(schema.Validate());
  if (schema.name().empty()) {
    return Status::InvalidArgument("schema needs a name");
  }
  ++schema_versions_[schema.name()];
  schemas_.insert_or_assign(schema.name(), std::move(schema));
  return Status::OK();
}

Status Repository::PutMapping(logic::Mapping mapping) {
  MM2_RETURN_IF_ERROR(mapping.Validate());
  if (mapping.name().empty()) {
    return Status::InvalidArgument("mapping needs a name");
  }
  ++mapping_versions_[mapping.name()];
  mappings_.insert_or_assign(mapping.name(), std::move(mapping));
  return Status::OK();
}

Status Repository::PutInstance(std::string name, instance::Instance db) {
  return PutInstance(std::move(name),
                     std::make_shared<const instance::Instance>(std::move(db)));
}

Status Repository::PutInstance(std::string name,
                               std::shared_ptr<const instance::Instance> db) {
  if (name.empty()) return Status::InvalidArgument("instance needs a name");
  if (db == nullptr) return Status::InvalidArgument("instance is null");
  instances_.insert_or_assign(std::move(name), std::move(db));
  return Status::OK();
}

Result<model::Schema> Repository::GetSchema(const std::string& name) const {
  auto it = schemas_.find(name);
  if (it == schemas_.end()) {
    return Status::NotFound("no schema '" + name + "' in repository");
  }
  return it->second;
}

Result<logic::Mapping> Repository::GetMapping(const std::string& name) const {
  auto it = mappings_.find(name);
  if (it == mappings_.end()) {
    return Status::NotFound("no mapping '" + name + "' in repository");
  }
  return it->second;
}

Result<instance::Instance> Repository::GetInstance(
    const std::string& name) const {
  std::shared_ptr<const instance::Instance> db = FindInstance(name);
  if (db == nullptr) {
    return Status::NotFound("no instance '" + name + "' in repository");
  }
  return *db;
}

std::shared_ptr<const instance::Instance> Repository::FindInstance(
    const std::string& name) const {
  auto it = instances_.find(name);
  return it == instances_.end() ? nullptr : it->second;
}

bool Repository::HasSchema(const std::string& name) const {
  return schemas_.count(name) > 0;
}
bool Repository::HasMapping(const std::string& name) const {
  return mappings_.count(name) > 0;
}
bool Repository::HasInstance(const std::string& name) const {
  return instances_.count(name) > 0;
}

std::size_t Repository::SchemaVersion(const std::string& name) const {
  auto it = schema_versions_.find(name);
  return it == schema_versions_.end() ? 0 : it->second;
}
std::size_t Repository::MappingVersion(const std::string& name) const {
  auto it = mapping_versions_.find(name);
  return it == mapping_versions_.end() ? 0 : it->second;
}

std::vector<std::string> Repository::SchemaNames() const {
  std::vector<std::string> out;
  for (const auto& [name, schema] : schemas_) out.push_back(name);
  return out;
}
std::vector<std::string> Repository::MappingNames() const {
  std::vector<std::string> out;
  for (const auto& [name, mapping] : mappings_) out.push_back(name);
  return out;
}
std::vector<std::string> Repository::InstanceNames() const {
  std::vector<std::string> out;
  for (const auto& [name, db] : instances_) out.push_back(name);
  return out;
}

namespace {

std::size_t MappingClauses(const logic::Mapping& m) {
  return m.is_second_order() ? m.so_tgd().clauses.size() : m.tgds().size();
}

// Registers a session's target under `out` without copying it: an aliasing
// pointer that shares ownership of the whole session but points at its
// target, which later maintains update in place.
Status RegisterTarget(Repository& repo,
                      const std::shared_ptr<runtime::ExchangeSession>& session,
                      const std::string& out) {
  return repo.PutInstance(
      out, std::shared_ptr<const instance::Instance>(session, &session->target));
}

}  // namespace

Result<match::MatchResult> Engine::Match(const std::string& source_schema,
                                         const std::string& target_schema,
                                         const match::MatchOptions& options) {
  obs::OpSpan op(&observability(), "match");
  Result<match::MatchResult> result =
      [&]() -> Result<match::MatchResult> {
    MM2_ASSIGN_OR_RETURN(model::Schema source, repo_.GetSchema(source_schema));
    MM2_ASSIGN_OR_RETURN(model::Schema target, repo_.GetSchema(target_schema));
    op.SetAttribute("source_relations", source.relations().size());
    op.SetAttribute("target_relations", target.relations().size());
    match::SchemaMatcher matcher(options);
    return matcher.Match(source, target);
  }();
  op.Finish(result.ok() ? Status::OK() : result.status());
  return result;
}

Status Engine::Compose(const std::string& out, const std::string& m12,
                       const std::string& m23) {
  obs::OpSpan op(&observability(), "compose");
  return op.Finish([&]() -> Status {
    MM2_ASSIGN_OR_RETURN(logic::Mapping first, repo_.GetMapping(m12));
    MM2_ASSIGN_OR_RETURN(logic::Mapping second, repo_.GetMapping(m23));
    op.SetAttribute("m12_clauses", MappingClauses(first));
    op.SetAttribute("m23_clauses", MappingClauses(second));
    if (first.target().name() != second.source().name()) {
      return Status::InvalidArgument(
          "compose: mid schemas disagree ('" + first.target().name() +
          "' vs '" + second.source().name() + "')");
    }
    compose::ComposeOptions options;
    options.obs = &observability();
    MM2_ASSIGN_OR_RETURN(logic::Mapping composed,
                         compose::Compose(first, second, options));
    composed.set_name(out);
    return repo_.PutMapping(std::move(composed));
  }());
}

Status Engine::Invert(const std::string& out, const std::string& mapping) {
  obs::OpSpan op(&observability(), "invert");
  return op.Finish([&]() -> Status {
    MM2_ASSIGN_OR_RETURN(logic::Mapping m, repo_.GetMapping(mapping));
    op.SetAttribute("clauses", MappingClauses(m));
    MM2_ASSIGN_OR_RETURN(logic::Mapping inverted, inverse::Invert(m));
    inverted.set_name(out);
    return repo_.PutMapping(std::move(inverted));
  }());
}

Status Engine::ComputeInverse(const std::string& out,
                              const std::string& mapping) {
  obs::OpSpan op(&observability(), "inverse");
  return op.Finish([&]() -> Status {
    MM2_ASSIGN_OR_RETURN(logic::Mapping m, repo_.GetMapping(mapping));
    op.SetAttribute("clauses", MappingClauses(m));
    MM2_ASSIGN_OR_RETURN(inverse::InverseResult result,
                         inverse::ComputeInverse(m));
    result.inverse.set_name(out);
    return repo_.PutMapping(std::move(result.inverse));
  }());
}

Status Engine::Extract(const std::string& out_schema,
                       const std::string& out_mapping,
                       const std::string& mapping) {
  obs::OpSpan op(&observability(), "extract");
  return op.Finish([&]() -> Status {
    MM2_ASSIGN_OR_RETURN(logic::Mapping m, repo_.GetMapping(mapping));
    op.SetAttribute("clauses", MappingClauses(m));
    MM2_ASSIGN_OR_RETURN(diff::SubSchemaResult result, diff::Extract(m));
    result.schema.set_name(out_schema);
    // Re-point the projection mapping's target at the renamed schema.
    logic::Mapping renamed = logic::Mapping::FromTgds(
        out_mapping, result.mapping.source(), result.schema,
        result.mapping.tgds());
    MM2_RETURN_IF_ERROR(repo_.PutSchema(std::move(result.schema)));
    return repo_.PutMapping(std::move(renamed));
  }());
}

Status Engine::Diff(const std::string& out_schema,
                    const std::string& out_mapping,
                    const std::string& mapping) {
  obs::OpSpan op(&observability(), "diff");
  return op.Finish([&]() -> Status {
    MM2_ASSIGN_OR_RETURN(logic::Mapping m, repo_.GetMapping(mapping));
    op.SetAttribute("clauses", MappingClauses(m));
    MM2_ASSIGN_OR_RETURN(diff::SubSchemaResult result, diff::Diff(m));
    result.schema.set_name(out_schema);
    logic::Mapping renamed = logic::Mapping::FromTgds(
        out_mapping, result.mapping.source(), result.schema,
        result.mapping.tgds());
    MM2_RETURN_IF_ERROR(repo_.PutSchema(std::move(result.schema)));
    return repo_.PutMapping(std::move(renamed));
  }());
}

Status Engine::Merge(const std::string& out_schema,
                     const std::string& out_to_left,
                     const std::string& out_to_right, const std::string& left,
                     const std::string& right,
                     const std::vector<match::Correspondence>& corrs) {
  obs::OpSpan op(&observability(), "merge");
  op.SetAttribute("correspondences", corrs.size());
  return op.Finish([&]() -> Status {
    MM2_ASSIGN_OR_RETURN(model::Schema left_schema, repo_.GetSchema(left));
    MM2_ASSIGN_OR_RETURN(model::Schema right_schema, repo_.GetSchema(right));
    op.SetAttribute("left_relations", left_schema.relations().size());
    op.SetAttribute("right_relations", right_schema.relations().size());
    merge::MergeOptions options;
    options.merged_name = out_schema;
    MM2_ASSIGN_OR_RETURN(merge::MergeResult result,
                         merge::Merge(left_schema, right_schema, corrs,
                                      options));
    result.to_left.set_name(out_to_left);
    result.to_right.set_name(out_to_right);
    MM2_RETURN_IF_ERROR(repo_.PutSchema(std::move(result.merged)));
    MM2_RETURN_IF_ERROR(repo_.PutMapping(std::move(result.to_left)));
    return repo_.PutMapping(std::move(result.to_right));
  }());
}

Status Engine::ModelGen(const std::string& out_schema,
                        const std::string& out_mapping,
                        const std::string& er_schema,
                        modelgen::InheritanceStrategy strategy) {
  obs::OpSpan op(&observability(), "modelgen");
  return op.Finish([&]() -> Status {
    MM2_ASSIGN_OR_RETURN(model::Schema er, repo_.GetSchema(er_schema));
    op.SetAttribute("er_relations", er.relations().size());
    MM2_ASSIGN_OR_RETURN(modelgen::ModelGenResult result,
                         modelgen::ErToRelational(er, strategy));
    result.relational.set_name(out_schema);
    logic::Mapping renamed = logic::Mapping::FromTgds(
        out_mapping, result.mapping.source(), result.relational,
        result.mapping.tgds());
    MM2_RETURN_IF_ERROR(repo_.PutSchema(std::move(result.relational)));
    return repo_.PutMapping(std::move(renamed));
  }());
}

Status Engine::Exchange(const std::string& out_instance,
                        const std::string& mapping,
                        const std::string& source_instance) {
  obs::OpSpan op(&observability(), "exchange");
  return op.Finish([&]() -> Status {
    MM2_ASSIGN_OR_RETURN(logic::Mapping m, repo_.GetMapping(mapping));
    MM2_ASSIGN_OR_RETURN(instance::Instance source,
                         repo_.GetInstance(source_instance));
    op.SetAttribute("clauses", MappingClauses(m));
    op.SetAttribute("source_tuples", source.TotalTuples());
    runtime::ExchangeOptions options;
    // Provenance is always on for engine-level exchanges: it is what the
    // `why` command reads back, and breach diagnostics lean on it too.
    options.track_provenance = true;
    // So is mapping analysis: stratum labels feed `explain` and the
    // heartbeat events, and foresight auto-arms a tuple budget when the
    // classifier flags the mapping as potentially non-terminating. The
    // analysis pass is static; the only instance scan, the active-domain
    // count, runs only for mappings with target egds (the one case where
    // the predicted-rounds bound reads it).
    options.stratified = true;
    options.wall_budget_us = budget_wall_us_;
    options.tuple_budget = budget_tuples_;
    options.rss_budget_kb = budget_rss_kb_;
    options.obs = &observability();
    // Exchanges run through an incremental session so a later `maintain`
    // can propagate source deltas without re-chasing; a one-shot exchange
    // pays only the session bookkeeping (provenance was always on here).
    MM2_ASSIGN_OR_RETURN(
        runtime::ExchangeSession begun,
        runtime::BeginExchangeSession(m, std::move(source), options));
    auto session = std::make_shared<runtime::ExchangeSession>(std::move(begun));
    op.SetAttribute("target_tuples", session->target.TotalTuples());
    // A budget stop still registers the partial instance — the telemetry
    // and the data it did derive are the whole point of a graceful stop —
    // but the command itself reports the breach.
    MM2_RETURN_IF_ERROR(RegisterTarget(repo_, session, out_instance));
    sessions_.insert_or_assign(mapping, OpenSession{session, out_instance});
    why_session_ = session;
    if (session->breach.has_value()) {
      return Status::ResourceExhausted("exchange into '" + out_instance +
                                       "' stopped early: " +
                                       session->breach->diagnostic);
    }
    return Status::OK();
  }());
}

Status Engine::BatchLoad(const std::string& out_instance,
                         const std::string& mapping,
                         const std::string& source_instance) {
  obs::OpSpan op(&observability(), "batchload");
  return op.Finish([&]() -> Status {
    MM2_ASSIGN_OR_RETURN(logic::Mapping m, repo_.GetMapping(mapping));
    MM2_ASSIGN_OR_RETURN(instance::Instance source,
                         repo_.GetInstance(source_instance));
    op.SetAttribute("clauses", MappingClauses(m));
    op.SetAttribute("source_tuples", source.TotalTuples());
    MM2_ASSIGN_OR_RETURN(transgen::CompiledRelationalMapping compiled,
                         transgen::CompileRelationalMapping(m));
    MM2_ASSIGN_OR_RETURN(instance::Instance target,
                         transgen::ExecuteCompiledMapping(compiled, m, source));
    op.SetAttribute("target_tuples", target.TotalTuples());
    return repo_.PutInstance(out_instance, std::move(target));
  }());
}

Status Engine::OoGen(const std::string& out_schema,
                     const std::string& out_mapping,
                     const std::string& relational_schema) {
  obs::OpSpan op(&observability(), "oogen");
  return op.Finish([&]() -> Status {
    MM2_ASSIGN_OR_RETURN(model::Schema relational,
                         repo_.GetSchema(relational_schema));
    op.SetAttribute("relations", relational.relations().size());
    MM2_ASSIGN_OR_RETURN(modelgen::OoGenResult result,
                         modelgen::RelationalToOo(relational));
    result.oo.set_name(out_schema);
    logic::Mapping renamed = logic::Mapping::FromTgds(
        out_mapping, result.oo, result.mapping.target(),
        result.mapping.tgds());
    MM2_RETURN_IF_ERROR(repo_.PutSchema(std::move(result.oo)));
    return repo_.PutMapping(std::move(renamed));
  }());
}

Status Engine::NestedGen(const std::string& out_schema,
                         const std::string& out_mapping,
                         const std::string& relational_schema) {
  obs::OpSpan op(&observability(), "nestedgen");
  return op.Finish([&]() -> Status {
    MM2_ASSIGN_OR_RETURN(model::Schema relational,
                         repo_.GetSchema(relational_schema));
    op.SetAttribute("relations", relational.relations().size());
    MM2_ASSIGN_OR_RETURN(modelgen::NestedGenResult result,
                         modelgen::RelationalToNested(relational));
    result.nested.set_name(out_schema);
    logic::Mapping renamed = logic::Mapping::FromTgds(
        out_mapping, result.mapping.source(), result.nested,
        result.mapping.tgds());
    MM2_RETURN_IF_ERROR(repo_.PutSchema(std::move(result.nested)));
    return repo_.PutMapping(std::move(renamed));
  }());
}

namespace {

Result<std::vector<match::Correspondence>> ParseCorrespondences(
    const std::vector<std::string>& tokens, std::size_t first) {
  std::vector<match::Correspondence> corrs;
  for (std::size_t i = first; i < tokens.size(); ++i) {
    std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument("expected L.a=R.b, got '" + tokens[i] +
                                     "'");
    }
    corrs.push_back(
        {model::ElementRef::Parse(tokens[i].substr(0, eq)),
         model::ElementRef::Parse(tokens[i].substr(eq + 1)), 1.0});
  }
  return corrs;
}

Result<modelgen::InheritanceStrategy> ParseStrategy(const std::string& word) {
  if (word == "tph") return modelgen::InheritanceStrategy::kSingleTable;
  if (word == "tpt") return modelgen::InheritanceStrategy::kTablePerType;
  if (word == "tpc") return modelgen::InheritanceStrategy::kTablePerConcrete;
  return Status::InvalidArgument("unknown inheritance strategy '" + word +
                                 "' (want tph|tpt|tpc)");
}

// One value literal for the `why` command, mirroring the instance text
// syntax: 42, 4.5, "s" (with \" and \\ escapes), #t/#f, null, N<label>,
// d:<days>.
Result<instance::Value> ParseValueLiteral(const std::string& token) {
  if (token.empty()) {
    return Status::InvalidArgument("empty value literal");
  }
  if (token == "null") return instance::Value::Null();
  if (token == "#t") return instance::Value::Bool(true);
  if (token == "#f") return instance::Value::Bool(false);
  if (token.front() == '"') {
    if (token.size() < 2 || token.back() != '"') {
      return Status::InvalidArgument("unterminated string literal: " + token);
    }
    std::string s;
    for (std::size_t i = 1; i + 1 < token.size(); ++i) {
      if (token[i] == '\\' && i + 2 < token.size()) ++i;
      s += token[i];
    }
    return instance::Value::String(s);
  }
  char* end = nullptr;
  if (token.size() > 1 && token.front() == 'N') {
    long long label = std::strtoll(token.c_str() + 1, &end, 10);
    if (end != nullptr && *end == '\0') {
      return instance::Value::LabeledNull(label);
    }
  }
  if (token.rfind("d:", 0) == 0) {
    long long days = std::strtoll(token.c_str() + 2, &end, 10);
    if (end == nullptr || *end != '\0') {
      return Status::InvalidArgument("bad date literal: " + token);
    }
    return instance::Value::Date(days);
  }
  long long i = std::strtoll(token.c_str(), &end, 10);
  if (end != nullptr && *end == '\0' && end != token.c_str()) {
    return instance::Value::Int64(i);
  }
  double d = std::strtod(token.c_str(), &end);
  if (end != nullptr && *end == '\0' && end != token.c_str()) {
    return instance::Value::Double(d);
  }
  return Status::InvalidArgument("cannot parse value literal '" + token +
                                 "' (want 42, 4.5, \"s\", #t, null, N7, or "
                                 "d:123)");
}

// Parses `Rel(v1,v2,...)` into a Fact. Commas inside quoted strings are
// respected; whitespace around arguments is trimmed (the script tokenizer
// splits on spaces, so callers re-join the tail tokens first).
Result<chase::Fact> ParseFactLiteral(const std::string& text) {
  std::size_t open = text.find('(');
  if (open == std::string::npos || text.empty() || text.back() != ')') {
    return Status::InvalidArgument("expected Rel(v1,v2,...), got '" + text +
                                   "'");
  }
  chase::Fact fact;
  fact.relation = text.substr(0, open);
  if (fact.relation.empty()) {
    return Status::InvalidArgument("fact needs a relation name: " + text);
  }
  std::string body = text.substr(open + 1, text.size() - open - 2);
  std::vector<std::string> args;
  std::string current;
  bool in_string = false;
  for (std::size_t i = 0; i < body.size(); ++i) {
    char c = body[i];
    if (in_string) {
      current += c;
      if (c == '\\' && i + 1 < body.size()) {
        current += body[++i];
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      current += c;
      in_string = true;
    } else if (c == ',') {
      args.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  if (!current.empty() || !args.empty()) args.push_back(std::move(current));
  for (std::string& arg : args) {
    std::size_t b = arg.find_first_not_of(" \t");
    std::size_t e = arg.find_last_not_of(" \t");
    if (b == std::string::npos) {
      return Status::InvalidArgument("empty argument in fact: " + text);
    }
    MM2_ASSIGN_OR_RETURN(instance::Value v,
                         ParseValueLiteral(arg.substr(b, e - b + 1)));
    fact.tuple.push_back(std::move(v));
  }
  return fact;
}

}  // namespace

Status Engine::ApplyDeltaFact(const std::string& literal) {
  if (literal.size() < 2 || (literal[0] != '+' && literal[0] != '-')) {
    return Status::InvalidArgument(
        "apply wants +Rel(...) or -Rel(...), got '" + literal + "'");
  }
  MM2_ASSIGN_OR_RETURN(chase::Fact fact, ParseFactLiteral(literal.substr(1)));
  instance::Instance& side =
      literal[0] == '+' ? pending_delta_.inserts : pending_delta_.deletes;
  if (!side.HasRelation(fact.relation)) {
    side.DeclareRelation(fact.relation, fact.tuple.size());
  }
  // Checked insert so an arity clash inside the queue fails here, not
  // deep inside the maintain.
  return side.Insert(fact.relation, std::move(fact.tuple));
}

Result<runtime::Delta> Engine::Maintain(const std::string& mapping) {
  obs::OpSpan op(&observability(), "maintain");
  auto it = sessions_.find(mapping);
  if (it == sessions_.end()) {
    return Status::NotFound("no incremental session for mapping '" + mapping +
                            "' (run `exchange` with it first)");
  }
  const OpenSession& open = it->second;
  runtime::ExchangeSession& session = *open.session;
  // The session replays the engine's current knobs, not the ones in force
  // when the exchange opened it.
  session.options.wall_budget_us = budget_wall_us_;
  session.options.tuple_budget = budget_tuples_;
  session.options.rss_budget_kb = budget_rss_kb_;
  session.options.obs = &observability();
  op.SetAttribute("delta_size", pending_delta_.Size());
  runtime::Delta delta = std::move(pending_delta_);
  pending_delta_ = runtime::Delta{};  // consumed either way
  // Re-point the output at the session target (O(1); it restores an output
  // replaced since the exchange) and `why` at this session. Both follow the
  // session whether or not the maintain succeeds: a failed one empties
  // target and provenance together.
  why_session_ = open.session;
  Result<runtime::Delta> result = [&]() -> Result<runtime::Delta> {
    MM2_RETURN_IF_ERROR(RegisterTarget(repo_, open.session, open.out));
    MM2_ASSIGN_OR_RETURN(runtime::Delta target_delta,
                         runtime::MaintainExchange(session, delta));
    op.SetAttribute("target_inserts", target_delta.inserts.TotalTuples());
    op.SetAttribute("target_deletes", target_delta.deletes.TotalTuples());
    if (session.breach.has_value()) {
      return Status::ResourceExhausted("maintain of '" + mapping +
                                       "' stopped early: " +
                                       session.breach->diagnostic);
    }
    return target_delta;
  }();
  op.Finish(result.ok() ? Status::OK() : result.status());
  return result;
}

Result<std::string> Engine::EqCheck(const std::string& a,
                                    const std::string& b) {
  std::shared_ptr<const instance::Instance> left = repo_.FindInstance(a);
  std::shared_ptr<const instance::Instance> right = repo_.FindInstance(b);
  if (left == nullptr || right == nullptr) {
    return Status::NotFound("no instance '" + (left == nullptr ? a : b) +
                            "' in repository");
  }
  if (left->Equals(*right)) return std::string("equal");
  if (instance::InstanceEqualsUpToNulls(*left, *right)) {
    return std::string("equal-up-to-nulls");
  }
  return std::string("different");
}

Result<std::vector<std::string>> Engine::RunScript(const std::string& script) {
  Result<std::vector<std::string>> result = RunScriptImpl(script);
  if (!result.ok()) {
    // Attach the flight recorder to the failure, unless a lower layer (the
    // chase's max_rounds error, a breach diagnostic) already included it.
    const std::string& msg = result.status().message();
    if (msg.find("-- flight recorder") == std::string::npos) {
      std::string dump = observability().events.DumpRecent();
      if (!dump.empty()) {
        return Status(result.status().code(), msg + "\n" + dump);
      }
    }
  }
  return result;
}

Result<std::vector<std::string>> Engine::RunScriptImpl(
    const std::string& script) {
  std::vector<std::string> log;
  // `trace <file>` arms this guard; the Chrome JSON is written when the
  // script finishes — including early error returns — so a trace of a
  // failing evolution scenario is never lost.
  struct TraceFlusher {
    obs::Context* ctx;
    std::string file;
    ~TraceFlusher() {
      if (file.empty()) return;
      ctx->tracer.WriteChromeJson(file);  // best effort on unwind
      ctx->tracer.Disable();
    }
  } trace_flusher{&observability(), ""};
  std::istringstream stream(script);
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(stream, line)) {
    ++line_number;
    // Tokenize on whitespace.
    std::istringstream words(line);
    std::vector<std::string> tokens;
    std::string word;
    while (words >> word) tokens.push_back(word);
    if (tokens.empty() || tokens[0][0] == '#') continue;

    auto fail = [&](const std::string& message) {
      return Status::InvalidArgument("line " + std::to_string(line_number) +
                                     ": " + message);
    };
    auto need = [&](std::size_t count) -> Status {
      if (tokens.size() < count + 1) {
        return fail(tokens[0] + " needs " + std::to_string(count) +
                    " arguments");
      }
      return Status::OK();
    };

    const std::string& op = tokens[0];
    if (op == "compose") {
      MM2_RETURN_IF_ERROR(need(3));
      MM2_RETURN_IF_ERROR(Compose(tokens[1], tokens[2], tokens[3]));
      log.push_back("composed " + tokens[2] + " ; " + tokens[3] + " -> " +
                    tokens[1]);
    } else if (op == "invert") {
      MM2_RETURN_IF_ERROR(need(2));
      MM2_RETURN_IF_ERROR(Invert(tokens[1], tokens[2]));
      log.push_back("inverted " + tokens[2] + " -> " + tokens[1]);
    } else if (op == "inverse") {
      MM2_RETURN_IF_ERROR(need(2));
      MM2_RETURN_IF_ERROR(ComputeInverse(tokens[1], tokens[2]));
      log.push_back("inverse of " + tokens[2] + " -> " + tokens[1]);
    } else if (op == "extract") {
      MM2_RETURN_IF_ERROR(need(3));
      MM2_RETURN_IF_ERROR(Extract(tokens[1], tokens[2], tokens[3]));
      log.push_back("extracted " + tokens[3] + " -> " + tokens[1]);
    } else if (op == "diff") {
      MM2_RETURN_IF_ERROR(need(3));
      MM2_RETURN_IF_ERROR(Diff(tokens[1], tokens[2], tokens[3]));
      log.push_back("diffed " + tokens[3] + " -> " + tokens[1]);
    } else if (op == "merge") {
      MM2_RETURN_IF_ERROR(need(5));
      MM2_ASSIGN_OR_RETURN(std::vector<match::Correspondence> corrs,
                           ParseCorrespondences(tokens, 6));
      MM2_RETURN_IF_ERROR(Merge(tokens[1], tokens[2], tokens[3], tokens[4],
                                tokens[5], corrs));
      log.push_back("merged " + tokens[4] + " + " + tokens[5] + " -> " +
                    tokens[1]);
    } else if (op == "modelgen") {
      MM2_RETURN_IF_ERROR(need(4));
      MM2_ASSIGN_OR_RETURN(modelgen::InheritanceStrategy strategy,
                           ParseStrategy(tokens[4]));
      MM2_RETURN_IF_ERROR(
          ModelGen(tokens[1], tokens[2], tokens[3], strategy));
      log.push_back("modelgen " + tokens[3] + " -> " + tokens[1]);
    } else if (op == "exchange") {
      MM2_RETURN_IF_ERROR(need(3));
      MM2_RETURN_IF_ERROR(Exchange(tokens[1], tokens[2], tokens[3]));
      log.push_back("exchanged " + tokens[3] + " via " + tokens[2] + " -> " +
                    tokens[1]);
    } else if (op == "batchload") {
      MM2_RETURN_IF_ERROR(need(3));
      MM2_RETURN_IF_ERROR(BatchLoad(tokens[1], tokens[2], tokens[3]));
      log.push_back("batch-loaded " + tokens[3] + " via " + tokens[2] +
                    " -> " + tokens[1]);
    } else if (op == "oogen") {
      MM2_RETURN_IF_ERROR(need(3));
      MM2_RETURN_IF_ERROR(OoGen(tokens[1], tokens[2], tokens[3]));
      log.push_back("oo wrapper for " + tokens[3] + " -> " + tokens[1]);
    } else if (op == "nestedgen") {
      MM2_RETURN_IF_ERROR(need(3));
      MM2_RETURN_IF_ERROR(NestedGen(tokens[1], tokens[2], tokens[3]));
      log.push_back("nested schema for " + tokens[3] + " -> " + tokens[1]);
    } else if (op == "match") {
      MM2_RETURN_IF_ERROR(need(2));
      MM2_ASSIGN_OR_RETURN(match::MatchResult result,
                           Match(tokens[1], tokens[2]));
      log.push_back("matched " + tokens[1] + " ~ " + tokens[2] + ": " +
                    std::to_string(result.best.size()) + " correspondences");
    } else if (op == "stats") {
      if (tokens.size() > 1 && tokens[1] != "--json") {
        return fail("stats takes no argument or --json");
      }
      chase::MirrorValueStats(&observability());
      observability().metrics.GetGauge("mem.peak_rss_kb").Set(
          static_cast<std::int64_t>(obs::PeakRssKb()));
      obs::MetricsSnapshot snapshot = observability().metrics.Snapshot();
      if (tokens.size() > 1) {
        log.push_back(snapshot.ToJson());
      } else {
        std::vector<std::string> lines = snapshot.Lines();
        log.push_back("stats: " + std::to_string(lines.size()) + " metrics");
        for (std::string& metric_line : lines) {
          log.push_back("  " + std::move(metric_line));
        }
      }
    } else if (op == "explain" && tokens.size() > 1 &&
               tokens[1] == "mapping") {
      // explain mapping <name> [--json|--dot]: static introspection of a
      // stored mapping — dependency/position graphs, strata, termination
      // class, predicted bounds — independent of any chase having run.
      MM2_RETURN_IF_ERROR(need(2));
      std::string format = tokens.size() > 3 ? tokens[3] : "";
      if (tokens.size() > 4 ||
          (!format.empty() && format != "--json" && format != "--dot")) {
        return fail("explain mapping wants <mapping> [--json|--dot]");
      }
      MM2_ASSIGN_OR_RETURN(logic::Mapping m, repo_.GetMapping(tokens[2]));
      analysis::MappingAnalysis analyzed = analysis::AnalyzeMapping(m);
      if (format == "--json") {
        log.push_back(analyzed.ToJson());
      } else if (format == "--dot") {
        log.push_back(analyzed.ToDot());
      } else {
        log.push_back("explain mapping " + tokens[2] + ":");
        std::istringstream text(analyzed.ToText());
        std::string text_line;
        while (std::getline(text, text_line)) {
          log.push_back("  " + text_line);
        }
      }
    } else if (op == "explain") {
      if (tokens.size() > 1 && tokens[1] != "--json") {
        return fail("explain takes no argument, --json, or mapping <name>");
      }
      chase::MirrorValueStats(&observability());
      observability().metrics.GetGauge("mem.peak_rss_kb").Set(
          static_cast<std::int64_t>(obs::PeakRssKb()));
      obs::ProfileReport report = obs::Profiler::Build(observability());
      if (tokens.size() > 1) {
        log.push_back(report.ToJson());
      } else {
        log.push_back("explain: " + std::to_string(report.operators.size()) +
                      " operators, " + std::to_string(report.rules.size()) +
                      " chase rules, " + std::to_string(report.phases.size()) +
                      " phases");
        for (std::string& report_line : report.Lines()) {
          log.push_back("  " + std::move(report_line));
        }
      }
    } else if (op == "trace") {
      MM2_RETURN_IF_ERROR(need(1));
      observability().tracer.Enable();
      trace_flusher.file = tokens[1];
      log.push_back("tracing to " + tokens[1]);
    } else if (op == "log" && tokens.size() > 1 && tokens[1] == "level") {
      MM2_RETURN_IF_ERROR(need(2));
      obs::EventLevel level;
      if (!obs::ParseEventLevel(tokens[2], &level)) {
        return fail("log level wants debug|info|warn|error, got '" +
                    tokens[2] + "'");
      }
      observability().events.SetMinLevel(level);
      log.push_back("log level " + tokens[2]);
    } else if (op == "log") {
      MM2_RETURN_IF_ERROR(need(1));
      obs::EventFormat format;
      if (tokens[1] == "off") {
        format = obs::EventFormat::kOff;
      } else if (tokens[1] == "text") {
        format = obs::EventFormat::kText;
      } else if (tokens[1] == "json") {
        format = obs::EventFormat::kJson;
      } else {
        return fail("log wants off|text|json [file] or level "
                    "debug|info|warn|error, got '" + tokens[1] + "'");
      }
      if (tokens.size() > 2 && format != obs::EventFormat::kOff) {
        MM2_RETURN_IF_ERROR(
            observability().events.ConfigureFile(format, tokens[2]));
        log.push_back("logging " + tokens[1] + " to " + tokens[2]);
      } else {
        observability().events.Configure(
            format, format == obs::EventFormat::kOff ? nullptr : &std::cerr);
        log.push_back("logging " + tokens[1]);
      }
    } else if (op == "budget") {
      MM2_RETURN_IF_ERROR(need(1));
      if (tokens[1] == "off") {
        SetWallBudgetUs(0);
        SetTupleBudget(0);
        SetRssBudgetKb(0);
        log.push_back("budgets cleared");
      } else {
        MM2_RETURN_IF_ERROR(need(2));
        char* end = nullptr;
        long long n = std::strtoll(tokens[2].c_str(), &end, 10);
        if (end == tokens[2].c_str() || *end != '\0' || n < 0) {
          return fail("budget wants a non-negative integer, got '" +
                      tokens[2] + "'");
        }
        if (tokens[1] == "tuples") {
          SetTupleBudget(static_cast<std::size_t>(n));
        } else if (tokens[1] == "wall_us") {
          SetWallBudgetUs(static_cast<std::uint64_t>(n));
        } else if (tokens[1] == "rss_kb") {
          SetRssBudgetKb(static_cast<std::size_t>(n));
        } else {
          return fail("budget wants tuples|wall_us|rss_kb|off, got '" +
                      tokens[1] + "'");
        }
        log.push_back("budget " + tokens[1] + " " + tokens[2]);
      }
    } else if (op == "why") {
      MM2_RETURN_IF_ERROR(need(1));
      if (why_session_ == nullptr) {
        return fail("why needs a prior exchange in this engine (provenance "
                    "is recorded per exchange)");
      }
      // The tokenizer split on spaces; stitch the fact literal back
      // together so `why Flat(1, "a b")` works.
      std::string literal = tokens[1];
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        literal += " " + tokens[i];
      }
      auto fact_result = ParseFactLiteral(literal);
      if (!fact_result.ok()) return fail(fact_result.status().message());
      const chase::Fact& fact = fact_result.value();
      const chase::Provenance& provenance = why_session_->provenance;
      std::istringstream explain_lines(runtime::ExplainFact(provenance, fact));
      std::string explain_line;
      while (std::getline(explain_lines, explain_line)) {
        log.push_back(std::move(explain_line));
      }
      std::vector<chase::Fact> lineage = runtime::Lineage(provenance, fact);
      if (!lineage.empty()) {
        std::string sources = "  sources:";
        for (const chase::Fact& f : lineage) sources += " " + f.ToString();
        log.push_back(std::move(sources));
      }
    } else if (op == "apply") {
      MM2_RETURN_IF_ERROR(need(1));
      // Stitch the signed fact literal back together (the tokenizer split
      // on spaces), as `why` does.
      std::string literal = tokens[1];
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        literal += " " + tokens[i];
      }
      Status applied = ApplyDeltaFact(literal);
      if (!applied.ok()) return fail(applied.message());
      log.push_back("queued " + literal + " (pending " +
                    std::to_string(pending_delta_.Size()) + ")");
    } else if (op == "maintain") {
      MM2_RETURN_IF_ERROR(need(1));
      MM2_ASSIGN_OR_RETURN(runtime::Delta target_delta, Maintain(tokens[1]));
      log.push_back(
          "maintained " + tokens[1] + " -> " + sessions_.at(tokens[1]).out +
          ": +" + std::to_string(target_delta.inserts.TotalTuples()) + " -" +
          std::to_string(target_delta.deletes.TotalTuples()) + " tuples");
    } else if (op == "eqcheck") {
      MM2_RETURN_IF_ERROR(need(2));
      MM2_ASSIGN_OR_RETURN(std::string verdict,
                           EqCheck(tokens[1], tokens[2]));
      log.push_back("eqcheck " + tokens[1] + " " + tokens[2] + ": " +
                    verdict);
    } else {
      return fail("unknown command '" + op + "'");
    }
  }
  return log;
}

}  // namespace mm2::engine
