// mm2_shell: an interactive front end for the model management engine —
// the "reusable component embedded in a tool" of the paper's Section 2,
// with a terminal instead of a GUI. Reads commands from stdin (or a file
// piped in); schemas and instances travel in the S-expression text format.
//
// Commands:
//   load-schema <file>                 parse + register a schema
//   load-instance <name> <file>        parse + register an instance
//   save-instance <name> <file>        write an instance to a file
//   show schemas|mappings|instances    list repository contents
//   show schema|mapping|instance <n>   print one artifact
//   sql <mapping>                      print compiled loader SQL
//   <any engine script command>        compose/invert/inverse/extract/
//                                      diff/merge/modelgen/exchange/match/
//                                      stats/explain
//   help, quit
//
// Environment (observability without editing the session script):
//   MM2_TRACE=<file>   enable tracing from startup; Chrome trace_event
//                      JSON is written to <file> on quit
//   MM2_STATS=1        dump the metrics registry snapshot on quit
//   MM2_LOG=json|text  structured event log to stderr from startup (the
//                      engine applies this when it creates its context)
//
// Try:  ./build/examples/mm2_shell < examples/data/demo_session.mm2
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>

#include "common/strings.h"
#include "engine/engine.h"
#include "rewrite/rewrite.h"
#include "text/query.h"
#include "text/sexpr.h"
#include "transgen/relational.h"

namespace {

mm2::Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return mm2::Status::NotFound("cannot open '" + path + "'");
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void PrintHelp() {
  std::cout <<
      "commands:\n"
      "  load-schema <file>            register a schema from s-expr text\n"
      "  load-instance <name> <file>   register an instance\n"
      "  load-mapping <file>           register a mapping (s-expr text)\n"
      "  save-instance <name> <file>   write an instance to a file\n"
      "  show schemas|mappings|instances\n"
      "  show schema|mapping|instance <name>\n"
      "  sql <mapping>                 compiled loader SQL for a mapping\n"
      "  answer <m> <inst> <query>     certain answers via rewriting, e.g.\n"
      "                                answer m D Q(x) :- T(x, y)\n"
      "  compose <out> <m12> <m23>     (and the other engine commands:\n"
      "  invert/inverse/extract/diff/merge/modelgen/exchange/match)\n"
      "  stats [--json]                dump the metrics registry\n"
      "  explain [--json]              ranked cost report (operators,\n"
      "                                chase rules, foresight, span phases)\n"
      "  explain mapping <m> [--json|--dot]\n"
      "                                static analysis: dependency strata,\n"
      "                                termination class, chase bounds\n"
      "  trace <file>                  record spans; Chrome JSON on quit\n"
      "                                (or start with MM2_TRACE=<file>;\n"
      "                                MM2_STATS=1 dumps stats on quit)\n"
      "  log off|text|json [file]      structured event log + flight\n"
      "                                recorder (default sink stderr; or\n"
      "                                start with MM2_LOG=json|text)\n"
      "  log level debug|info|warn|error\n"
      "                                drop events below the threshold\n"
      "                                (or start with MM2_LOG_LEVEL=warn)\n"
      "  budget tuples|wall_us|rss_kb <n>  soft chase budgets; on breach\n"
      "                                exchange stops gracefully with a\n"
      "                                diagnostic (budget off: clear)\n"
      "  why <Rel(v1,v2,...)>          why-provenance of a target fact\n"
      "                                from the last exchange\n"
      "  help | quit\n";
}

}  // namespace

int main() {
  mm2::engine::Engine engine;
  std::string line;
  // RunScript scopes `trace` to one script, but the shell feeds it one
  // line at a time — so intercept trace here and flush at session end.
  std::string trace_file;
  // MM2_TRACE/MM2_STATS arm the same session-end reporting from the
  // environment, so piped scripts need no observability commands at all.
  if (const char* env_trace = std::getenv("MM2_TRACE");
      env_trace != nullptr && env_trace[0] != '\0') {
    engine.observability().tracer.Enable();
    trace_file = env_trace;
  }
  const char* env_stats = std::getenv("MM2_STATS");
  bool stats_on_quit =
      env_stats != nullptr && std::string(env_stats) != "0" &&
      env_stats[0] != '\0';
  std::cout << "mm2 shell — 'help' for commands\n";
  while (std::cout << "mm2> " << std::flush, std::getline(std::cin, line)) {
    std::istringstream words(line);
    std::vector<std::string> tokens;
    std::string word;
    while (words >> word) tokens.push_back(word);
    if (tokens.empty() || tokens[0][0] == '#') continue;
    const std::string& cmd = tokens[0];

    if (cmd == "quit" || cmd == "exit") break;
    if (cmd == "trace" && tokens.size() == 2) {
      engine.observability().tracer.Enable();
      trace_file = tokens[1];
      std::cout << "tracing to " << trace_file << " (written on quit)\n";
      continue;
    }
    if (cmd == "help") {
      PrintHelp();
      continue;
    }
    if (cmd == "load-schema" && tokens.size() == 2) {
      auto content = ReadFile(tokens[1]);
      if (!content.ok()) {
        std::cout << content.status() << "\n";
        continue;
      }
      auto schema = mm2::text::ParseSchema(*content);
      if (!schema.ok()) {
        std::cout << schema.status() << "\n";
        continue;
      }
      std::string name = schema->name();
      mm2::Status status = engine.repo().PutSchema(std::move(*schema));
      std::cout << (status.ok() ? "loaded schema " + name
                                : status.ToString())
                << "\n";
      continue;
    }
    if (cmd == "load-mapping" && tokens.size() == 2) {
      auto content = ReadFile(tokens[1]);
      if (!content.ok()) {
        std::cout << content.status() << "\n";
        continue;
      }
      auto mapping = mm2::text::ParseMapping(*content);
      if (!mapping.ok()) {
        std::cout << mapping.status() << "\n";
        continue;
      }
      std::string name = mapping->name();
      mm2::Status status = engine.repo().PutMapping(std::move(*mapping));
      std::cout << (status.ok() ? "loaded mapping " + name
                                : status.ToString())
                << "\n";
      continue;
    }
    if (cmd == "load-instance" && tokens.size() == 3) {
      auto content = ReadFile(tokens[2]);
      if (!content.ok()) {
        std::cout << content.status() << "\n";
        continue;
      }
      auto db = mm2::text::ParseInstance(*content);
      if (!db.ok()) {
        std::cout << db.status() << "\n";
        continue;
      }
      mm2::Status status =
          engine.repo().PutInstance(tokens[1], std::move(*db));
      std::cout << (status.ok() ? "loaded instance " + tokens[1]
                                : status.ToString())
                << "\n";
      continue;
    }
    if (cmd == "save-instance" && tokens.size() == 3) {
      auto db = engine.repo().GetInstance(tokens[1]);
      if (!db.ok()) {
        std::cout << db.status() << "\n";
        continue;
      }
      std::ofstream out(tokens[2]);
      if (!out) {
        std::cout << "cannot write '" << tokens[2] << "'\n";
        continue;
      }
      out << mm2::text::InstanceToText(*db);
      std::cout << "saved " << tokens[1] << " to " << tokens[2] << "\n";
      continue;
    }
    if (cmd == "show" && tokens.size() >= 2) {
      const std::string& what = tokens[1];
      auto join = [](const std::vector<std::string>& names) {
        return names.empty() ? std::string("(none)")
                             : mm2::Join(names, ", ");
      };
      if (what == "schemas") {
        std::cout << join(engine.repo().SchemaNames()) << "\n";
      } else if (what == "mappings") {
        std::cout << join(engine.repo().MappingNames()) << "\n";
      } else if (what == "instances") {
        std::cout << join(engine.repo().InstanceNames()) << "\n";
      } else if (what == "schema" && tokens.size() == 3) {
        auto schema = engine.repo().GetSchema(tokens[2]);
        std::cout << (schema.ok() ? schema->ToString()
                                  : schema.status().ToString())
                  << "\n";
      } else if (what == "mapping" && tokens.size() == 3) {
        auto mapping = engine.repo().GetMapping(tokens[2]);
        std::cout << (mapping.ok() ? mapping->ToString()
                                   : mapping.status().ToString())
                  << "\n";
      } else if (what == "instance" && tokens.size() == 3) {
        auto db = engine.repo().GetInstance(tokens[2]);
        std::cout << (db.ok() ? db->ToString() : db.status().ToString())
                  << "\n";
      } else {
        std::cout << "usage: show schemas|mappings|instances|schema <n>|"
                     "mapping <n>|instance <n>\n";
      }
      continue;
    }
    if (cmd == "answer" && tokens.size() >= 4) {
      // answer <mapping> <source-instance> <query...>  — certain answers
      // over the mapping's target, computed on the source by rewriting.
      auto mapping = engine.repo().GetMapping(tokens[1]);
      auto db = engine.repo().GetInstance(tokens[2]);
      if (!mapping.ok() || !db.ok()) {
        std::cout << (mapping.ok() ? db.status() : mapping.status()) << "\n";
        continue;
      }
      // The query is the rest of the line after the third word, as typed
      // (spacing matters for quoted strings).
      auto query = mm2::text::ParseQuery(mm2::RestAfterWords(line, 3));
      if (!query.ok()) {
        std::cout << query.status() << "\n";
        continue;
      }
      auto answers = mm2::rewrite::AnswerOnSource(*mapping, *query, *db);
      if (!answers.ok()) {
        std::cout << answers.status() << "\n";
        continue;
      }
      for (const auto& row : *answers) {
        std::cout << "  " << mm2::instance::TupleToString(row) << "\n";
      }
      std::cout << answers->size() << " answer(s)\n";
      continue;
    }
    if (cmd == "sql" && tokens.size() == 2) {
      auto mapping = engine.repo().GetMapping(tokens[1]);
      if (!mapping.ok()) {
        std::cout << mapping.status() << "\n";
        continue;
      }
      auto compiled = mm2::transgen::CompileRelationalMapping(*mapping);
      std::cout << (compiled.ok() ? compiled->ToString()
                                  : compiled.status().ToString())
                << "\n";
      continue;
    }

    // Everything else goes to the engine's script interpreter.
    auto log = engine.RunScript(line);
    if (!log.ok()) {
      std::cout << log.status() << "\n";
    } else {
      for (const std::string& entry : *log) std::cout << entry << "\n";
    }
  }
  if (stats_on_quit) {
    for (const std::string& metric_line :
         engine.observability().metrics.Snapshot().Lines()) {
      std::cout << metric_line << "\n";
    }
  }
  if (!trace_file.empty()) {
    mm2::Status written =
        engine.observability().tracer.WriteChromeJson(trace_file);
    std::cout << (written.ok() ? "trace written to " + trace_file
                               : written.ToString())
              << "\n";
    engine.observability().tracer.Disable();
  }
  std::cout << "\n";
  return 0;
}
