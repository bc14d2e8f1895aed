// Deterministic mutation fuzzing of the text surface. Seeds (the example
// schemas, instances and mapping, an instance of every value kind,
// benchmark-shaped queries and fact literals) are mutated under a fixed
// seed and a fixed budget, then fed to every parser and, as `apply`/`why`
// lines, to an engine after one exchange; script lines of every command
// that takes repository names are mutated over a seeded repository. Every
// call must come back with a Status; every instance that parses must
// render through InstanceToText and parse back equal. It runs as an
// ordinary ctest, so the sanitizer gate runs it too.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <fstream>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "engine/engine.h"
#include "text/query.h"
#include "text/sexpr.h"

namespace mm2::text {
namespace {

constexpr std::uint32_t kSeed = 20070611;
constexpr int kMutantsPerSeed = 3000;

std::string ReadExample(const std::string& name) {
  std::ifstream in(std::string(MM2_EXAMPLE_DATA) + "/" + name);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

const std::vector<std::string>& FileSeeds() {
  static const std::vector<std::string> seeds = {
      ReadExample("school.schema"), ReadExample("school_v2.schema"),
      ReadExample("school.instance"), ReadExample("school_delta.instance"),
      ReadExample("split.mapping")};
  return seeds;
}

// An instance holding every value kind, escapes and a 17-digit double
// included; queries shaped like the benchmark's (closure and snowflake
// reads); and fact literals covering every value kind.
const std::string kValueSeed =
    "(instance\n  (R (1 -2.5e-05 \"a \\\"b\\\" \\\\ c\" #t #f null N7 d:-3\n"
    "     1.0000000000000001e-05))\n  (Empty))\n";
const std::vector<std::string> kQuerySeeds = {
    "Q(y) :- T(17, y)",
    "Q(x) :- T(x, 17)",
    "T(x, z) :- T(x, y), R(y, z)",
    "Q(g, b2) :- FactDims(\"k-7\", a, b, c), FactDims(g, a, b2, c2), "
    "Audit(g, n)",
    "Q(n, a) :- NamesP(s, n), Foreign(s, a, c)",
};
const std::vector<std::string> kFactSeeds = {
    "Names(7, \"Zed\")",
    "Addresses(7, \"9 Elm\", \"US\")",
    "NamesP(1, \"Ada  Lovelace\")",
    "R(-1.5e-05, N7, d:-3, #t, null, \"a \\\"b\\\", (c) \\\\\")",
    "Empty()",
};

// A small ER schema for `modelgen`, and one valid line of every command
// that takes repository names, over the example repository after one
// exchange. All of them run once unmutated first, in order, so the names
// they create exist before any mutant runs.
const std::string kErSeed =
    "(schema Er er\n"
    "  (entity Person (attr Id int64) (attr Name string))\n"
    "  (entity Student (parent Person) (attr Year int64))\n"
    "  (entityset Persons Person))\n";
const std::vector<std::string> kScriptSeeds = {
    "exchange Dx mapSSp D",
    "batchload Dy mapSSp D",
    "eqcheck Dx Dy",
    "apply +Names(3, \"Cy\")",
    "maintain mapSSp",
    "match S Sprime",
    "invert mapInv mapSSp",
    "compose mapRound mapSSp mapInv",
    "inverse mapBack mapSSp",
    "extract Sext mapExt mapSSp",
    "diff Sdiff mapDiff mapSSp",
    "merge Smerged toS toSp S Sprime Names.SID=NamesP.SID",
    "modelgen Errel er2rel Er tph",
    "oogen Soo wrapS S",
    "nestedgen Sdoc docMap S",
    "explain mapping mapSSp",
    "explain mapping mapRound --json",
    "explain mapping mapInv --dot",
    "budget tuples 100000",
    "budget off",
    "stats",
    "explain --json",
};

// One to four edits: flip a bit, insert a byte, delete a run, duplicate a
// run, or splice in a token the grammars care about. `rng() % n` keeps the
// stream identical on every standard library.
std::string Mutate(std::string text, std::mt19937& rng) {
  static const std::vector<std::string> kSplices = {
      "\"", "(", ")", ",", "0", "7", "9", "e", "E", "-", "+", ".", " ",
      "\t", "\n", "\\", "\\\\", "#", "N", "d:", ";", "1e-05", "1e999", "nan",
      "\"\"", "()", "\\\"", ":-"};
  const std::uint32_t edits = 1 + rng() % 4;
  for (std::uint32_t e = 0; e < edits; ++e) {
    const std::size_t at = rng() % (text.size() + 1);
    const std::size_t run = 1 + rng() % 8;
    switch (rng() % 5) {
      case 0:
        if (at < text.size()) {
          text[at] = static_cast<char>(text[at] ^ (1 << (rng() % 8)));
        }
        break;
      case 1:
        text.insert(at, 1, static_cast<char>(rng() % 256));
        break;
      case 2:
        text.erase(at, run);
        break;
      case 3:
        text.insert(rng() % (text.size() + 1), text.substr(at, run));
        break;
      default:
        text.insert(at, kSplices[rng() % kSplices.size()]);
        break;
    }
  }
  return text;
}

// Every parser answers `text` with a Status; an instance that parses
// survives the round trip through its rendering. True when it parsed as an
// instance.
bool ParseEverything(const std::string& text) {
  (void)ParseSchema(text).status();
  (void)ParseMapping(text).status();
  (void)ParseQuery(text).status();
  (void)ParseFact(text).status();
  Result<instance::Instance> parsed = ParseInstance(text);
  if (!parsed.ok()) return false;
  const std::string rendered = InstanceToText(*parsed);
  Result<instance::Instance> again = ParseInstance(rendered);
  EXPECT_TRUE(again.ok() && again->Equals(*parsed))
      << (again.ok() ? "parsed back different" : again.status().ToString())
      << "\nrendered:\n" << rendered;
  return true;
}

TEST(TextFuzzTest, ParsersAnswerEveryMutantWithAStatus) {
  std::vector<std::string> seeds = FileSeeds();
  seeds.push_back(kValueSeed);
  seeds.insert(seeds.end(), kQuerySeeds.begin(), kQuerySeeds.end());
  seeds.insert(seeds.end(), kFactSeeds.begin(), kFactSeeds.end());
  std::mt19937 rng(kSeed);
  int instances = 0;
  for (const std::string& seed : seeds) {
    ASSERT_FALSE(seed.empty());
    ParseEverything(seed);
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      instances += ParseEverything(Mutate(seed, rng)) ? 1 : 0;
    }
  }
  // Instance seeds survive some of their mutations, so the round trip is
  // exercised, not vacuous.
  EXPECT_GT(instances, 0);
}

TEST(TextFuzzTest, ApplyAndWhyLinesAnswerWithAStatus) {
  engine::Engine engine;
  Result<model::Schema> source = ParseSchema(FileSeeds()[0]);
  Result<model::Schema> target = ParseSchema(FileSeeds()[1]);
  Result<instance::Instance> data = ParseInstance(FileSeeds()[2]);
  Result<logic::Mapping> mapping = ParseMapping(FileSeeds()[4]);
  ASSERT_TRUE(source.ok() && target.ok() && data.ok() && mapping.ok());
  ASSERT_TRUE(engine.repo().PutSchema(*source).ok());
  ASSERT_TRUE(engine.repo().PutSchema(*target).ok());
  ASSERT_TRUE(engine.repo().PutInstance("D", *data).ok());
  ASSERT_TRUE(engine.repo().PutMapping(*mapping).ok());
  ASSERT_TRUE(engine.RunScript("exchange Dprime mapSSp D").ok());
  std::mt19937 rng(kSeed);
  for (const std::string& seed : kFactSeeds) {
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      std::string fact = Mutate(seed, rng);
      // One script line: a newline would start a second command.
      for (char& c : fact) {
        if (c == '\n' || c == '\r') c = ' ';
      }
      (void)engine.RunScript("why " + fact).status();
      (void)engine.RunScript("apply +" + fact).status();
      (void)engine.RunScript("apply -" + fact).status();
    }
  }
  // The engine still answers after the barrage.
  Result<std::vector<std::string>> why =
      engine.RunScript("why NamesP(1, \"Ada\")");
  ASSERT_TRUE(why.ok()) << why.status();
  EXPECT_NE(why->front().find("because"), std::string::npos);
}

// Mutated script lines over a seeded repository: every line answers with a
// Status whatever names, counts and options it ends up with. Lines whose
// first word is `trace` or `log` are skipped: the first writes a file, the
// second writes one or re-points the event sink.
TEST(TextFuzzTest, ScriptLinesOverASeededRepositoryAnswerWithAStatus) {
  Result<model::Schema> source = ParseSchema(FileSeeds()[0]);
  Result<model::Schema> target = ParseSchema(FileSeeds()[1]);
  Result<instance::Instance> data = ParseInstance(FileSeeds()[2]);
  Result<logic::Mapping> mapping = ParseMapping(FileSeeds()[4]);
  Result<model::Schema> er = ParseSchema(kErSeed);
  ASSERT_TRUE(source.ok() && target.ok() && data.ok() && mapping.ok());
  ASSERT_TRUE(er.ok()) << er.status();
  engine::Engine engine;
  ASSERT_TRUE(engine.repo().PutSchema(*source).ok());
  ASSERT_TRUE(engine.repo().PutSchema(*target).ok());
  ASSERT_TRUE(engine.repo().PutSchema(*er).ok());
  ASSERT_TRUE(engine.repo().PutInstance("D", *data).ok());
  ASSERT_TRUE(engine.repo().PutMapping(*mapping).ok());
  ASSERT_TRUE(engine.RunScript("exchange Dprime mapSSp D").ok());
  for (const std::string& seed : kScriptSeeds) {
    Result<std::vector<std::string>> valid = engine.RunScript(seed);
    EXPECT_TRUE(valid.ok()) << seed << ": " << valid.status();
  }
  std::mt19937 rng(kSeed);
  int ran = 0;
  for (const std::string& seed : kScriptSeeds) {
    for (int i = 0; i < kMutantsPerSeed; ++i) {
      std::string line = Mutate(seed, rng);
      for (char& c : line) {
        if (c == '\n' || c == '\r') c = ' ';
      }
      std::string command;
      std::istringstream(line) >> command;
      if (command == "trace" || command == "log") continue;
      (void)engine.RunScript(line).status();
      ++ran;
    }
  }
  EXPECT_GT(ran, 0);
  // The engine still answers once its inputs are restored: mutants may
  // have overwritten any name and left a budget armed.
  ASSERT_TRUE(engine.repo().PutInstance("D", *data).ok());
  ASSERT_TRUE(engine.repo().PutMapping(*mapping).ok());
  ASSERT_TRUE(engine.RunScript("budget off\nexchange Dprime mapSSp D").ok());
  Result<std::vector<std::string>> why =
      engine.RunScript("why NamesP(1, \"Ada\")");
  ASSERT_TRUE(why.ok()) << why.status();
  EXPECT_NE(why->front().find("because"), std::string::npos);
}

}  // namespace
}  // namespace mm2::text
