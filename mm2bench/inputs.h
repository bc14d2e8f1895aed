// Seeded input generators. Every generator turns a seed into the text a
// script user would hand the engine: S-expression schemas, mappings and
// instances, `+Rel(..)`/`-Rel(..)` delta literals, `why` fact literals and
// Datalog queries. The workloads parse only this text; no generated object
// reaches the library except through its parser.
//
// A seed changes values, names and which keys a delta touches, never the
// shape or size of the work, so runs with different seeds are comparable.
#ifndef MM2BENCH_INPUTS_H_
#define MM2BENCH_INPUTS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "workload/generators.h"

namespace mm2bench {

// exchange_bulk: a join-heavy, string-valued, egd-free mapping over a
// snowflake source. The Fig. 4 correspondences of a 3-dimension snowflake
// are interpreted into join tgds whose head, the flat target root, has an
// existential in every column the correspondence does not fill; on top come
// an existential-free join projection (FactDims), per-dimension projections
// (DimKey<d>) and an existential-head audit relation. Varied property:
// string vs int values -- dimension attributes are interned strings,
// keys and references are ints, and half the queries bind a string.
struct BulkInputs {
  std::string mapping_text;
  std::string source_text;
  // Certain-answer queries, read in order every operation: point lookups,
  // 2-3 atom joins with one bound constant, and queries over positions
  // that hold labeled nulls.
  std::vector<std::string> queries;
};
BulkInputs MakeBulkInputs(std::uint64_t seed);

// Relations of the bulk target that hold no labeled nulls, so the chase
// and the compiled loader must produce them identically.
std::vector<std::string> BulkExistentialFreeRelations();

// maintain_stream: the incremental-exchange mapping shape (a projection
// copy R(k,a) -> T0(k,a), a key join R(k,a),S(k,b) -> T1(a,b), and an
// existential head S(k,b) -> T2(b,n)) over kStreamKeys source keys. The b
// column cycles through only kStreamHot values, so each hot T2 fact carries
// hundreds of witnesses, the same number whatever the seed (varied
// property: witness sharing on the hot existential facts). Every write
// inserts the newest keys and deletes as many old ones, chosen with a
// recency skew: mostly the oldest keys, now and then a recently inserted
// one.
class DeltaStream {
 public:
  static constexpr std::int64_t kStreamKeys = 8000;
  static constexpr std::int64_t kStreamHot = 29;
  static constexpr std::int64_t kStreamA = 97;
  // 1% of the keys change per write: half inserted, half deleted.
  static constexpr std::int64_t kHalfDelta = kStreamKeys / 100 / 2;

  explicit DeltaStream(std::uint64_t seed);

  std::string MappingText() const;
  // The source as it stands now (all live keys).
  std::string SourceText() const;

  struct Write {
    std::vector<std::string> literals;      // "+R(k, a)", "-S(k, b)", ...
    std::vector<std::int64_t> inserted;     // keys
    std::vector<std::int64_t> deleted;      // keys
  };
  Write Next();

  std::int64_t A(std::int64_t key) const;
  std::int64_t B(std::int64_t key) const;
  // A live key picked uniformly, for reads about older facts.
  std::int64_t RandomLiveKey();
  std::size_t Pick(std::size_t n) { return rng_.Uniform(n); }

 private:
  mm2::workload::Rng rng_;
  std::int64_t next_key_ = 0;
  std::vector<std::int64_t> live_;  // insertion order, oldest first
  std::vector<std::pair<std::int64_t, std::int64_t>> values_;  // key -> (a,b)
  std::vector<std::int64_t> hot_;  // the kStreamHot values of b
  void AddKey();
};

// closure_deep: transitive closure of a chain of kClosureEdges edges, the
// deep-recursion reference point: one fixpoint runs kClosureEdges rounds
// and derives n(n+1)/2 facts. Varied property: rounds per fixpoint (fixed
// here at the reference point); the seed relabels the nodes with random
// ints, so runs differ in values, not in the join structure.
struct ClosureInputs {
  static constexpr std::size_t kClosureEdges = 256;
  std::string instance_text;
  std::vector<std::string> rules;    // Datalog rules, head :- body
  std::vector<std::string> queries;  // reachability reads over T
};
ClosureInputs MakeClosureInputs(std::uint64_t seed);

// mm_script: a Rondo-style metadata session. Schemas and mappings arrive
// as text; the script runs match, compose (an evolution chain and a
// blow-up instance), invert, inverse, extract, diff, merge, modelgen in all
// three inheritance strategies, oogen, nestedgen and `explain mapping`.
// Varied property: the seed draws the relation and attribute names of the
// relational schema and their perturbation, which the matcher and merge
// work on; schema sizes stay fixed.
struct ScriptInputs {
  std::vector<std::string> schema_texts;
  std::vector<std::string> mapping_texts;
  std::string script;
  // The matcher's reference alignment between Rel and Rel_p.
  std::vector<mm2::match::Correspondence> reference;
  // Mappings the reads explain, and outputs whose digest is checked.
  std::vector<std::string> explained;
  std::vector<std::string> digested;
};
ScriptInputs MakeScriptInputs(std::uint64_t seed);

}  // namespace mm2bench

#endif  // MM2BENCH_INPUTS_H_
