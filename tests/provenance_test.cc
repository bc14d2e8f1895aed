// Pins what `why` reads: runtime::ExplainFact's text for every target fact
// of fixed chases, byte for byte. The digests and texts below were recorded
// with the map-based store (one std::map<Fact, std::vector<Witness>> plus a
// std::map<Fact, std::vector<Fact>> support index) that the compact
// provenance store replaced, so witness content, booking order across
// session passes and egd-driven merges must all come out as they did.
//  - The golden exchanges of MatchPlanGoldenTest (golden_scenario.h),
//    chased with RunChase(track_provenance), first- and second-order: joins,
//    body constants, existential heads, SO premise equalities and key egds
//    that merge facts.
//  - A small session shaped like mm2bench's maintain_stream: R/S -> T0/T1
//    and a hot existential T2, after BeginExchangeSession and after each of
//    three maintains that delete from the middle of witness lists and
//    re-insert deleted keys.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "chase/chase.h"
#include "golden_scenario.h"
#include "instance/instance.h"
#include "logic/mapping.h"
#include "runtime/runtime.h"
#include "text/sexpr.h"

namespace mm2::chase {
namespace {

using instance::Instance;
using instance::Tuple;
using instance::Value;
using logic::Mapping;

std::uint64_t Fnv1a(const std::string& text) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

// The FNV-1a digest of every target fact's ExplainFact text, concatenated in
// target order, and the full text of the facts with more than one witness.
struct ProvenanceDigest {
  std::uint64_t digest = 0;
  std::string multi;
};

ProvenanceDigest DigestOf(const Instance& target,
                          const Provenance& provenance) {
  ProvenanceDigest out;
  std::string all;
  for (const auto& [name, rel] : target.relations()) {
    for (const Tuple& tuple : rel.tuples()) {
      const std::string text =
          runtime::ExplainFact(provenance, Fact{name, tuple});
      all += text;
      std::size_t witnesses = 0;
      for (std::size_t at = text.find("\n  <-"); at != std::string::npos;
           at = text.find("\n  <-", at + 1)) {
        ++witnesses;
      }
      if (witnesses > 1) out.multi += text;
    }
  }
  out.digest = Fnv1a(all);
  return out;
}

Result<ProvenanceDigest> ChaseDigest(std::uint64_t seed, bool second_order) {
  GoldenScenario s = MakeGoldenScenario(seed);
  Mapping mapping =
      second_order
          ? Mapping::FromSoTgd("so", s.source, s.target, s.so, s.egds)
          : Mapping::FromTgds("fo", s.source, s.target, s.tgds, s.egds);
  ChaseOptions options;
  options.track_provenance = true;
  MM2_ASSIGN_OR_RETURN(ChaseResult result, RunChase(mapping, s.db, options));
  return DigestOf(result.target, result.provenance);
}

constexpr char kStreamMapping[] = R"((mapping stream
  (source (schema Src relational
    (relation R (attr k int64) (attr a int64))
    (relation S (attr k int64) (attr b int64))))
  (target (schema Tgt relational
    (relation T0 (attr k int64) (attr a int64))
    (relation T1 (attr a int64) (attr b int64))
    (relation T2 (attr b int64) (attr n int64))))
  (tgd (body (R k a)) (head (T0 k a)))
  (tgd (body (R k a) (S k b)) (head (T1 a b)))
  (tgd (body (S k b)) (head (T2 b n)))))";

// Key k holds R(k, k % 3) and S(k, b) with b one of two hot values, so T2
// has two facts with many witnesses and T1 facts share derivations.
Tuple RRow(std::int64_t k) { return {Value::Int64(k), Value::Int64(k % 3)}; }
Tuple SRow(std::int64_t k) {
  return {Value::Int64(k), Value::Int64(k % 2 == 0 ? 100 : 200)};
}

constexpr std::int64_t kStreamKeys = 12;

// Each maintain inserts two keys and deletes two; deletes reach into the
// middle of witness lists, and deleted keys come back later.
struct StreamWrite {
  std::int64_t inserted[2];
  std::int64_t deleted[2];
};
constexpr StreamWrite kStreamWrites[] = {
    {{12, 13}, {1, 2}}, {{14, 1}, {5, 6}}, {{15, 5}, {9, 0}}};

// The session digest after opening on keys [0, 12) and after each write.
Result<std::vector<ProvenanceDigest>> StreamDigests() {
  MM2_ASSIGN_OR_RETURN(Mapping mapping, text::ParseMapping(kStreamMapping));
  Instance source;
  source.DeclareRelation("R", 2);
  source.DeclareRelation("S", 2);
  for (std::int64_t k = 0; k < kStreamKeys; ++k) {
    source.InsertUnchecked("R", RRow(k));
    source.InsertUnchecked("S", SRow(k));
  }
  MM2_ASSIGN_OR_RETURN(runtime::ExchangeSession session,
                       runtime::BeginExchangeSession(mapping, source));
  std::vector<ProvenanceDigest> out;
  out.push_back(DigestOf(session.target, session.provenance));
  for (const StreamWrite& write : kStreamWrites) {
    runtime::Delta delta;
    for (Instance* side : {&delta.inserts, &delta.deletes}) {
      side->DeclareRelation("R", 2);
      side->DeclareRelation("S", 2);
    }
    for (std::int64_t k : write.inserted) {
      delta.inserts.InsertUnchecked("R", RRow(k));
      delta.inserts.InsertUnchecked("S", SRow(k));
    }
    for (std::int64_t k : write.deleted) {
      delta.deletes.InsertUnchecked("R", RRow(k));
      delta.deletes.InsertUnchecked("S", SRow(k));
    }
    MM2_RETURN_IF_ERROR(runtime::MaintainExchange(session, delta).status());
    out.push_back(DigestOf(session.target, session.provenance));
  }
  return out;
}

struct ChaseGolden {
  std::uint64_t seed;
  bool second_order;
  std::uint64_t digest;
  const char* multi;
};

// clang-format off
const ChaseGolden kChaseGolden[] = {
    {1, false, 0x8655465d1f168a54ULL, R"golden()golden"},
    {1, true, 0x96922d273f2300a6ULL, R"golden()golden"},
    {2, false, 0x92782dc9172545d2ULL, R"golden()golden"},
    {2, true, 0xab0a9509bfba852bULL, R"golden(T1(0, N3) because:
  <- R2(0, 0, 0) R1(0)
  <- R2(0, 0, 0) R1(1)
  <- R2(0, 0, 0) R1(3)
  <- R2(0, 0, 0) R1(4)
)golden"},
    {5, false, 0x6c4b42db2e28ee77ULL, R"golden()golden"},
    {5, true, 0x7f4954fe9268db94ULL, R"golden()golden"},
    {6, false, 0x74df98432025fa20ULL, R"golden()golden"},
    {6, true, 0x2e3e2a5d1218e44dULL, R"golden()golden"},
    {7, false, 0x29a711923c54ff8dULL, R"golden()golden"},
    {7, true, 0x8ade2d725b31e014ULL, R"golden()golden"},
    {11, false, 0x4f6f7f55f8f50f9fULL, R"golden()golden"},
    {11, true, 0xf63c0b1e56159868ULL, R"golden()golden"},
};

const ProvenanceDigest kStreamGolden[] = {
    {0xd5db5992fefd975eULL, R"golden(T1(0, 100) because:
  <- R(0, 0) S(0, 100)
  <- R(6, 0) S(6, 100)
T1(0, 200) because:
  <- R(3, 0) S(3, 200)
  <- R(9, 0) S(9, 200)
T1(1, 100) because:
  <- R(4, 1) S(4, 100)
  <- R(10, 1) S(10, 100)
T1(1, 200) because:
  <- R(1, 1) S(1, 200)
  <- R(7, 1) S(7, 200)
T1(2, 100) because:
  <- R(2, 2) S(2, 100)
  <- R(8, 2) S(8, 100)
T1(2, 200) because:
  <- R(5, 2) S(5, 200)
  <- R(11, 2) S(11, 200)
T2(100, N0) because:
  <- S(0, 100)
  <- S(2, 100)
  <- S(4, 100)
  <- S(6, 100)
  <- S(8, 100)
  <- S(10, 100)
T2(200, N1) because:
  <- S(1, 200)
  <- S(3, 200)
  <- S(5, 200)
  <- S(7, 200)
  <- S(9, 200)
  <- S(11, 200)
)golden"},
    {0x0e8985556e256c9aULL, R"golden(T1(0, 100) because:
  <- R(0, 0) S(0, 100)
  <- R(6, 0) S(6, 100)
  <- R(12, 0) S(12, 100)
T1(0, 200) because:
  <- R(3, 0) S(3, 200)
  <- R(9, 0) S(9, 200)
T1(1, 100) because:
  <- R(4, 1) S(4, 100)
  <- R(10, 1) S(10, 100)
T1(1, 200) because:
  <- R(7, 1) S(7, 200)
  <- R(13, 1) S(13, 200)
T1(2, 200) because:
  <- R(5, 2) S(5, 200)
  <- R(11, 2) S(11, 200)
T2(100, N0) because:
  <- S(0, 100)
  <- S(4, 100)
  <- S(6, 100)
  <- S(8, 100)
  <- S(10, 100)
  <- S(12, 100)
T2(200, N1) because:
  <- S(3, 200)
  <- S(5, 200)
  <- S(7, 200)
  <- S(9, 200)
  <- S(11, 200)
  <- S(13, 200)
)golden"},
    {0x9765ac3b1ce7201cULL, R"golden(T1(0, 100) because:
  <- R(0, 0) S(0, 100)
  <- R(12, 0) S(12, 100)
T1(0, 200) because:
  <- R(3, 0) S(3, 200)
  <- R(9, 0) S(9, 200)
T1(1, 100) because:
  <- R(4, 1) S(4, 100)
  <- R(10, 1) S(10, 100)
T1(1, 200) because:
  <- R(7, 1) S(7, 200)
  <- R(13, 1) S(13, 200)
  <- R(1, 1) S(1, 200)
T1(2, 100) because:
  <- R(8, 2) S(8, 100)
  <- R(14, 2) S(14, 100)
T2(100, N0) because:
  <- S(0, 100)
  <- S(4, 100)
  <- S(8, 100)
  <- S(10, 100)
  <- S(12, 100)
  <- S(14, 100)
T2(200, N1) because:
  <- S(3, 200)
  <- S(7, 200)
  <- S(9, 200)
  <- S(11, 200)
  <- S(13, 200)
  <- S(1, 200)
)golden"},
    {0x126e51cba7651d8cULL, R"golden(T1(0, 200) because:
  <- R(3, 0) S(3, 200)
  <- R(15, 0) S(15, 200)
T1(1, 100) because:
  <- R(4, 1) S(4, 100)
  <- R(10, 1) S(10, 100)
T1(1, 200) because:
  <- R(7, 1) S(7, 200)
  <- R(13, 1) S(13, 200)
  <- R(1, 1) S(1, 200)
T1(2, 100) because:
  <- R(8, 2) S(8, 100)
  <- R(14, 2) S(14, 100)
T1(2, 200) because:
  <- R(11, 2) S(11, 200)
  <- R(5, 2) S(5, 200)
T2(100, N0) because:
  <- S(4, 100)
  <- S(8, 100)
  <- S(10, 100)
  <- S(12, 100)
  <- S(14, 100)
T2(200, N1) because:
  <- S(3, 200)
  <- S(7, 200)
  <- S(11, 200)
  <- S(13, 200)
  <- S(1, 200)
  <- S(5, 200)
  <- S(15, 200)
)golden"},
};
// clang-format on

TEST(ProvenanceGoldenTest, ChaseExplanationsMatchRecordedRuns) {
  for (const ChaseGolden& expected : kChaseGolden) {
    const std::string where = "seed " + std::to_string(expected.seed) +
                              (expected.second_order ? " (SO)" : " (FO)");
    Result<ProvenanceDigest> got =
        ChaseDigest(expected.seed, expected.second_order);
    ASSERT_TRUE(got.ok()) << where << ": " << got.status();
    EXPECT_EQ(got->digest, expected.digest) << where;
    EXPECT_EQ(got->multi, expected.multi) << where;
  }
}

TEST(ProvenanceGoldenTest, SessionExplanationsMatchRecordedRuns) {
  Result<std::vector<ProvenanceDigest>> got = StreamDigests();
  ASSERT_TRUE(got.ok()) << got.status();
  ASSERT_EQ(got->size(), std::size(kStreamGolden));
  for (std::size_t i = 0; i < got->size(); ++i) {
    EXPECT_EQ((*got)[i].digest, kStreamGolden[i].digest) << "step " << i;
    EXPECT_EQ((*got)[i].multi, kStreamGolden[i].multi) << "step " << i;
  }
}

}  // namespace
}  // namespace mm2::chase
