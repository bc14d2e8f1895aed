// Pins the storage counters every chase run reports (ChaseStats'
// index_probes, index_probe_hits, index_builds, segment.* and
// segment_shape) over the golden scenarios of golden_scenario.h. Per seed:
// the FO and SO exchanges from a plain and from a sealed source, the
// closure of the source under the FO tgds, and a session's begin and one
// maintain.
//
// The `counts` digests were recorded from the library in which every
// RelationInstance counted its own reads and the chase diffed per-relation
// totals around a run; a run that counts its reads itself must reproduce
// them. A run whose input arrived sealed (the sealed-source exchanges, and
// the maintain, whose target the begin sealed on publish) reads that run on
// path 3 too, where the older library walked the set, so its
// segment.probes/probe_hits are pinned apart in `sealed_probes`, recorded
// after that change.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "chase/chase.h"
#include "golden_scenario.h"
#include "instance/instance.h"
#include "logic/mapping.h"
#include "runtime/runtime.h"

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

// One seed's runs, one line each.
struct StorageLines {
  std::string counts;
  std::string sealed_probes;
};

void Record(const std::string& label, const Status& status,
            const ChaseStats& stats, bool sealed_input, StorageLines* out) {
  out->counts += label + ": ";
  if (!status.ok()) {
    out->counts += status.ToString() + "\n";
    return;
  }
  auto n = [](std::uint64_t v) { return std::to_string(v) + " "; };
  const instance::SegmentOpStats& seg = stats.segment;
  out->counts += n(stats.index_probes) + n(stats.index_probe_hits) +
                 n(stats.index_builds) + "| " + n(seg.seals) +
                 n(seg.sealed_rows) + n(seg.compares) + n(seg.skips);
  const std::string probes = n(seg.probes) + n(seg.probe_hits);
  if (sealed_input) {
    out->sealed_probes += label + ": " + probes + "\n";
  } else {
    out->counts += probes;
  }
  out->counts += "| " + std::to_string(stats.segment_shape.live_segments) +
                 "\n";
}

// A fresh row in every source relation, and the first row of R<seed % 3>
// deleted.
runtime::Delta MaintainDelta(const Instance& db, std::uint64_t seed) {
  runtime::Delta delta;
  for (const auto& [name, rel] : db.relations()) {
    delta.inserts.DeclareRelation(name, rel.arity());
    delta.deletes.DeclareRelation(name, rel.arity());
    delta.inserts.InsertUnchecked(
        name, Tuple(rel.arity(), Value::Int64(5 + seed % 3)));
  }
  const std::string victim = "R" + std::to_string(seed % 3);
  const instance::RelationInstance* rel = db.Find(victim);
  if (!rel->empty()) {
    delta.deletes.InsertUnchecked(victim, *rel->tuples().begin());
  }
  return delta;
}

StorageLines RunSeed(std::uint64_t seed) {
  const GoldenScenario s = MakeGoldenScenario(seed);
  const Mapping fo =
      Mapping::FromTgds("fo", s.source, s.target, s.tgds, s.egds);
  const Mapping so =
      Mapping::FromSoTgd("so", s.source, s.target, s.so, s.egds);
  StorageLines out;
  for (const Mapping* mapping : {&fo, &so}) {
    for (bool sealed : {false, true}) {
      Instance source = s.db;
      if (sealed) source.PrepareAllSegments();
      auto result = RunChase(*mapping, source);
      Record(std::string(mapping == &fo ? "fo" : "so") +
                 (sealed ? " sealed" : " plain"),
             result.status(), result.ok() ? result->stats : ChaseStats{},
             sealed, &out);
    }
  }
  auto closure = ChaseInstance(s.tgds, s.egds, s.db);
  Record("closure", closure.status(),
         closure.ok() ? closure->stats : ChaseStats{}, false, &out);
  auto session = runtime::BeginExchangeSession(fo, s.db);
  Record("begin", session.status(),
         session.ok() ? session->last_stats : ChaseStats{}, false, &out);
  if (!session.ok()) return out;
  auto maintained =
      runtime::MaintainExchange(*session, MaintainDelta(s.db, seed));
  Record("maintain", maintained.status(), session->last_stats, true, &out);
  return out;
}

struct StorageGolden {
  std::uint64_t seed;
  std::uint64_t counts;
  std::uint64_t sealed_probes;
};

// clang-format off
const StorageGolden kStorageGolden[] = {
    {0, 0xeceec0c954e8423cULL, 0x4031d90fdda30f65ULL},
    {1, 0x0ffdf30a0af60e53ULL, 0x344ae0d489a720d9ULL},
    {2, 0x449cd11226998223ULL, 0xee60ee531826fcbbULL},
    {3, 0x1d64ffd30f54c593ULL, 0xcbf29ce484222325ULL},
    {4, 0x055d33d80269a6f2ULL, 0xb975c445bc81c5c1ULL},
    {5, 0x262bcf5b029e5dcaULL, 0xdb52d3df32109d70ULL},
    {6, 0xa60b584e62b60fb9ULL, 0xb05c9241af5eb9d2ULL},
    {7, 0xbf94bdbf6cd0d82aULL, 0x40c8108fdded4131ULL},
    {8, 0xcc37e8736abbee3dULL, 0xff028c390c9a0350ULL},
    {9, 0x47b1ba25bd049889ULL, 0x483aaa91c8d40953ULL},
    {10, 0x0011baec3dcafcaaULL, 0xc332e2547d6436d1ULL},
    {11, 0x99c4a4ef2396a23cULL, 0xe447f12dbba4f655ULL},
    {12, 0x1ff7882871a9737fULL, 0xcd88f1d5db052208ULL},
    {13, 0x4983f000813da9f5ULL, 0x0d60944a4c9f9ad3ULL},
    {14, 0x0eab15e39724f233ULL, 0xcbf29ce484222325ULL},
    {15, 0x0c3010e53ce7cc58ULL, 0xce74ea1a7b5b25f4ULL},
    {16, 0xc0ab45457af9ab94ULL, 0xb83122cc57099313ULL},
    {17, 0x21671b20720cebb0ULL, 0x311a41b299533bd4ULL},
    {18, 0x50a6a935c8cd5933ULL, 0x87180899ed8dcde6ULL},
    {19, 0x63ecd00f5f9feebdULL, 0xff3b51d092c98c69ULL},
    {20, 0x8727450d17ac343cULL, 0xfc720493ddf90637ULL},
    {21, 0xed93c3b317c17d90ULL, 0xde23065f0ff1d7f9ULL},
    {22, 0xc56009306aedd756ULL, 0x3469846a792681cbULL},
    {23, 0x89d37d461a5f5a0cULL, 0xd57da8c004115c7bULL},
    {24, 0xbe767f6177385dd0ULL, 0x656ba1ad9969f871ULL},
    {25, 0xa208ce485b9cd036ULL, 0xfb8a79080313b3abULL},
    {26, 0xbe2ffcaad32b074aULL, 0x74fd5bfab8a6599cULL},
    {27, 0x949a0d777d503df2ULL, 0x7c158de91829ff2fULL},
    {28, 0x154375ac159fa93fULL, 0xd23ad56cc9adf995ULL},
    {29, 0xcf5174c8baa086a7ULL, 0xfa2271a74d7477b3ULL},
    {30, 0x1afdf6da6c94496fULL, 0xcbf29ce484222325ULL},
    {31, 0x7410c363fc569954ULL, 0xfbbbaead27e69e70ULL},
    {32, 0xf5d2f2112473c013ULL, 0xc29d587eeff3aac5ULL},
    {33, 0xd214a7c9179fd5f0ULL, 0x338cc87da2deef00ULL},
    {34, 0xd8242bbeb3c46daaULL, 0x0d6ca7fe565293cbULL},
    {35, 0x022cb60d63fdf869ULL, 0xdcb94117200a2507ULL},
    {36, 0x9483eee5b600aba9ULL, 0xe695a2fe43898794ULL},
    {37, 0x250cc435b2da3e65ULL, 0xd86b697cce6286c4ULL},
    {38, 0x336d9b342be3d2d7ULL, 0x8e1a6658f71898e6ULL},
    {39, 0xca23be86517b9cdfULL, 0x2c3a4d83e15dd801ULL},
    {40, 0x030a5501ebec63c6ULL, 0x5ef5cb01e7ceef68ULL},
    {41, 0x1b6b699f3e8df4afULL, 0x8f34f7bddf3441fcULL},
    {42, 0xfb84096dceaaded1ULL, 0x87388721313bf369ULL},
    {43, 0x298bc0f2f9e38027ULL, 0xe683954305f957dbULL},
    {44, 0x88dbfb81aa3e72c7ULL, 0xd98561af66667004ULL},
    {45, 0x26b1358e48f47f97ULL, 0xdcf49ba4b4079fb0ULL},
    {46, 0xd1076e5d04f93dd1ULL, 0xc8b642934d940b2bULL},
    {47, 0x2683fa65e12c250dULL, 0x2d82647b5f66b869ULL},
    {48, 0x898e0bbb6fefc4d3ULL, 0xfc491f5bea3f7521ULL},
    {49, 0x38d1ab8f28001aefULL, 0xe735b6bcd74ac964ULL},
    {50, 0xceed7814a2a84255ULL, 0x5dec712a78a2b0b5ULL},
    {51, 0x5b759c474e3e165eULL, 0xe3113d15ad5e1d2eULL},
    {52, 0xeea165ac386dd07aULL, 0x89e5bb7d6cdc4262ULL},
    {53, 0xb1d676e65c1dd981ULL, 0x677436e6174e620dULL},
    {54, 0x7205e82d80563a98ULL, 0xc5c81a9a3ec56f86ULL},
    {55, 0x1cd4ea0a8bf3340fULL, 0xb82c9d41b38e096dULL},
    {56, 0x0352f3750a6bea9bULL, 0xc41a8514c6ffb7ccULL},
    {57, 0x443dac8fff3cb2e7ULL, 0xf3fb6b2f9186fcc0ULL},
    {58, 0x535420245ab92fe6ULL, 0x40c8108fdded4131ULL},
    {59, 0x4e5056cd6408a897ULL, 0xca354e07857bfaa9ULL},
};
// clang-format on

TEST(StorageGoldenTest, ChaseRunCountsMatchRecordedRuns) {
  for (const StorageGolden& expected : kStorageGolden) {
    const StorageLines got = RunSeed(expected.seed);
    EXPECT_EQ(Fnv1a(got.counts), expected.counts)
        << "seed " << expected.seed << "\n"
        << got.counts;
    EXPECT_EQ(Fnv1a(got.sealed_probes), expected.sealed_probes)
        << "seed " << expected.seed << "\n"
        << got.sealed_probes;
  }
}

}  // namespace
}  // namespace mm2::chase
