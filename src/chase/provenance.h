#ifndef MM2_CHASE_PROVENANCE_H_
#define MM2_CHASE_PROVENANCE_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "instance/value.h"

namespace mm2::chase {

// A fact is a (relation, tuple) pair; a witness is the list of source facts
// that fired the rule deriving a target fact (why-provenance, Section 5).
struct Fact {
  std::string relation;
  instance::Tuple tuple;

  bool operator==(const Fact&) const = default;
  bool operator<(const Fact& other) const {
    if (relation != other.relation) return relation < other.relation;
    return tuple < other.tuple;
  }
  std::string ToString() const;
};

using Witness = std::vector<Fact>;

// Why-provenance: every derived fact with the witnesses that derived it, in
// booking order, plus the support index from each fact a witness reads to
// the facts it supports (filled by session chases, the DRed substrate).
// One typed store; Facts and Witnesses exist only at its edges:
//  - a relation name is held once, and a fact is its relation's index plus
//    its tuple;
//  - a witness is a registered rule body plus the body frame that matched
//    it, read back as facts only when asked for;
//  - fact tuples and witness frames are spans of one value arena; the
//    support index chains fact ids per source fact;
//  - spans, witnesses and index entries that deletion maintenance frees go
//    to free lists and are reused, so over a stream the store stays the
//    size of the live derivations.
// Everything refers to everything else by index, so the store copies and
// moves as plain vectors.
class Provenance {
 public:
  using Id = std::uint32_t;
  static constexpr Id kNone = static_cast<Id>(-1);

  // A body atom as witnesses read it back: each column is frame[slot], or
  // `constant` when slot is kNone.
  struct Column {
    Id slot = kNone;
    instance::Value constant;
    bool operator==(const Column&) const = default;
  };
  struct BodyAtom {
    std::string relation;
    std::vector<Column> columns;
  };

  struct Footprint {
    std::size_t facts = 0;          // facts with at least one witness
    std::size_t witnesses = 0;
    std::size_t support_edges = 0;  // support-index entries
    std::size_t bytes = 0;          // container capacities x element sizes
  };

  // What Prune did: the facts left without a witness (now gone from the
  // store), and how many facts lost a witness but kept another.
  struct Pruned {
    std::vector<Fact> unsupported;
    std::size_t kept = 0;
  };

  // ---- Booking (the chase) ------------------------------------------------
  Id AddRelation(std::string_view name);
  // Registers a rule body whose witnesses keep `width` frame values. A body
  // registered before (same atoms, same width) keeps its id, so every pass
  // of a session books into the same rule.
  Id AddRule(const std::vector<BodyAtom>& body, std::size_t width);
  // Appends frame[0, width) of `rule` as the newest witness of
  // relation(tuple). With `support`, every fact the witness reads also
  // lists relation(tuple) in the support index.
  void Book(Id rule, Id relation, const instance::Tuple& tuple,
            const instance::Value* frame, bool support);
  // Null unification from an egd step: rewrites `from` to `to` in facts,
  // witnesses and rule constants. Facts that become equal merge their
  // witness lists in the order of their old tuples. Support-index keys are
  // source facts and keep their values.
  void RewriteValue(const instance::Value& from, const instance::Value& to);

  // ---- Deletion maintenance -------------------------------------------------
  // For each fact of `dead` (source facts a session erased): removes its
  // support-index entry and, from every fact that entry lists, drops the
  // witnesses that read one of the dead facts.
  Pruned Prune(const std::vector<Fact>& dead);

  // ---- Reads -----------------------------------------------------------------
  std::size_t size() const { return facts_.live; }
  // The witnesses of `fact` in booking order; empty when it has none.
  std::vector<Witness> WitnessesOf(const Fact& fact) const;
  // Calls visit(witness) for each witness of `fact` in booking order, with
  // one buffer reused across calls; returns the number of witnesses.
  std::size_t VisitWitnesses(
      const Fact& fact,
      const std::function<void(const Witness&)>& visit) const;
  // Every fact with a witness, in no particular order.
  std::vector<Fact> Facts() const;
  // The facts the support index lists for `source`, stale entries included.
  std::vector<Fact> DependentsOf(const Fact& source) const;
  Footprint footprint() const;

 private:
  struct RuleAtom {
    Id relation = kNone;
    std::vector<Column> columns;
    bool operator==(const RuleAtom&) const = default;
  };
  struct Rule {
    std::vector<RuleAtom> atoms;
    Id width = 0;
  };
  // A fact: a span of the value arena plus its list head. Facts of facts_
  // chain their witnesses; facts of sources_ chain support edges.
  struct FactRec {
    Id relation = kNone;  // kNone marks a free record (next free: `first`)
    Id values = 0;
    Id arity = 0;
    Id hash = 0;
    Id first = kNone;
    Id last = kNone;
  };
  // Fact records plus an open-addressing index over their ids.
  struct FactTable {
    std::vector<FactRec> recs;
    std::vector<Id> slots;  // power-of-two size; kNone marks an empty slot
    Id free = kNone;
    std::size_t live = 0;
  };
  struct WitnessRec {
    Id rule = kNone;  // kNone marks a free record (next free: `next`)
    Id frame = 0;
    Id next = kNone;  // the fact's next witness
  };
  struct Edge {
    Id fact = kNone;
    Id next = kNone;
  };

  Id FindRelation(std::string_view name) const;
  // The slot holding the fact, or the empty slot that ends its probe run.
  std::size_t Probe(const FactTable& table, Id relation,
                    const instance::Value* values, std::size_t arity,
                    Id hash) const;
  Id Find(const FactTable& table, Id relation, const instance::Value* values,
          std::size_t arity) const;
  Id Find(const FactTable& table, const Fact& fact) const;
  Id FindOrAdd(FactTable& table, Id relation, const instance::Value* values,
               std::size_t arity);
  void Slot(FactTable& table, Id id);
  void Unslot(FactTable& table, Id id);
  void Release(FactTable& table, Id id);
  void Grow(FactTable& table);
  Id AllocSpan(std::size_t width);
  void FreeSpan(Id at, std::size_t width);
  void FreeWitness(Id w);
  // The values of `atom` under `frame`, into `out`.
  static void ReadAtom(const RuleAtom& atom, const instance::Value* frame,
                       std::vector<instance::Value>* out);
  Fact FactOf(const FactTable& table, Id id) const;
  // True when witness `w` reads a fact of `dead` named by
  // hits[begin, end)'s second members.
  bool Reads(Id w, const std::vector<std::pair<Id, Id>>& hits,
             std::size_t begin, std::size_t end, const std::vector<Fact>& dead,
             const std::vector<Id>& dead_relations) const;

  std::vector<std::string> relations_;
  std::vector<Rule> rules_;
  std::vector<instance::Value> values_;
  std::vector<std::vector<Id>> free_spans_;  // by width
  FactTable facts_;                          // facts with witnesses
  FactTable sources_;                        // support-index keys
  std::vector<WitnessRec> witnesses_;
  Id free_witness_ = kNone;
  std::size_t live_witnesses_ = 0;
  std::vector<Edge> edges_;
  Id free_edge_ = kNone;
  std::size_t live_edges_ = 0;
  std::vector<instance::Value> scratch_;  // Book's source-fact buffer
};

}  // namespace mm2::chase

#endif  // MM2_CHASE_PROVENANCE_H_
